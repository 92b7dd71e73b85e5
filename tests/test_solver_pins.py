"""Pinned outputs of the barrier solver on the packaged example systems.

The values were recorded before the Newton kernel stopped re-evaluating
accepted iterates. That rework keeps every floating-point expression, so
statuses and Newton counts must match exactly; slacks and values are held
to 1e-12.
"""
import numpy as np
import pytest

import convexnmpc as cn

ONES = (1,) * 12


def _probe(data, coeffs, cfg):
    prog = cn.assemble(coeffs, None, data["spec"], data["lin"],
                       data["zsets"], data["terminal"], Q=np.eye(2), rho=1.0)
    return cn.solve_feasibility(prog, cfg)


# free-x0 phase-I probes of the ex2 prune: (sequence, feasible, t*, Newton)
PROBES = [
    ((1, 1, 1), True, -0.19199999999999998, 43),
    ((1, 2, 1), False, 0.03591848532161738, 58),
    ((2, 2, 2), True, -0.00874576051101078, 34),
    ((2, 1, 1) + ONES, True, -0.005995588600879929, 82),
    ((3, 2, 1) + ONES, False, 0.6638573699027959, 104),
    ((1, 2, 2, 1, 1) + ONES[:10], False, 0.049453287835261206, 80),
]


@pytest.mark.parametrize("coeffs, feasible, t_star, n_newton", PROBES)
def test_ex2_feasibility_probe(packaged_ex2, coeffs, feasible, t_star,
                               n_newton):
    cfg = cn.SolverConfig(max_newton=n_newton)
    got_feasible, got_t = _probe(packaged_ex2, coeffs, cfg)
    assert got_feasible is feasible
    assert abs(got_t - t_star) <= 1e-12
    # the probe needs exactly n_newton steps: one fewer exhausts the budget
    with pytest.raises(cn.NoConvergenceError):
        _probe(packaged_ex2, coeffs,
               cn.SolverConfig(max_newton=n_newton - 1))


# fixed-x0 solves: (system, x0, sequence, status, V, Newton)
SOLVES = [
    ("ex2", (0.5, 0.5), (1, 1, 1) + ONES, "Optimal", 6.107016068668102, 106),
    ("ex2", (-0.9, 0.8), (2, 2, 2) + ONES, "Optimal", 0.4694266481464051,
     21),
    ("ex2", (1.2, -0.3), (3, 3, 1) + ONES, "Infeasible", None, 79),
    ("ex3", (0.3, -0.4), (1, 1, 1) + ONES, "Optimal", 0.113793697351384, 12),
    ("ex3", (-1.0, 0.6), (4, 1, 1) + ONES, "Optimal", 1.7787199039717958,
     140),
    ("ex3", (0.9, -1.7), (5, 5, 5) + ONES, "Infeasible", None, 50),
]


@pytest.mark.parametrize("system, x0, coeffs, status, V, n_newton", SOLVES)
def test_fixed_state_solve(request, system, x0, coeffs, status, V, n_newton):
    data = request.getfixturevalue(f"packaged_{system}")
    prog = cn.assemble(coeffs, np.array(x0), data["spec"], data["lin"],
                       data["zsets"], data["terminal"], data["Q"],
                       data["rho"])
    sol = cn.solve(prog)
    assert sol.status == status
    assert sol.n_newton == n_newton
    assert not sol.nonconvex_flag
    if V is None:
        assert np.isnan(sol.V)
    else:
        assert abs(sol.V - V) <= 1e-12


def test_ex1_solution_flagged_nonconvex(packaged_ex1):
    data = packaged_ex1
    prog = cn.assemble((1, 1, 1), np.array([0.2, -0.1]), data["spec"],
                       data["lin"], data["zsets"], data["terminal"],
                       data["Q"], data["rho"])
    sol = cn.solve(prog)
    assert sol.status == "Optimal" and sol.n_newton == 9
    assert sol.nonconvex_flag
