"""Pinned outputs of the barrier solver on the packaged example systems.

The values were recorded before the Newton kernel stopped re-evaluating
accepted iterates. That rework keeps every floating-point expression, so
statuses and Newton counts must match exactly; slacks and values are held
to 1e-12.
"""
import dataclasses
import sys
import threading

import numpy as np
import pytest

import convexnmpc as cn
import convexnmpc.solver as solver_module
from conftest import _pipeline

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
def test_ex2_feasibility_probe(ex2, coeffs, feasible, t_star, n_newton):
    cfg = cn.SolverConfig(max_newton=n_newton)
    got_feasible, got_t = _probe(ex2, coeffs, cfg)
    assert got_feasible is feasible
    assert abs(got_t - t_star) <= 1e-12
    # the probe needs exactly n_newton steps: one fewer exhausts the budget
    with pytest.raises(cn.NoConvergenceError):
        _probe(ex2, coeffs, cn.SolverConfig(max_newton=n_newton - 1))


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
    data = request.getfixturevalue(system)
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


def test_ex1_solution_flagged_nonconvex(ex1):
    data = ex1
    prog = cn.assemble((1, 1, 1), np.array([0.2, -0.1]), data["spec"],
                       data["lin"], data["zsets"], data["terminal"],
                       data["Q"], data["rho"])
    sol = cn.solve(prog)
    assert sol.status == "Optimal" and sol.n_newton == 9
    assert sol.nonconvex_flag


# ---------------------------------------------------------------------------
# compiled blocks: a program never depends on what was assembled before it
# ---------------------------------------------------------------------------

def _exact(value):
    """Every field inside a program, arrays and floats as raw bytes."""
    if isinstance(value, np.ndarray):
        return [(value.dtype.str, value.shape, value.tobytes())]
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _exact(v)]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            b for f in dataclasses.fields(value)
            for b in _exact(getattr(value, f.name))]
    if isinstance(value, float):
        return [np.float64(value).tobytes()]
    return [value]


def _arrays(value):
    """Every array inside a program."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value)
                for a in _arrays(getattr(value, f.name))]
    return []


def _program(data, coeffs, x0, Q=None, rho=None):
    return cn.assemble(coeffs, None if x0 is None else np.array(x0),
                       data["spec"], data["lin"], data["zsets"],
                       data["terminal"], data["Q"] if Q is None else Q,
                       data["rho"] if rho is None else rho)


def test_interleaved_states_and_scenarios(ex2):
    first = _program(ex2, (2, 2, 1) + ONES, (-0.9, 0.8))
    _program(ex2, (3, 1, 2) + ONES, (1.2, -0.3))
    again = _program(ex2, (2, 2, 1) + ONES, (-0.9, 0.8))
    assert _exact(again) == _exact(first)


# (system, sequence, x0 or None for free, a second state warming the cache)
WARM_COLD = [
    ("ex2", (2, 2, 1) + ONES, (-0.9, 0.8), (0.5, 0.5)),
    ("ex2", (3, 2, 1) + ONES, None, (0.5, 0.5)),
    ("ex3", (4, 1, 1) + ONES, (-1.0, 0.6), (0.3, -0.4)),
    ("ex3", (5, 5, 5) + ONES, None, (0.3, -0.4)),
    ("ex1", (1, 1, 1), (0.2, -0.1), (0.5, 0.5)),
    ("ex1", (1, 1, 1), None, (0.5, 0.5)),
]


@pytest.mark.parametrize("system, coeffs, x0, other", WARM_COLD)
def test_warm_cache_matches_fresh_pipeline(request, system, coeffs, x0,
                                           other):
    data = request.getfixturevalue(system)
    for state in (other, x0, None):
        _program(data, coeffs, state)
    warm = _program(data, coeffs, x0)
    cold = _program(_pipeline(system), coeffs, x0)
    assert _exact(warm) == _exact(cold)
    assert warm.nonconvex_data is (system == "ex1")


def test_cost_weights_are_part_of_the_key(ex2):
    coeffs, x0 = (2, 2, 1) + ONES, (-0.9, 0.8)
    base = _program(ex2, coeffs, x0)
    fresh = _pipeline("ex2")
    for Q, rho in ((2.0 * ex2["Q"], None), (None, 2.0 * ex2["rho"])):
        got = _program(ex2, coeffs, x0, Q=Q, rho=rho)
        want = _program(fresh, coeffs, x0, Q=Q, rho=rho)
        assert _exact((got.H, got.f, got.c0)) == _exact((want.H, want.f,
                                                          want.c0))
        assert not np.array_equal(got.H, base.H)


@pytest.mark.parametrize("system, x0", [("ex2", (-0.9, 0.8)),
                                        ("ex2", None),
                                        ("ex1", (0.2, -0.1))])
def test_program_arrays_are_read_only(request, system, x0):
    data = request.getfixturevalue(system)
    prog = _program(data, (1, 1, 1), x0)
    arrays = _arrays(prog)
    assert len(arrays) >= 8
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0


@pytest.mark.parametrize("x0", [(0.5, 0.5), None])
@pytest.mark.parametrize("coeffs", [(0, 1, 1), (-1, 1, 1), (1, 0, 1),
                                    (4, 1, 1)])
def test_coefficients_outside_one_to_s_rejected(ex2, coeffs, x0):
    # a Q no other test uses: accepting the sequence would cache a horizon
    cached = list(solver_module._HORIZONS)
    with pytest.raises(cn.OutOfRangeError):
        _program(ex2, coeffs, x0, Q=3.0 * ex2["Q"])
    assert list(solver_module._HORIZONS) == cached


def test_threads_assembling_at_different_states(ex2):
    jobs = [((2, 2, 1) + ONES, (-0.9, 0.8)), ((3, 1, 2) + ONES, (1.2, -0.3)),
            ((1, 1, 1) + ONES, (0.5, 0.5)), ((3, 2, 1) + ONES, None)]
    want = [_exact(_program(ex2, *job)) for job in jobs]
    wrong = []

    def worker(seed):
        for i in np.random.default_rng(seed).integers(0, len(jobs), 40):
            if _exact(_program(ex2, *jobs[i])) != want[i]:
                wrong.append(i)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# batched solves: a batch does each program's arithmetic exactly
# ---------------------------------------------------------------------------

# (system, x0, first coefficients): two program shapes, several states
BATCH = [("ex2", (0.5, 0.5), (1, 1, 1)), ("ex2", (0.5, 0.5), (1, 2, 1)),
         ("ex2", (0.5, 0.5), (2, 1, 1)), ("ex2", (1.2, -0.3), (3, 3, 1)),
         ("ex2", (-0.9, 0.8), (2, 2, 2)), ("ex3", (-1.0, 0.6), (4, 1, 1)),
         ("ex3", (0.9, -1.7), (5, 5, 5)), ("ex3", (0.3, -0.4), (1, 1, 1))]


def _batch(request):
    return [_program(request.getfixturevalue(system), head + ONES, x0)
            for system, x0, head in BATCH]


def test_batch_matches_one_by_one(request):
    progs = _batch(request)
    cfg = cn.SolverConfig(max_newton=120)
    one_by_one = [cn.solve(prog, cfg) for prog in progs]
    batched, rounds = cn.solve_many(progs, cfg)
    assert [sol.status for sol in one_by_one] == [
        "Optimal", "Infeasible", "Infeasible", "Infeasible", "Optimal",
        "IterLimit", "Infeasible", "Optimal"]
    assert [_exact(sol) for sol in batched] == [_exact(sol)
                                                for sol in one_by_one]
    # a program that shares its shape asks in every round until it ends
    shapes = solver_module._Batch(progs).shapes
    assert max(sol.n_newton for sol, shape in zip(batched, shapes)
               if shapes.count(shape) > 1) <= rounds


def test_batch_of_one(request):
    progs = _batch(request)
    batched, _ = cn.solve_many(progs)
    for prog, sol in zip(progs[:2], batched):
        (alone,), rounds = cn.solve_many([prog])
        assert _exact(alone) == _exact(sol)
        assert rounds == 0  # alone in its shape: it never waits for a round
    assert batched[0].n_newton == 106  # the pinned (0.5, 0.5) solve


def test_batch_stalls_only_candidates_that_step(request, monkeypatch):
    # no trial passes an Armijo bound of -inf: every Newton step stalls
    monkeypatch.setattr(solver_module, "ARMIJO_SLOPE", np.inf)
    progs = _batch(request)
    batched, _ = cn.solve_many(progs)
    assert [_exact(sol) for sol in batched] == [_exact(cn.solve(prog))
                                                for prog in progs]
    stalled = [sol.status == "Stalled" for sol in batched]
    assert stalled == [sol.n_newton > 0 for sol in batched]
    assert any(stalled) and not all(stalled)


@pytest.mark.parametrize("system, x0, coeffs", [
    ("ex2", None, (2, 1, 1) + ONES), ("ex2", (-0.9, 0.8), (2, 2, 1) + ONES),
    ("ex3", (-1.0, 0.6), (4, 1, 1) + ONES)])
def test_stacked_constraints_match_their_oracles(request, system, x0, coeffs):
    # ConvexProgram.constraint_values and the KKT residual read every
    # nonlinear constraint through _Blocks: bit for bit its own oracle
    prog = _program(request.getfixturevalue(system), coeffs, x0)
    blocks, cons = prog._blocks, prog.nonlin
    rng = np.random.default_rng(7)
    # near the hint, inside the ridges' phase bands, and far out on their
    # tangents
    for scale in (0.0, 0.1, 3.0):
        for z in prog.z0_hint + rng.normal(scale=scale, size=(4, prog.n_vars)):
            assert blocks.values(z).tobytes() == np.array(
                [con.value(z) for con in cons]).tobytes()
            assert blocks.grads(z).tobytes() == np.array(
                [con.grad(z) for con in cons]).reshape(
                    len(cons), prog.n_vars).tobytes()
    if system == "ex2":
        assert blocks.ridge_at.size and blocks.quad_at
        th, thc = blocks._phase(prog.z0_hint + 3.0)
        assert (th != thc).any() and (th == thc).any()
