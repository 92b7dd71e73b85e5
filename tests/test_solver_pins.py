"""Pinned outputs of the barrier solver on the packaged example systems.

The values were recorded before the Newton kernel stopped re-evaluating
accepted iterates. That rework keeps every floating-point expression, so
statuses and Newton counts must match exactly; slacks and values are held
to 1e-12.
"""
import dataclasses
import json
import pathlib
import sys
import threading

import numpy as np
import pytest

import convexnmpc as cn
import convexnmpc.solver as solver_module
from conftest import _pipeline
from convexnmpc.stagesets import _dots
from helpers import AffineCon, composed, oracles, step_map

BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"
ONES = (1,) * 12


def _probe(data, coeffs, cfg):
    prog = cn.assemble(coeffs, None, data["lin"],
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
    got_feasible, got_t, _ = _probe(ex2, coeffs, cfg)
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
    prog = cn.assemble(coeffs, np.array(x0), data["lin"],
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
    prog = cn.assemble((1, 1, 1), np.array([0.2, -0.1]),
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
                       data["lin"], data["zsets"],
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
# solves one at a time: a solve never depends on what was solved before it
# ---------------------------------------------------------------------------

# (system, x0, first coefficients): two program shapes, several states
SOLVED = [("ex2", (0.5, 0.5), (1, 1, 1)), ("ex2", (0.5, 0.5), (1, 2, 1)),
          ("ex2", (0.5, 0.5), (2, 1, 1)), ("ex2", (1.2, -0.3), (3, 3, 1)),
          ("ex2", (-0.9, 0.8), (2, 2, 2)), ("ex3", (-1.0, 0.6), (4, 1, 1)),
          ("ex3", (0.9, -1.7), (5, 5, 5)), ("ex3", (0.3, -0.4), (1, 1, 1))]


def _solved(request):
    return [_program(request.getfixturevalue(system), head + ONES, x0)
            for system, x0, head in SOLVED]


def test_statuses_at_a_budget(request):
    cfg = cn.SolverConfig(max_newton=120)
    assert [cn.solve(prog, cfg).status for prog in _solved(request)] == [
        "Optimal", "Infeasible", "Infeasible", "Infeasible", "Optimal",
        "IterLimit", "Infeasible", "Optimal"]


def test_solve_does_not_depend_on_earlier_solves(request):
    progs = _solved(request)
    first = [cn.solve(prog) for prog in progs[:2]]
    later = [cn.solve(prog) for prog in progs[::-1]][::-1]
    assert [_exact(sol) for sol in later[:2]] == [_exact(sol)
                                                 for sol in first]
    assert first[0].n_newton == 106  # the pinned (0.5, 0.5) solve


def test_stalls_only_solves_that_step(request, monkeypatch):
    # no trial passes an Armijo bound of -inf: every Newton step stalls
    monkeypatch.setattr(solver_module, "ARMIJO_SLOPE", np.inf)
    sols = [cn.solve(prog) for prog in _solved(request)]
    stalled = [sol.status == "Stalled" for sol in sols]
    assert stalled == [sol.n_newton > 0 for sol in sols]
    assert any(stalled) and not all(stalled)


@pytest.mark.parametrize("system, x0, coeffs", [
    ("ex2", None, (2, 1, 1) + ONES), ("ex2", (-0.9, 0.8), (2, 2, 1) + ONES),
    ("ex3", (-1.0, 0.6), (4, 1, 1) + ONES), ("ex1", (0.2, -0.1), (1, 1, 1))])
def test_stacked_constraints_match_their_oracles(request, system, x0, coeffs):
    # the stacked Constraints of a program (read by the KKT residual's
    # Jacobian) and of each stage set (read by membership, the screens and
    # the terminal): bit for bit one oracle object per constraint, in order
    data = request.getfixturevalue(system)
    prog = _program(data, coeffs, x0)
    rng = np.random.default_rng(7)
    for cons, z0 in [(prog.cons, prog.z0_hint)] + [
            (zs.constraints, np.zeros(3)) for zs in data["zsets"]]:
        refs = oracles(cons)
        assert len(refs) == len(cons)
        # near the hint, inside the ridges' phase bands, and far out on
        # their tangents
        for scale in (0.0, 0.1, 3.0):
            Z = z0 + rng.normal(scale=scale, size=(4, z0.size))
            for z in Z:
                assert cons.values(z).tobytes() == np.array(
                    [ref.value(z) for ref in refs]).tobytes()
                assert cons.grads(z).tobytes() == np.array(
                    [ref.grad(z) for ref in refs]).reshape(
                        len(refs), z0.size).tobytes()
            assert cons.values_batch(Z).tobytes() == np.array(
                [ref.value_batch(Z) for ref in refs]).T.reshape(
                    4, len(refs)).tobytes()
            # the curved rows' gradients at every point at once take the
            # barrier's rounding of the ridges' phase: equal to rounding
            a = len(cons.rows)
            assert np.allclose(cons.curved_grads_batch(Z), np.array(
                [[ref.grad(z) for ref in refs[a:]] for z in Z]).reshape(
                    4, len(refs) - a, z0.size), rtol=1e-12, atol=1e-12)
    kinds = {"ex1": "quadratic", "ex2": "smooth", "ex3": "affine"}
    assert [zs.kind for zs in data["zsets"]] == [kinds[system]] * len(
        data["zsets"])
    if system == "ex2":
        assert len(prog.cons.scale) and len(prog.cons.c0)
        th, thc = prog.cons._phase(prog.z0_hint + 3.0)
        assert (th != thc).any() and (th == thc).any()


@pytest.mark.parametrize("system, x0, coeffs", [
    ("ex2", None, (2, 1, 1) + ONES), ("ex2", (-0.9, 0.8), (2, 2, 1) + ONES),
    ("ex3", (-1.0, 0.6), (4, 1, 1) + ONES), ("ex1", (0.2, -0.1), (1, 1, 1))])
def test_blocks_compose_their_stage_constraints(request, system, x0, coeffs):
    # each step's constraints after its region rows, lifted by the step
    # map once per horizon and shifted once per state: bit for bit the
    # composition of one stage oracle at a time
    data = request.getfixturevalue(system)
    prog = _program(data, coeffs, x0)
    st = solver_module._horizon(
        data["lin"], data["zsets"], data["terminal"],
        np.atleast_2d(data["Q"]), float(data["rho"]), len(coeffs),
        x0 is None).at(None if x0 is None else np.array(x0))
    for k, e in enumerate(coeffs):
        _, cons = st.step(e - 1, k)
        want = [composed(con, *step_map(prog.S, prog.offset, 2, k))
                for con in oracles(data["zsets"][e - 1].constraints)]
        a = sum(isinstance(con, AffineCon) for con in want)
        assert _exact(oracles(cons)[len(cons.rows) - a:]) == _exact(want)


class _Concatenations:
    """numpy, as the solver module sees it, keeping each concatenate's
    result."""

    def __init__(self):
        self.out = []

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, parts, *args, **kwargs):
        self.out.append(np.concatenate(parts, *args, **kwargs))
        return self.out[-1]


@pytest.mark.parametrize("system", ["ex2", "ex3"])
def test_affine_values_are_one_matrix_product(request, monkeypatch, system):
    # constraint_values and the KKT residual take a program's affine values
    # as one matrix product, rows @ z - offsets, before its ridges and
    # quadratics: bit for bit at every candidate program of three benchmark
    # pool states, where per-row dots round differently
    data = request.getfixturevalue(system)
    catalog = cn.FeasibleCatalog.load(BENCH_DATA / f"{system}_N15_catalog.json")
    pool = json.loads((BENCH_DATA / "reference.json").read_text())["pools"]
    entries = pool["loop-ex2" if system == "ex2" else "query-ex3"][::40][:3]
    rng = np.random.default_rng(3)
    spy, cfg, apart = _Concatenations(), cn.SolverConfig(), 0
    for entry in entries:
        x = np.array(entry["x0"], dtype=float)
        for seq in cn.filter_for_state(catalog, data["spec"], x):
            prog = _program(data, seq, x)
            cons = prog.cons
            z = prog.z0_hint + rng.normal(scale=0.1, size=prog.n_vars)
            affine, curved = cons.rows @ z, cons.curved_values(z)
            apart += int(np.sum(_dots(cons.rows, z) != affine))
            assert prog.constraint_values(z).tobytes() == np.concatenate(
                [affine - cons.offsets, curved]).tobytes()
            for relax in (0.0, 1e-6):
                monkeypatch.setattr(solver_module, "np", spy)
                spy.out.clear()
                solver_module._kkt_residual(prog, z, 1e-12, relax, cfg)
                monkeypatch.undo()
                assert spy.out[0].tobytes() == np.concatenate(
                    [-((cons.offsets + relax) - affine),
                     curved - relax]).tobytes()
    assert apart > 0
