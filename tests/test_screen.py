"""Infeasibility screens on the packaged example systems.

A screen rejects a candidate scenario by a certified lower bound on its
phase-I value t*, taken from a subset of its constraints: a head, the
constraints of its first k stage blocks. Offline the head is the first
transition (i, j) of a free-x0 probe, online a head of the program at the
query state: first the constraints that depend on v0 alone, then the first
k stage blocks that several candidates share.
Everything a screen rejects must be Infeasible, and pruning and evaluation
must come out exactly as without the screen.
"""
import json
import pathlib
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

import convexnmpc as cn
import convexnmpc.closedloop as closedloop_module
import convexnmpc.scenario as scenario_module
import convexnmpc.solver as solver_module
from conftest import PACKAGED, PAPER_B0, PAPER_C, Q_DIAG
from helpers import (brute_force_level, full_schedule_transitions,
                     hand_built_head_constraints, hand_built_head_start,
                     stage_lines)

FEAS_TOL = cn.SolverConfig().feas_tol
SYSTEMS = ("ex2", "ex3")
# test ids name the systems after the package data they are built from
IDS = {name: f"packaged_{name}" for name in ("ex1",) + SYSTEMS}
GRID = [np.array([a, b]) for a in np.linspace(-1.9, 1.9, 7)
        for b in np.linspace(-1.9, 1.9, 7)]
BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"


def _transitions(data, cfg=None):
    return solver_module.transitions(data["lin"], data["zsets"],
                                     data["terminal"],
                                     cfg or cn.SolverConfig())


def _at(data, x, N):
    """The offsets of the fixed-x0 horizon N at state x."""
    Q = np.atleast_2d(np.asarray(data["Q"], dtype=float))
    return solver_module._horizon(data["lin"], data["zsets"],
                                  data["terminal"], Q, float(data["rho"]), N,
                                  False).at(x)


def _one_step(data, x, N, head):
    return solver_module.one_step(_at(data, x, N), *head)


def _walk(data, x, seqs):
    return solver_module.heads(x, seqs, data["lin"], data["zsets"],
                               data["terminal"], data["Q"], data["rho"],
                               cn.SolverConfig())


def _prune(data, N, **kwargs):
    return cn.prune_catalog(data["spec"], data["lin"], data["zsets"],
                            data["terminal"], N, **kwargs)


def _probe(data, coeffs):
    prog = cn.assemble(coeffs, None, data["lin"],
                       data["zsets"], data["terminal"], Q=np.eye(2), rho=1.0)
    return cn.solve_feasibility(prog)


def _pipeline_args(data, catalog):
    return (catalog, data["spec"], data["lin"], data["zsets"],
            data["terminal"], data["Q"], data["rho"])


@pytest.fixture(scope="module")
def pruned(request):
    """The packaged systems with their N=3 catalogs."""
    out = {}
    for name in SYSTEMS:
        data = request.getfixturevalue(name)
        out[name] = (data, _prune(data, 3))
    return out


def _without_transition_screen(monkeypatch):
    monkeypatch.setattr(
        scenario_module, "transitions",
        lambda lin, zsets, terminal, cfg: dict.fromkeys(
            [(i, j) for i in range(1, len(zsets) + 1)
             for j in range(1, len(zsets) + 1)], -np.inf))


def _without_one_step_screen(monkeypatch):
    # the one-step bound is the head walk's first depth: both go
    monkeypatch.setattr(closedloop_module, "heads",
                        lambda x, seqs, *args: ([-np.inf] * len(seqs), 0))


# ---------------------------------------------------------------------------
# offline: transition bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, n_screened", [("ex2", 4), ("ex3", 50)],
                         ids=IDS.get)
def test_screened_pairs_probe_infeasible(request, name, n_screened):
    data = request.getfixturevalue(name)
    s = data["spec"].n_regions
    bounds = _transitions(data)
    assert set(bounds) == {(i, j) for i in range(1, s + 1)
                           for j in range(1, s + 1)}
    pairs = [pair for pair, bound in bounds.items() if bound > FEAS_TOL]
    assert len(pairs) == n_screened
    longer = pairs[0] + (1,) * 13
    for coeffs in pairs + [longer]:
        feasible, t_star, _ = _probe(data, coeffs)
        assert not feasible
        # the bound is a lower bound on the probe's phase-I value
        assert t_star >= bounds[coeffs[:2]] - 1e-9


@pytest.mark.parametrize("name", ("ex1",) + SYSTEMS, ids=IDS.get)
def test_transition_rule_matches_full_schedule(request, name):
    # the head walk's rule screens the pairs that phase I through its whole
    # schedule screens, and each finite bound is below the pair's probe
    data = request.getfixturevalue(name)
    bounds = _transitions(data)
    reference = full_schedule_transitions(data["lin"], data["zsets"])
    assert bounds.keys() == reference.keys()
    screened = {pair for pair, bound in bounds.items() if bound > FEAS_TOL}
    assert screened == {pair for pair, bound in reference.items()
                        if bound > FEAS_TOL}
    assert len(screened) == {"ex1": 0, "ex2": 4, "ex3": 50}[name]
    for pair, bound in bounds.items():
        if np.isfinite(bound):
            assert bound <= _probe(data, pair)[1] + 1e-9


def test_transitions_are_kept_per_terminal_and_config(ex2):
    bounds = _transitions(ex2)
    assert _transitions(ex2, cn.SolverConfig()) is bounds
    loose = _transitions(ex2, cn.SolverConfig(feas_tol=1.0))
    assert loose is not bounds and loose.keys() == bounds.keys()


def test_threads_share_one_transition_entry(ex2, monkeypatch):
    # an empty LRU: threads that ask at once wait for one computation
    want = _transitions(ex2)
    monkeypatch.setattr(solver_module, "_HORIZONS", {})
    got = []
    threads = [threading.Thread(target=lambda: got.append(_transitions(ex2)))
               for _ in range(4)]
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
    assert len(got) == 4 and all(bounds is got[0] for bounds in got)
    assert got[0] == want


@pytest.mark.parametrize("name, N", [("ex2", 5), ("ex3", 3)],
                         ids=IDS.get)
def test_prune_equals_unscreened_prune(request, monkeypatch, name, N):
    data = request.getfixturevalue(name)
    screened = _prune(data, N)
    _without_transition_screen(monkeypatch)
    plain = _prune(data, N)
    assert screened.levels == plain.levels
    assert screened.meta["screened"]["1"] == 0
    assert sum(screened.meta["screened"].values()) > 0
    assert set(plain.meta["screened"].values()) == {0}


def test_prune_equals_brute_force(pruned):
    data, catalog = pruned["ex2"]
    expect = brute_force_level(data["spec"], data["lin"], data["zsets"],
                               data["terminal"], 3)
    assert list(catalog.sequences(3)) == expect


# ---------------------------------------------------------------------------
# online: one-step bounds
# ---------------------------------------------------------------------------

def _heads(data, catalog, x):
    return sorted({c[:2]
                   for c in cn.filter_for_state(catalog, data["spec"], x)})


def _one_step_lines(data, x, e1, e2=None):
    """The lines a v0 + c of the constraints that depend on v0 alone,
    straight from the stage set's constraints and the regions: stage set
    e1's region rows and sides at (x, v0), then region e2's rows at
    A_hat x + b_hat v0."""
    a, c = stage_lines(data["zsets"][e1 - 1], x)
    if e2 is not None:
        region, lin = data["zsets"][e2 - 1].region, data["lin"]
        c = np.append(c, region.C @ (lin.A_hat @ x) - region.d)
        a = np.append(a, region.C @ lin.b_hat)
    return a, c


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_lines_are_the_stage_space_lines(pruned, name):
    # the lines read from the compiled blocks at v0 = 0: stage set e1's bit
    # for bit, region e2's rows (C (A_hat x) there, (C A_hat) x in a block)
    # to 1e-12; one and two steps on, through earlier inputs, to 1e-12
    data, catalog = pruned[name]
    checked = 0
    for x in GRID:
        st = _at(data, x, 3)
        for e1, e2 in _heads(data, catalog, x):
            a, c = solver_module._lines(st, e1, 0, np.zeros(3), e2)
            ref_a, ref_c = _one_step_lines(data, x, e1, e2)
            own = len(stage_lines(data["zsets"][e1 - 1], x)[0])
            assert a.shape == ref_a.shape and c.shape == ref_c.shape
            assert np.array_equal(a[:own], ref_a[:own])
            assert c[:own].tobytes() == ref_c[:own].tobytes()
            assert np.allclose(a[own:], ref_a[own:], rtol=0.0, atol=1e-12)
            assert np.allclose(c[own:], ref_c[own:], rtol=0.0, atol=1e-12)
            for k in (1, 2):
                z = np.array([0.3, -0.2, 0.0]) * (np.arange(3) < k)
                a, c = solver_module._lines(st, e2, k, z)
                x_k = st.hz.rows(k) @ z + st.offset[2 * k:2 * k + 2]
                ref_a, ref_c = stage_lines(data["zsets"][e2 - 1], x_k)
                assert np.array_equal(a, ref_a)
                assert np.allclose(c, ref_c, rtol=0.0, atol=1e-12)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_one_step_closed_form_matches_linprog(pruned, name):
    data, catalog = pruned[name]
    checked = 0
    for x in GRID:
        for head in _heads(data, catalog, x):
            a, c = _one_step_lines(data, x, *head)
            # min t over (v, t) subject to a v + c <= t
            res = linprog([0.0, 1.0],
                          A_ub=np.column_stack([a, -np.ones_like(a)]),
                          b_ub=-c, bounds=[(None, None)] * 2)
            assert res.status == 0
            low, v = solver_module._lowest_max(a, c)
            assert abs(low - res.fun) <= 1e-9
            assert abs(np.max(a * v + c) - res.fun) <= 1e-9
            # the bound sits below the min-max by its rounding allowance
            allowance = 1e-9 * (1.0 + np.abs(c).max())
            bound, v0 = _one_step(data, x, 3, head)
            assert abs(bound + allowance - res.fun) <= 1e-9
            # and its v0 attains the min-max
            assert np.max(a * v0 + c) - res.fun <= 1e-9
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_one_step_screened_candidates_are_infeasible(pruned, name):
    data, catalog = pruned[name]
    n_screened = 0
    for x in GRID:
        for seq in cn.filter_for_state(catalog, data["spec"], x):
            bound, _ = _one_step(data, x, 3, seq[:2])
            if bound <= FEAS_TOL:
                continue
            n_screened += 1
            sol = cn.solve(cn.assemble(seq, x, data["lin"],
                                       data["zsets"], data["terminal"],
                                       data["Q"], data["rho"]))
            assert sol.status == "Infeasible"
            assert sol.phase1_violation >= bound
    assert n_screened > 0


def _decisions(data, catalog):
    out = []
    for x in GRID:
        try:
            step = cn.evaluate_ocp(x, *_pipeline_args(data, catalog),
                                   keep_per_scenario=True)
        except cn.InfeasibleStateError as exc:
            statuses = [status for _, status, _ in exc.details["per_scenario"]]
            assert exc.details["n_screened"] == statuses.count("Screened")
            out.append(("infeasible", exc.details["n_screened"],
                        exc.details["n_head_newton"]))
            continue
        statuses = [status for _, status, _ in step.per_scenario]
        assert step.n_screened == statuses.count("Screened")
        assert step.n_dominated == statuses.count("Dominated")
        assert (step.n_scenarios_solved + step.n_screened + step.n_dominated
                == len(statuses))
        out.append((step.j_star, step.u, step.V, step.n_screened,
                    step.n_head_newton))
    return out


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_evaluate_equals_unscreened_evaluate(pruned, monkeypatch, name):
    data, catalog = pruned[name]
    screened = _decisions(data, catalog)
    _without_one_step_screen(monkeypatch)
    plain = _decisions(data, catalog)
    assert [d[:-2] for d in screened] == [d[:-2] for d in plain]
    assert sum(d[-2] for d in screened) > 0
    assert sum(d[-2] for d in plain) == 0
    assert sum(d[-1] for d in plain) == 0


# ---------------------------------------------------------------------------
# online: head bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep(request):
    """The packaged systems with N=6 catalogs: deep enough for heads of
    three steps and more."""
    out = {}
    for name in SYSTEMS:
        data = request.getfixturevalue(name)
        out[name] = (data, _prune(data, 6))
    return out


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_head_screened_candidates_are_infeasible(deep, name):
    data, catalog = deep[name]
    n_heads, n_newton = 0, 0
    for x in GRID:
        cands = cn.filter_for_state(catalog, data["spec"], x)
        bounds, steps = _walk(data, x, cands)
        n_newton += steps
        for seq, bound in zip(cands, bounds):
            if (bound <= FEAS_TOL
                    or _one_step(data, x, 6, seq[:2])[0] > FEAS_TOL):
                continue  # kept, or screened by its one-step bound
            n_heads += 1
            sol = cn.solve(cn.assemble(seq, x, data["lin"],
                                       data["zsets"], data["terminal"],
                                       data["Q"], data["rho"]))
            assert sol.status in ("Infeasible", "IterLimit", "Stalled")
            if sol.status == "Infeasible":
                assert sol.phase1_violation >= bound
    assert n_heads > 0 and n_newton > 0


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_head_walk_keeps_decisions(deep, monkeypatch, name):
    data, catalog = deep[name]
    screened = _decisions(data, catalog)
    _without_one_step_screen(monkeypatch)
    plain = _decisions(data, catalog)
    assert [d[:-2] for d in screened] == [d[:-2] for d in plain]
    # the head tests take Newton steps of their own, counted apart
    assert sum(d[-1] for d in screened) > 0
    assert sum(d[-1] for d in plain) == 0


def _head_parts(monkeypatch, data, catalog, states):
    """(built, hand-built) pairs of the constraints and of the starts of
    every head the walk tests at the states."""
    built = {"constraints": [], "starts": []}

    def recorded(name, fn, hand_built):
        def record(*args):
            got = fn(*args)
            built[name].append((got, hand_built(*args)))
            return got
        return record

    monkeypatch.setattr(solver_module, "_head_constraints", recorded(
        "constraints", solver_module._head_constraints,
        hand_built_head_constraints))
    monkeypatch.setattr(solver_module, "_head_start", recorded(
        "starts", solver_module._head_start, hand_built_head_start))
    for x in states:
        _walk(data, x, cn.filter_for_state(catalog, data["spec"], x))
    return built


def _assert_hand_built(built):
    assert len(built["starts"]) == len(built["constraints"])
    for start, ref in built["starts"]:
        assert start.shape == ref.shape
        assert start.tobytes() == ref.tobytes()
    for cons, ref in built["constraints"]:
        for name in cons.__dataclass_fields__:
            got, want = getattr(cons, name), getattr(ref, name)
            if isinstance(got, np.ndarray):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
            else:
                assert got == want, name


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_head_programs_match_hand_built(request, monkeypatch, name):
    # every head's constraints and start in the walk at the benchmark
    # pool's states, one in 2 on loop-ex2 (ridges) and one in 13 on
    # query-ex3 (affine rows), with the stored N=15 catalogs, are the
    # hand-built ones, array for array
    pool, every = {"ex2": ("loop-ex2", 2), "ex3": ("query-ex3", 13)}[name]
    data = request.getfixturevalue(name)
    catalog = cn.FeasibleCatalog.load(BENCH_DATA / f"{name}_N15_catalog.json")
    states = json.loads((BENCH_DATA / "reference.json").read_text())["pools"]
    built = _head_parts(monkeypatch, data, catalog,
                        [np.array(entry["x0"], dtype=float)
                         for entry in states[pool][::every]])
    assert len(built["starts"]) > 20
    _assert_hand_built(built)


def test_head_starts_off_centre_match_hand_built(monkeypatch):
    # ex2 with the input interval [-1, 3], off centre: the sides of a stage
    # set cross at v != 0, so a head's start extends its parent's point by
    # a nonzero v, which the hand-built starts must match bit for bit
    system = json.loads((PACKAGED / "ex2.json").read_text())
    system["u"] = [-1.0, 3.0]
    spec = cn.system_from_dict(system)
    lin = cn.build_linearization(spec, PAPER_C, b0=PAPER_B0)
    zsets = cn.build_stage_sets(spec, lin)
    Q, rho = Q_DIAG * np.eye(2), 0.1 * PAPER_B0 ** 2 / lin.beta ** 2
    data = dict(spec=spec, lin=lin, zsets=zsets, Q=Q, rho=rho,
                terminal=cn.build_terminal(spec, lin, zsets, Q, rho))
    built = _head_parts(monkeypatch, data, _prune(data, 5), GRID)
    assert len(built["starts"]) > 20
    assert any(start[-1] != 0.0 for start, _ in built["starts"])
    _assert_hand_built(built)


def test_heads_of_nonconvex_data_take_no_newton_step(ex1):
    catalog = _prune(ex1, 5)
    for x in GRID:
        seqs = cn.filter_for_state(catalog, ex1["spec"], x)
        bounds, steps = _walk(ex1, x, seqs)
        # only the one-step bounds screen
        one_step = [_one_step(ex1, x, 5, seq[:2])[0] for seq in seqs]
        assert steps == 0
        assert bounds == [low if low > FEAS_TOL else -np.inf
                          for low in one_step]


# ---------------------------------------------------------------------------
# a stalled line search decides nothing
# ---------------------------------------------------------------------------

def test_stalled_line_search_is_undecided(ex2, monkeypatch):
    data = ex2
    # no trial can pass an Armijo bound of -inf. (A slope of 2 cannot pass
    # in exact arithmetic, but after ~55 backtracks the trial rounds to the
    # iterate itself and passes with an equal barrier value.)
    monkeypatch.setattr(solver_module, "ARMIJO_SLOPE", np.inf)
    x = np.array([0.5, 0.5])
    prog = cn.assemble((1, 1, 1), x, data["lin"],
                       data["zsets"], data["terminal"], data["Q"],
                       data["rho"])
    assert cn.solve(prog).status == "Stalled"
    with pytest.raises(cn.NoConvergenceError):
        _probe(data, (1, 2, 1))
    # an empty LRU: the transition bounds are computed under the stall
    monkeypatch.setattr(solver_module, "_HORIZONS", {})
    assert _transitions(data)[(1, 2)] == -np.inf
    catalog = cn.FeasibleCatalog(s=3, N=3, levels={3: ((1, 1, 1),)},
                                 feas_tol=FEAS_TOL, terminal_kind="ellipsoid",
                                 content_hash="")
    with pytest.raises(cn.InfeasibleStateError) as info:
        cn.evaluate_ocp(x, *_pipeline_args(data, catalog))
    assert info.value.details["n_undecided"] == 1
