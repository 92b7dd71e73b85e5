"""Infeasibility screens on the packaged example systems.

A screen rejects a candidate scenario by a certified lower bound on its
phase-I value t*, taken from a subset of its constraints: a head, the
constraints of its first k stage blocks. Offline the head is the first
transition (i, j) of a free-x0 probe, online the constraints of the
program at the query state that depend on v0 alone. Online a candidate is
also killed in closed form at a running bound B: its rows miss the
objective's ellipsoid {V <= B}.
Everything a screen rejects must be Infeasible, everything a kill rejects
must have no Optimal solve of value <= B, and pruning and evaluation must
come out exactly as without them.
"""
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

import convexnmpc as cn
import convexnmpc.closedloop as closedloop_module
import convexnmpc.scenario as scenario_module
import convexnmpc.solver as solver_module
from helpers import (brute_force_level, full_schedule_transitions,
                     hand_built_head_constraints, stage_lines)

FEAS_TOL = cn.SolverConfig().feas_tol
SYSTEMS = ("ex2", "ex3")
# test ids name the systems after the package data they are built from
IDS = {name: f"packaged_{name}" for name in ("ex1",) + SYSTEMS}
GRID = [np.array([a, b]) for a in np.linspace(-1.9, 1.9, 7)
        for b in np.linspace(-1.9, 1.9, 7)]


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


def _model(data):
    return (data["lin"], data["zsets"], data["terminal"], data["Q"],
            data["rho"])


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
    monkeypatch.setattr(closedloop_module, "heads",
                        lambda x, seqs, *args: [-np.inf] * len(seqs))


def _without_kills(monkeypatch):
    # the incumbent is still the least violated at z_u
    cuts = solver_module.cuts
    monkeypatch.setattr(closedloop_module, "cuts", lambda *args: [
        (worst, -np.inf) for worst, _ in cuts(*args)])


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
    # for bit, alone or followed by region e2's rows (C (A_hat x) there,
    # (C A_hat) x in a block) to 1e-12
    data, catalog = pruned[name]
    checked = 0
    for x in GRID:
        st = _at(data, x, 3)
        for e1, e2 in _heads(data, catalog, x):
            a, c = solver_module._lines(st, e1, e2)
            ref_a, ref_c = _one_step_lines(data, x, e1, e2)
            own = len(stage_lines(data["zsets"][e1 - 1], x)[0])
            assert a.shape == ref_a.shape and c.shape == ref_c.shape
            assert np.array_equal(a[:own], ref_a[:own])
            assert c[:own].tobytes() == ref_c[:own].tobytes()
            assert np.allclose(a[own:], ref_a[own:], rtol=0.0, atol=1e-12)
            assert np.allclose(c[own:], ref_c[own:], rtol=0.0, atol=1e-12)
            alone_a, alone_c = solver_module._lines(st, e1)
            assert alone_a.tobytes() == a[:own].tobytes()
            assert alone_c.tobytes() == c[:own].tobytes()
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
            assert abs(solver_module._lowest_max(a, c) - res.fun) <= 1e-9
            # the bound sits below the min-max by its rounding allowance
            allowance = 1e-9 * (1.0 + np.abs(c).max())
            bound = _one_step(data, x, 3, head)
            assert abs(bound + allowance - res.fun) <= 1e-9
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_one_step_screened_candidates_are_infeasible(pruned, name):
    data, catalog = pruned[name]
    n_screened = 0
    for x in GRID:
        for seq in cn.filter_for_state(catalog, data["spec"], x):
            bound = _one_step(data, x, 3, seq[:2])
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
                        exc.details["n_killed"]))
            continue
        statuses = [status for _, status, _ in step.per_scenario]
        assert step.n_screened == statuses.count("Screened")
        assert step.n_dominated == statuses.count("Dominated")
        assert (step.n_scenarios_solved + step.n_screened + step.n_dominated
                == len(statuses))
        assert step.n_killed <= step.n_dominated
        out.append((step.j_star, step.u, step.V, step.n_screened,
                    step.n_killed))
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


# ---------------------------------------------------------------------------
# online: closed-form kills
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep(request):
    """The packaged systems with N=6 catalogs: more candidates per state,
    and more with an Optimal solve, than at N=3."""
    out = {}
    for name in SYSTEMS:
        data = request.getfixturevalue(name)
        out[name] = (data, _prune(data, 6))
    return out


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_kills_keep_decisions(deep, monkeypatch, name):
    data, catalog = deep[name]
    killed = _decisions(data, catalog)
    _without_kills(monkeypatch)
    plain = _decisions(data, catalog)
    assert [d[:-1] for d in killed] == [d[:-1] for d in plain]
    assert sum(d[-1] for d in killed) > 0
    assert sum(d[-1] for d in plain) == 0


def _kill_reference(prog, tau):
    """(worst, kill) of one assembled program, straight from its cost and
    its constraints: its largest value at z_u = -H^-1 f / 2, and the
    largest V_u - tau + ((g - tau) / ||grad g||_{H^-1})^2 over its rows
    with g > tau, with the rounding allowance of solver.cuts."""
    z_u = np.linalg.solve(prog.H, -0.5 * prog.f)
    V_u = prog.objective_value(z_u)
    g, G = prog.constraint_values(z_u), prog.cons.grads(z_u)
    norms = np.sqrt(np.einsum("ij,ji->i", G, np.linalg.solve(prog.H, G.T)))
    over = g - 1e-9 * (1.0 + np.abs(g)) - tau
    reach = max(((o / n) ** 2 for o, n in zip(over, norms) if o > 0),
                default=-np.inf)
    return (max(prog.pre_violation, g.max()),
            V_u - 1e-9 * (1.0 + abs(V_u)) - tau + (1.0 - 1e-9) * reach)


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
def test_kill_bounds_are_those_of_the_assembled_programs(deep, name):
    # the per-block bounds, from the stage sets' values at the stage
    # points of z_u, combine into each candidate's, to rounding
    data, catalog = deep[name]
    cfg = cn.SolverConfig()
    tau = cfg.feas_tol + solver_module.RELAX_PAD
    n_kills = 0
    for x in GRID:
        seqs = cn.filter_for_state(catalog, data["spec"], x)
        if len(seqs) < 2:
            continue
        for seq, (worst, kill) in zip(seqs, solver_module.cuts(
                x, seqs, *_model(data), cfg)):
            ref_worst, ref_kill = _kill_reference(
                cn.assemble(seq, x, *_model(data)), tau)
            assert np.isclose(worst, ref_worst, rtol=1e-12, atol=1e-12)
            assert np.isclose(kill, ref_kill, rtol=1e-9, atol=1e-12)
            n_kills += np.isfinite(kill)
    assert n_kills > 0


@pytest.mark.parametrize("name", SYSTEMS, ids=IDS.get)
@settings(max_examples=30, deadline=None)
@given(where=hst.tuples(hst.floats(0.0, 1.0), hst.floats(0.0, 1.0)),
       share=hst.floats(0.0, 1.0))
def test_killed_candidates_cannot_win(deep, name, where, share):
    # at a state of the state set (its bounding box, filtered by the
    # catalog's first regions) and a bound B between the least and the
    # largest Optimal V of the candidates solved alone, every candidate
    # whose kill bound exceeds B, solved alone, is not Optimal or has V > B
    data, catalog = deep[name]
    lo, hi = data["spec"].bounding_box()
    x = lo + np.array(where) * (hi - lo)
    seqs = cn.filter_for_state(catalog, data["spec"], x)
    sols = [cn.solve(cn.assemble(seq, x, *_model(data))) for seq in seqs]
    values = [sol.V for sol in sols if sol.optimal]
    if not values:
        return
    bound = min(values) + share * (max(values) - min(values))
    cuts = solver_module.cuts(x, seqs, *_model(data), cn.SolverConfig())
    for (_, kill), sol in zip(cuts, sols):
        if bound < kill:
            assert not sol.optimal or sol.V > bound


def test_nonconvex_data_gets_no_kill(ex1):
    # ex1 has one stage set, so one candidate per state, which is never
    # cut: its sequence taken twice gets no kill, although its terminal
    # set alone would give one at some states
    catalog = _prune(ex1, 5)
    tau = cn.SolverConfig().feas_tol + solver_module.RELAX_PAD
    n_checked = n_terminal = 0
    for x in GRID:
        for seq in cn.filter_for_state(catalog, ex1["spec"], x):
            cuts = solver_module.cuts(x, [seq, seq], *_model(ex1),
                                      cn.SolverConfig())
            assert [kill for _, kill in cuts] == [-np.inf, -np.inf]
            n_terminal += _at(ex1, x, 5).kills(tau)[3] > -np.inf
            n_checked += 1
    assert n_checked > 0 and n_terminal > 0


def test_heads_of_nonconvex_data_are_the_one_step_bounds(ex1):
    catalog = _prune(ex1, 5)
    for x in GRID:
        seqs = cn.filter_for_state(catalog, ex1["spec"], x)
        assert solver_module.heads(x, seqs, *_model(ex1)) == [
            _one_step(ex1, x, 5, seq[:2]) for seq in seqs]


@pytest.mark.parametrize("name", ("ex1",) + SYSTEMS, ids=IDS.get)
def test_head_programs_match_hand_built(request, monkeypatch, name):
    # the constraints of every pair the transition bounds test, on the
    # free-x0 horizon 2, are the hand-built ones, array for array (None
    # for the nonconvex ex1)
    data = request.getfixturevalue(name)
    built = []

    def recorded(st, head):
        got = head_constraints(st, head)
        built.append((got, hand_built_head_constraints(st, head)))
        return got

    head_constraints = solver_module._head_constraints
    monkeypatch.setattr(solver_module, "_head_constraints", recorded)
    monkeypatch.setattr(solver_module, "_HORIZONS", {})  # not cached
    _transitions(data)
    assert len(built) == data["spec"].n_regions ** 2
    assert any(cons is not None for cons, _ in built) == (name != "ex1")
    for cons, ref in built:
        if cons is None:
            assert ref is None
            continue
        for field in cons.__dataclass_fields__:
            got, want = getattr(cons, field), getattr(ref, field)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field


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
