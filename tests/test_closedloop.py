import dataclasses
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convexnmpc as cn
from convexnmpc import closedloop
from convexnmpc.geometry import MEMBERSHIP_TOL
from convexnmpc.solver import cuts, heads

BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"


def _modules(data, catalog):
    return dict(catalog=catalog, spec=data["spec"], lin=data["lin"],
                zsets=data["zsets"], terminal=data["terminal"], Q=data["Q"],
                rho=data["rho"])


class TestEvaluate:
    def test_equilibrium(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        step = cn.evaluate_ocp(np.zeros(2), m["catalog"], m["spec"],
                               m["lin"], m["zsets"], m["terminal"], m["Q"],
                               m["rho"])
        assert abs(step.u) <= 1e-7
        assert abs(step.V) <= 1e-10
        assert step.j_star == 1

    def test_interior_state_picks_first_region_scenario(self, ex2,
                                                        ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        step = cn.evaluate_ocp(np.array([0.5, 0.5]), m["catalog"], m["spec"],
                               m["lin"], m["zsets"], m["terminal"], m["Q"],
                               m["rho"])
        coeffs = cn.decode(step.j_star, 3, 15)
        assert coeffs[0] == 1
        assert m["spec"].u_lo - 1e-9 <= step.u <= m["spec"].u_hi + 1e-9

    def test_infeasible_state_raises(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        with pytest.raises(cn.InfeasibleStateError):
            cn.evaluate_ocp(np.array([1.95, 1.95]), m["catalog"], m["spec"],
                            m["lin"], m["zsets"], m["terminal"], m["Q"],
                            m["rho"])

    def test_order_insensitive_selection(self, ex2, ex2_catalog_n15):
        # permuting the stored sequence order must not change the outcome
        m = _modules(ex2, ex2_catalog_n15)
        x = np.array([-0.9, 0.8])  # inside the second slab
        base = cn.evaluate_ocp(x, m["catalog"], m["spec"], m["lin"],
                               m["zsets"], m["terminal"], m["Q"], m["rho"])
        rng = np.random.default_rng(5)
        seqs = list(m["catalog"].sequences(15))
        rng.shuffle(seqs)
        shuffled = dataclasses.replace(
            m["catalog"], levels={**m["catalog"].levels, 15: tuple(seqs)})
        again = cn.evaluate_ocp(x, shuffled, m["spec"], m["lin"], m["zsets"],
                                m["terminal"], m["Q"], m["rho"])
        assert again.j_star == base.j_star
        assert again.u == base.u
        assert again.V == base.V

    def test_iter_limit_candidates_are_counted_not_chosen(self, ex2):
        # at this state the three candidates need 65 (Infeasible), 119 and
        # 124 Newton steps; the second is the incumbent, taken first (it is
        # feasible, so its cut test at B = inf certifies nothing) and
        # solved, and the third, the best, lies below it, so no cut
        # certifies it. A budget of 120 fits the second alone. The first
        # one's one-step bound (0.0388) screens it before any Newton step,
        # so it is never undecided
        seqs = tuple((2,) * k + (1,) * (15 - k) for k in (1, 5, 6))
        catalog = cn.FeasibleCatalog(s=3, N=15, levels={15: seqs},
                                     feas_tol=1e-7, terminal_kind="ellipsoid",
                                     content_hash="")
        m = _modules(ex2, catalog)
        x = np.array([-1.2, 0.6])

        def evaluate(max_newton):
            return cn.evaluate_ocp(x, *m.values(),
                                   cfg=cn.SolverConfig(max_newton=max_newton))

        full, capped = evaluate(500), evaluate(120)
        assert (full.n_undecided, capped.n_undecided) == (0, 1)
        assert (full.n_screened, capped.n_screened) == (1, 1)
        assert full.n_dominated == capped.n_dominated == 0
        # the budget runs out at the 121st step
        assert (full.n_newton, capped.n_newton) == (119 + 124, 119 + 121)
        assert full.j_star == cn.encode(seqs[2], 3)
        assert capped.j_star == cn.encode(seqs[1], 3)
        assert capped.V > full.V
        with pytest.raises(cn.InfeasibleStateError) as info:
            evaluate(5)
        assert info.value.details["n_undecided"] == 2
        assert info.value.details["n_screened"] == 1

    def test_gain_sign_flip_saturates_input(self, ex2, ex2_catalog_n15):
        """Approaching the gain-zero facet from either side drives the input
        toward opposite extremes; it flips sign across the facet."""
        m = _modules(ex2, ex2_catalog_n15)

        def u_at(t):
            return cn.evaluate_ocp(np.array([t, -t]), m["catalog"],
                                   m["spec"], m["lin"], m["zsets"],
                                   m["terminal"], m["Q"], m["rho"]).u

        left = [u_at(t) for t in (0.64, 0.66, 0.665)]
        right = [u_at(t) for t in (0.675, 0.67, 0.668)]
        assert all(u > 0 for u in left)
        assert all(u < 0 for u in right)
        assert left == sorted(left)            # grows toward the facet
        assert right == sorted(right, reverse=True)


class TestSimulate:
    def test_stationary_at_origin(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        traj = cn.simulate(np.zeros(2), 5, m["catalog"], m["spec"], m["lin"],
                           m["zsets"], m["terminal"], m["Q"], m["rho"])
        assert np.max(np.abs(traj.u)) <= 1e-7
        assert np.max(np.abs(traj.x)) <= 1e-6

    def test_descent_and_constraints(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        traj = cn.simulate(np.array([1.0, 1.0]), 40, m["catalog"], m["spec"],
                           m["lin"], m["zsets"], m["terminal"], m["Q"],
                           m["rho"])
        spec = m["spec"]
        for k in range(traj.steps):
            assert spec.in_state_set(traj.x[k], 1e-8)
            assert spec.u_lo - 1e-8 <= traj.u[k] <= spec.u_hi + 1e-8
            stage = float(traj.x[k] @ m["Q"] @ traj.x[k]) \
                + m["rho"] * traj.v[k] ** 2
            if k + 1 < traj.steps:
                assert traj.V[k + 1] <= traj.V[k] - stage + 1e-6
        assert np.linalg.norm(traj.x[-1]) < np.linalg.norm(traj.x[0])

    def test_second_region_is_never_reentered(self, ex2, ex2_catalog_n15):
        # trajectories may start in the second slab but, once out, the weak
        # gain near the facet cannot push them back
        m = _modules(ex2, ex2_catalog_n15)
        traj = cn.simulate(np.array([-1.2, 1.2]), 40, m["catalog"],
                           m["spec"], m["lin"], m["zsets"], m["terminal"],
                           m["Q"], m["rho"])
        regions = [cn.region_membership(m["spec"], x, 1e-8)
                   for x in traj.x]
        left_at = None
        for k, mem in enumerate(regions):
            if 2 not in mem and left_at is None:
                left_at = k
            if left_at is not None:
                assert 2 not in mem
        assert left_at is not None  # it does leave in 40 steps

    def test_infeasible_start_propagates_with_step_index(self, ex2,
                                                         ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        with pytest.raises(cn.InfeasibleStateError) as info:
            cn.simulate(np.array([1.95, 1.95]), 3, m["catalog"], m["spec"],
                        m["lin"], m["zsets"], m["terminal"], m["Q"],
                        m["rho"])
        assert info.value.step == 0
        assert info.value.partial.steps == 0

    def test_csv_format(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        traj = cn.simulate(np.array([0.3, 0.3]), 3, m["catalog"], m["spec"],
                           m["lin"], m["zsets"], m["terminal"], m["Q"],
                           m["rho"])
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "k,x1,x2,u,v,V,j_star"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.3


# ex2 starts for 10-step closed loops; the first three have Dominated
# candidates at some steps
LOOP_STARTS = ([-1.2, 1.2], [-0.9, 0.8], [-1.5, 0.3], [1.0, 1.0],
               [1.3, -0.4], [-1.375, 1.625])


def _recorded_simulate(monkeypatch, m, x0, steps):
    """simulate from x0, with (x, step result) of each of its evaluate_ocp
    calls."""
    calls, inner = [], closedloop.evaluate_ocp

    def recorded(x, *args, **kwargs):
        step = inner(x, *args, **kwargs)
        calls.append((np.array(x), step))
        return step

    monkeypatch.setattr(closedloop, "evaluate_ocp", recorded)
    traj = cn.simulate(np.array(x0), steps, *m.values())
    monkeypatch.setattr(closedloop, "evaluate_ocp", inner)
    return traj, calls


def _incumbent(m, cfg, x):
    """The candidate sequences at x, the indices of those that the
    one-step bound does not screen, as in evaluate_ocp, and the
    incumbent's index (None without an unscreened candidate): the least
    worst value at z_u of solver.cuts, ties to the smaller index."""
    seqs = cn.filter_for_state(m["catalog"], m["spec"], x)
    args = (m["lin"], m["zsets"], m["terminal"], m["Q"], m["rho"])
    live = [i for i, low in enumerate(heads(x, seqs, *args))
            if low <= cfg.feas_tol]
    worst = dict(zip(live, (w for w, _ in cuts(
        x, [seqs[i] for i in live], *args, cfg))))
    return seqs, live, min(worst, key=worst.get, default=None)


def _alone(m, cfg, x):
    """Each candidate at x: None when its one-step bound screens it, and
    otherwise its solve alone; with the sequences and the incumbent's
    index (_incumbent)."""
    seqs, live, first = _incumbent(m, cfg, x)
    args = (m["lin"], m["zsets"], m["terminal"], m["Q"], m["rho"])
    sols = [cn.solve(cn.assemble(seqs[i], x, *args), cfg) if i in live
            else None for i in range(len(seqs))]
    return seqs, sols, first


def _check_dominated(per, seqs, sols, first, s=3, step=None):
    """Replay evaluate_ocp's loop over the entries per: the incumbent
    (index first, None if there is none), then the others in index order,
    with the running bound B (+inf, then min V + TIE_TOL over the Optimal
    ones solved so far) taken from their solves alone (sols). Every entry
    that is not Dominated is as if solved alone, and every Dominated one,
    solved alone, ends non-Optimal or has V > B at its turn (at B = +inf,
    the incumbent's included, it ends non-Optimal). With the step result,
    the decision is that of solving every unscreened candidate. The
    number of Dominated ones."""
    bound, n = np.inf, 0
    for i in sorted(range(len(seqs)), key=lambda i: i != first):
        (j, status, V), sol = per[i], sols[i]
        assert j == cn.encode(seqs[i], s)
        if status == "Dominated":
            assert not sol.optimal or sol.V > bound
            n += 1
        elif sol is None:
            assert status == "Screened"
        else:
            assert status == sol.status
            assert V == sol.V or (np.isnan(V) and np.isnan(sol.V))
            if sol.optimal:
                bound = min(bound, sol.V + closedloop.TIE_TOL)
    if step is not None:
        assert step.n_dominated == n
        assert step.n_scenarios_solved + step.n_screened + n == len(seqs)
        best = sols[closedloop.applied_candidate(sols)]
        assert (step.j_star, step.v, step.V) == (
            best.scenario_j, best.v_seq[0], best.V)
    return n


class TestDominance:
    def test_simulate_applies_what_cold_queries_apply(self, monkeypatch, ex2,
                                                      ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        n_dominated = n_cold = 0
        for x0 in LOOP_STARTS:
            traj, calls = _recorded_simulate(monkeypatch, m, x0, 10)
            for k, (x, step) in enumerate(calls):
                assert np.array_equal(x, traj.x[k])
                cold = cn.evaluate_ocp(x, *m.values())
                assert (cold.j_star, cold.u, cold.V) == (
                    traj.j_star[k], traj.u[k], traj.V[k])
                n_dominated += step.n_dominated
                n_cold += cold.n_dominated
        assert n_dominated > 0 and n_cold > 0

    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_cold_dominated_candidates_cannot_win(self, request, name):
        # cold queries at benchmark pool states (one loop-ex2 start in 2,
        # one query-ex3 state in 4): the incumbent first, then the others
        # in index order, each cut-tested under the running bound, which
        # stays inf at the states with no winner; on ex2 the incumbent is
        # not applied at some states, so some cuts are made at a bound that
        # is not the least V
        data = request.getfixturevalue(name)
        catalog = cn.FeasibleCatalog.load(BENCH_DATA
                                          / f"{name}_N15_catalog.json")
        pool, every = {"ex2": ("loop-ex2", 2), "ex3": ("query-ex3", 4)}[name]
        entries = json.loads((BENCH_DATA / "reference.json").read_text())[
            "pools"][pool][::every]
        m = _modules(data, catalog)
        cfg = cn.SolverConfig()
        n_checked = n_infeasible = n_no_winner = n_lost = 0
        for entry in entries:
            x = np.array(entry["x0"], dtype=float)
            seqs, sols, first = _alone(m, cfg, x)
            try:
                step = cn.evaluate_ocp(x, *m.values(), keep_per_scenario=True)
            except cn.InfeasibleStateError as exc:
                # no winner: B stays inf, and a Dominated candidate, solved
                # alone, is not Optimal either
                assert not any(sol is not None and sol.optimal
                               for sol in sols)
                n_no_winner += _check_dominated(
                    exc.details["per_scenario"], seqs, sols, first,
                    catalog.s)
                n_infeasible += 1
                continue
            n_checked += _check_dominated(step.per_scenario, seqs, sols,
                                          first, catalog.s, step)
            n_lost += cn.encode(seqs[first], catalog.s) != step.j_star
        assert n_checked > 0
        assert n_lost > 0 or name == "ex3"
        assert n_infeasible > 0 or name == "ex2"
        assert n_no_winner > 0 or name == "ex2"

    def test_no_winner_details_count_the_cuts_and_solves(self, monkeypatch,
                                                         ex3):
        # at the first query-ex3 pool state with no Optimal candidate and a
        # Dominated one, the error's details hold the counts a step result
        # holds: the Dominated candidates, those of them killed in closed
        # form, and the Newton steps of the solves and of the cut tests, as
        # read by wrapping those calls. The incumbent takes the cut test at
        # B = inf like the others, so it is Dominated and nothing is solved
        catalog = cn.FeasibleCatalog.load(BENCH_DATA / "ex3_N15_catalog.json")
        m = _modules(ex3, catalog)
        entries = json.loads((BENCH_DATA / "reference.json").read_text())[
            "pools"]["query-ex3"]
        steps = {"solve": 0, "dominated": 0, "cut": 0}
        solve, dominated = closedloop.solve, closedloop.dominated

        def counted_solve(*args):
            sol = solve(*args)
            steps["solve"] += sol.n_newton
            return sol

        def counted_dominated(*args):
            gone, n = dominated(*args)
            steps["dominated"] += n
            steps["cut"] += gone
            return gone, n

        monkeypatch.setattr(closedloop, "solve", counted_solve)
        monkeypatch.setattr(closedloop, "dominated", counted_dominated)
        for entry in entries:
            steps.update(solve=0, dominated=0, cut=0)
            try:
                cn.evaluate_ocp(np.array(entry["x0"], dtype=float),
                                *m.values(), keep_per_scenario=True)
            except cn.InfeasibleStateError as exc:
                details = exc.details
                if details["n_dominated"]:
                    break
        else:
            pytest.fail("no pool state without a winner has a Dominated "
                        "candidate")
        statuses = [status for _, status, _ in details["per_scenario"]]
        assert details["n_dominated"] == statuses.count("Dominated")
        assert details["n_dominated"] == details["n_killed"] + steps["cut"]
        assert details["n_newton"] == steps["solve"]
        assert details["n_cut_newton"] == steps["dominated"] > 0
        _, _, first = _incumbent(m, cn.SolverConfig(),
                                 np.array(entry["x0"], dtype=float))
        assert statuses[first] == "Dominated"
        assert set(statuses) <= {"Screened", "Dominated"}

    def test_undominated_candidates_are_as_if_solved_alone(self, ex2,
                                                           ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        cfg = cn.SolverConfig()
        n_dominated = 0
        for x in (np.array([-1.2, 1.2]), np.array([-1.5, 0.3])):
            step = cn.evaluate_ocp(x, *m.values(), keep_per_scenario=True)
            seqs, sols, first = _alone(m, cfg, x)
            n_dominated += _check_dominated(step.per_scenario, seqs, sols,
                                            first, step=step)
        assert n_dominated > 0


def _sols(values):
    """Stand-ins for solutions: None (screened), or Optimal with value V,
    or undecided (V None); scenario_j is the position plus 1."""
    return [None if v == "screened" else
            SimpleNamespace(optimal=v is not None, scenario_j=j,
                            V=float("nan") if v is None else v)
            for j, v in enumerate(values, start=1)]


def _applied_j(sols):
    best = closedloop.applied_candidate(sols)
    return None if best is None else sols[best].scenario_j


class TestTieRule:
    def test_bounds_from_later_candidates_are_exact(self, monkeypatch):
        monkeypatch.setattr(closedloop, "TIE_TOL", 1.0)
        sols = _sols([4.0, 2.1, 1.6, 0.9, 0.0])
        assert closedloop.applied_candidate(sols) == 3  # index 4
        # index 4 is the smallest within TIE_TOL of the least value, so
        # leaving out index 2 (2.1) changes nothing, where a scan that
        # replaces its best only below V_best - TIE_TOL would then apply
        # index 5
        sols[1] = None
        assert closedloop.applied_candidate(sols) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 8), st.none(),
                              st.just("screened")), min_size=1, max_size=8),
           st.sets(st.integers(0, 7)))
    def test_dominated_candidates_never_change_the_scan(self, ticks, first):
        # values a half TIE_TOL apart, so ties and near-ties are common
        values = [t * 0.5 * closedloop.TIE_TOL if isinstance(t, int) else t
                  for t in ticks]
        sols = _sols(values)
        first = [c for c in sorted(first)
                 if c < len(sols) and sols[c] is not None and sols[c].optimal]
        kept = [None if d not in first and sol is not None and sol.optimal
                and any(c < d and sol.V >= sols[c].V for c in first)
                else sol for d, sol in enumerate(sols)]
        applied = closedloop.applied_candidate
        assert applied(kept) == applied(sols)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 4),
                              st.none(), st.just("screened")),
                    min_size=2, max_size=8))
    @example([3, 2, 0])
    def test_losers_at_any_index_never_change_the_applied_scenario(
            self, ticks):
        # deleting a candidate that is not Optimal, or whose V exceeds
        # V_min + TIE_TOL, from anywhere in the list; each alone, then
        # all. At [3, 2, 0] a scan that replaces its best only below
        # V_best - TIE_TOL applies the 0 only while the 3 is there
        values = [t * 0.5 * closedloop.TIE_TOL if isinstance(t, int) else t
                  for t in ticks]
        sols = _sols(values)
        optimal = [sol.V for sol in sols if sol is not None and sol.optimal]
        top = min(optimal, default=np.inf) + closedloop.TIE_TOL
        losers = [d for d, sol in enumerate(sols)
                  if sol is None or not sol.optimal or sol.V > top]
        for gone in [[d] for d in losers] + [losers]:
            kept = [sol for d, sol in enumerate(sols) if d not in gone]
            assert _applied_j(kept) == _applied_j(sols)


class TestGrid:
    def test_resolution_two_gives_corners(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        table = cn.sample_grid(2, m["catalog"], m["spec"], m["lin"],
                               m["zsets"], m["terminal"], m["Q"], m["rho"])
        assert table.points.shape == (4, 2)
        corners = {tuple(p) for p in table.points}
        assert corners == {(-2.0, -2.0), (-2.0, 2.0), (2.0, -2.0),
                           (2.0, 2.0)}
        # corners lie on the gain-zero diagonal or deep in the slabs; the
        # sentinel convention must hold wherever infeasible
        for k in range(4):
            if not table.feasible[k]:
                assert np.isnan(table.u_star[k])
                assert np.isnan(table.V_star[k])
                assert table.j_star[k] == 0

    def test_grid_matches_pointwise_evaluation(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        table = cn.sample_grid(5, m["catalog"], m["spec"], m["lin"],
                               m["zsets"], m["terminal"], m["Q"], m["rho"])
        for k, x in enumerate(table.points):
            if not table.feasible[k]:
                continue
            step = cn.evaluate_ocp(x, m["catalog"], m["spec"], m["lin"],
                                   m["zsets"], m["terminal"], m["Q"],
                                   m["rho"])
            assert step.u == table.u_star[k]
            assert step.V == table.V_star[k]
            assert step.j_star == table.j_star[k]

    def test_csv_columns(self, ex2, ex2_catalog_n15):
        m = _modules(ex2, ex2_catalog_n15)
        table = cn.sample_grid(3, m["catalog"], m["spec"], m["lin"],
                               m["zsets"], m["terminal"], m["Q"], m["rho"],
                               keep_per_scenario=True)
        lines = table.to_csv().strip().split("\n")
        head = lines[0].split(",")
        assert head[:6] == ["x1", "x2", "feasible", "u_star", "V_star",
                            "j_star"]
        assert any(c.startswith("feas_j") for c in head)
        assert len(lines) == 10

    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_per_scenario_columns_match_solves_alone(self, request, name):
        # a Dominated candidate is left unsolved by evaluate_ocp, yet its
        # feas_j column says whether it is Optimal when solved alone
        data = request.getfixturevalue(name)
        catalog = request.getfixturevalue(f"{name}_catalog_n15")
        m = _modules(data, catalog)
        table = cn.sample_grid(5, *m.values(), keep_per_scenario=True)
        want, n_dominated = {}, 0
        for k, x in enumerate(table.points):
            if not table.feasible[k]:
                continue
            if not n_dominated:
                n_dominated = cn.evaluate_ocp(x, *m.values()).n_dominated
            for seq in cn.filter_for_state(catalog, data["spec"], x):
                sol = cn.solve(cn.assemble(seq, x, data["lin"], data["zsets"],
                                           data["terminal"], data["Q"],
                                           data["rho"]))
                column = want.setdefault(cn.encode(seq, catalog.s),
                                         np.zeros(len(table.points), int))
                column[k] = int(sol.optimal)
        assert n_dominated > 0
        assert table.to_csv() == dataclasses.replace(
            table, per_scenario=want).to_csv()

    def test_point_outside_the_state_set_is_a_sentinel_row(self, ex2,
                                                           ex2_catalog_n15):
        # no region holds it within MEMBERSHIP_TOL, so there is no
        # candidate and the row is the infeasible sentinel, with no
        # per-scenario entry
        m = _modules(ex2, ex2_catalog_n15)
        x = np.array([2.0 + 1e-7, 0.0])
        assert not m["spec"].in_state_set(x, MEMBERSHIP_TOL)
        for keep in (False, True):
            feasible, u, V, j, per = closedloop._grid_point(
                x, *m.values(), cn.SolverConfig(), keep)
            assert (feasible, j, per) == (0, 0, [])
            assert np.isnan(u) and np.isnan(V)

    def test_parallel_grid_matches_serial(self, ex3, ex3_catalog_n15):
        m = _modules(ex3, ex3_catalog_n15)
        serial = cn.sample_grid(3, m["catalog"], m["spec"], m["lin"],
                                m["zsets"], m["terminal"], m["Q"], m["rho"],
                                n_workers=1)
        parallel = cn.sample_grid(3, m["catalog"], m["spec"], m["lin"],
                                  m["zsets"], m["terminal"], m["Q"],
                                  m["rho"], n_workers=2)
        assert np.array_equal(serial.feasible, parallel.feasible)
        assert np.array_equal(serial.u_star, parallel.u_star,
                              equal_nan=True)
