"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 3 contains a sub-check, the one-way transition property, that is
asserted exactly as specified and is expected to fail: the produced catalog
reproduces the reference count of 31 exactly, but its feasible sequences
leave region 2 (transitions 2 -> 1) and never enter it (no 1 -> 2), which is
the mirror of the specified direction. The mirror direction is provably
forced by the dynamics: crossing into region 2 requires pushing the
difference coordinate through a facet where the input gain vanishes while
the drift contracts that coordinate away from the facet. See the companion
test for the direction that does hold, and notes/decisions.md in the
repository history for the full analysis.
"""
import numpy as np
import pytest

import convexnmpc as cn
from helpers import (brute_force_level, grid_minimize, random_instance,
                     stage_set_members)

A_REF = np.array([[1.0, 0.1], [0.1, 1.0]])


def _line(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_linearization_golden_values(ex2):
    lin, rho = ex2["lin"], ex2["rho"]
    checks = {
        "beta": abs(lin.beta - 0.024) <= 1e-12,
        "b_hat": bool(np.all(np.abs(lin.b_hat - [0.0416667, 0.2083333])
                             <= 1e-6)),
        "A_hat": float(np.max(np.abs(lin.A_hat - A_REF))) <= 1e-10,
        "alpha": float(np.max(np.abs(lin.alpha))) <= 1e-10,
        "rho": abs(rho - 1.7361) <= 1e-3,
    }
    _line(1, all(checks.values()),
          "linearization golden values " + str(checks))
    assert all(checks.values()), checks


def test_criterion_2_single_region_example(ex1):
    cat = cn.prune_catalog(ex1["spec"], ex1["lin"], ex1["zsets"],
                           ex1["terminal"], 15)
    prog = cn.assemble((1,) * 15, None, ex1["lin"],
                       ex1["zsets"], ex1["terminal"], ex1["Q"], ex1["rho"])
    ok = (cat.count() == 1 and cat.sequences(15) == ((1,) * 15,)
          and prog.prog_class == "QCQP")
    _line(2, ok, f"single-region count={cat.count()} class={prog.prog_class}")
    assert cat.count() == 1
    assert cat.sequences(15) == ((1,) * 15,)
    assert prog.prog_class == "QCQP"


def test_criterion_3_feasibility_count(ex2_catalog_n15):
    cat = ex2_catalog_n15
    count = cat.count()
    in_window = 25 <= count <= 40
    marker = "PASS" if count == 31 else ("INFO" if in_window else "FAIL")
    _line(3, in_window,
          f"horizon-15 feasible count = {count} (reference 31, "
          f"window [25, 40], marker {marker}); "
          f"tol={cat.feas_tol} terminal={cat.terminal_kind} recorded")
    assert in_window, f"count {count} outside [25, 40]"
    assert cat.feas_tol == 1e-7
    assert cat.terminal_kind == "ellipsoid"
    assert cat.content_hash


def test_criterion_3_one_way_property_as_specified(ex2_catalog_n15):
    """Specified direction: no feasible sequence leaves region 2, i.e. no
    eps_k = 2 followed by eps_{k+1} in {1, 3}.

    Expected to fail: the dynamics force the mirror direction (region 2 can
    only be left, never entered); see the module docstring.
    """
    offending = [seq for seq in ex2_catalog_n15.sequences(15)
                 if any(a == 2 and b in (1, 3)
                        for a, b in zip(seq[:-1], seq[1:]))]
    _line("3b", not offending,
          f"one-way property as specified: {len(offending)} feasible "
          "sequences leave region 2 (spec direction is the mirror of the "
          "dynamics; see test docstring)")
    assert not offending, (
        f"{len(offending)} feasible sequences leave region 2 (e.g. "
        f"{offending[0]}). The catalog still reproduces the reference count "
        "of 31 exactly; the transition direction stated in the criterion is "
        "reversed relative to what the dynamics admit (entering region 2 "
        "from region 1 or 3 would need input authority exactly where the "
        "gain vanishes, while the drift strictly contracts the difference "
        "coordinate away from region 2). The direction that does hold is "
        "asserted in test_criterion_3_one_way_mirror_direction.")


def test_criterion_3_one_way_mirror_direction(ex2_catalog_n15):
    """Direction forced by the dynamics: region 2 (and 3) is never entered,
    and every feasible sequence is a dwell prefix followed by region 1."""
    seqs = ex2_catalog_n15.sequences(15)
    for seq in seqs:
        assert not any(a in (1, 3) and b == 2 for a, b in zip(seq, seq[1:]))
        assert not any(a in (1, 2) and b == 3 for a, b in zip(seq, seq[1:]))
        head = seq[0]
        dwell = 0
        for e in seq:
            if e == head:
                dwell += 1
            else:
                break
        assert set(seq[dwell:]) <= {1}
    _line("3c", True,
          "mirror one-way property holds: regions 2 and 3 are never entered")


def test_criterion_4_oracle_equivalence_small_scale(ex2, ex2_catalog_n3):
    expect = brute_force_level(ex2["spec"], ex2["lin"], ex2["zsets"],
                               ex2["terminal"], 3)
    pruned = list(ex2_catalog_n3.sequences(3))
    ok = pruned == expect
    _line("4a", ok, f"27-scenario brute force matches pruning "
                    f"({len(pruned)} survivors)")
    assert pruned == expect


def test_criterion_4_solver_matches_grid_oracle():
    rng = np.random.default_rng(77)
    kinds = ["affine", "quadratic", "sinusoid"]
    solved = trials = 0
    worst = 0.0
    while solved < 50 and trials < 120:
        trials += 1
        spec, lin, zsets, terminal, Q, rho = random_instance(
            rng, kinds[trials % 3])
        N = int(rng.integers(1, 3))
        x0 = rng.uniform(-0.3, 0.3, spec.n)
        prog = cn.assemble((1,) * N, x0, lin, zsets, terminal, Q, rho)
        sol = cn.solve(prog)
        step = 5e-3
        V_grid, _ = grid_minimize(prog, -4.0, 4.0, step)
        if not sol.optimal:
            assert not np.isfinite(V_grid)
            continue
        assert np.isfinite(V_grid)
        gnorm = float(np.linalg.norm(prog.objective_grad(sol.v_seq)))
        tol = max(1e-3, 2 * step * gnorm)
        assert abs(sol.V - V_grid) <= tol
        assert sol.max_constraint <= 1e-8
        worst = max(worst, abs(sol.V - V_grid))
        solved += 1
    ok = solved >= 50
    _line("4b", ok, f"{solved} random instances matched the grid oracle "
                    f"(worst gap {worst:.2e})")
    assert ok


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_criterion_5_exact_linearization_equivalence(name, request):
    data = request.getfixturevalue(name)
    spec, lin = data["spec"], data["lin"]
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    while checked < 1000:
        x = rng.uniform(-2, 2, spec.n)
        v = rng.uniform(-3, 3)
        if abs(float(spec.g.value(x))) <= cn.EPS_G:
            continue
        u = cn.u_of_v(lin, spec, x, v)
        err = float(np.max(np.abs(cn.dynamics_step(spec, x, u)
                                  - (lin.A_hat @ x + lin.b_hat * v))))
        worst = max(worst, err)
        checked += 1
    _line(5, worst <= 1e-9, f"{name}: worst equivalence error {worst:.2e}")
    assert worst <= 1e-9


@pytest.mark.parametrize("name", ["ex2", "ex3"])
def test_criterion_6_union_and_convexity_suites(name, request):
    data = request.getfixturevalue(name)
    spec, lin, zsets = data["spec"], data["lin"], data["zsets"]
    rng = np.random.default_rng(6)
    tol = 1e-8

    boundary_only = 0
    for _ in range(10_000):
        x = rng.uniform(-2.2, 2.2, 2)
        v = rng.uniform(-4, 4)
        if bool(cn.stage_membership(zsets, x, v, tol)) != \
                cn.in_union_direct(spec, lin, x, v, tol):
            z = np.concatenate([x, [v]])
            resid = min(np.min(np.abs(zs.constraints.values(z)))
                        for zs in zsets)
            assert resid <= 10 * tol
            boundary_only += 1

    for zs in zsets:
        members = stage_set_members(zs, rng)
        for k in range(min(1000, len(members) // 2)):
            mid = 0.5 * (members[2 * k] + members[2 * k + 1])
            assert zs.contains(mid[:2], mid[2], 1e-9)

    done = 0
    while done < 1000:
        x = rng.uniform(-2, 2, 2)
        if not cn.region_membership(spec, x, 0.0):
            continue
        u = rng.uniform(spec.u_lo, spec.u_hi)
        xf, v = cn.lemma1_forward(spec, lin, x, u)
        assert cn.stage_membership(zsets, xf, v, tol)
        u_back = cn.u_of_v(lin, spec, x, v)
        if abs(float(spec.g.value(x))) > cn.EPS_G:
            assert abs(u_back - u) <= 1e-10 * max(1.0, abs(u))
        else:
            assert u_back == 0.0
        done += 1
    _line(6, True, f"{name}: union equivalence (1e4 samples, "
                   f"{boundary_only} boundary-tolerance cases), midpoint "
                   "convexity (1e3 pairs), forward map and round trip clean")


def test_criterion_6_first_example_flagged_not_tested(ex1):
    report = cn.validate_assumption1(ex1["spec"], n_samples=128, seed=0)
    ok = not report.ok and any(v.kind == "convexity"
                               for v in report.violations)
    _line("6b", ok, "the shipped quadratic gain is flagged by the validator "
                    "(excluded from the convexity suite by design)")
    assert ok


def test_criterion_7_terminal_and_stability(ex2, ex3, ex2_catalog_n15):
    for name, data in (("ex2", ex2), ("ex3", ex3)):
        resid = cn.dare_residual(data["terminal"].P, data["lin"].A_hat,
                                 data["lin"].b_hat, data["Q"], data["rho"])
        assert resid <= 1e-10, name
        rep = cn.verify_terminal_axioms(data["terminal"], data["zsets"],
                                        data["Q"], data["rho"],
                                        n_samples=2000, seed=0)
        assert rep.ok, (name, rep.to_dict())

    spec, lin, zsets = ex2["spec"], ex2["lin"], ex2["zsets"]
    term, Q, rho = ex2["terminal"], ex2["Q"], ex2["rho"]
    rng = np.random.default_rng(0)
    starts = []
    while len(starts) < 20:
        x = rng.uniform(-2, 2, 2)
        if not spec.in_state_set(x, 0.0):
            continue
        try:
            cn.evaluate_ocp(x, ex2_catalog_n15, spec, lin, zsets, term,
                            Q, rho)
        except cn.InfeasibleStateError:
            continue
        starts.append(x)

    worst_final = 0.0
    for x0 in starts:
        traj = cn.simulate(x0, 100, ex2_catalog_n15, spec, lin, zsets,
                           term, Q, rho)
        norms = np.linalg.norm(traj.x, axis=1)
        assert norms.min() <= 1e-3, f"no convergence from {x0}"
        worst_final = max(worst_final, norms[-1])
        for k in range(traj.steps):
            assert spec.in_state_set(traj.x[k], 1e-8)
            assert spec.u_lo - 1e-8 <= traj.u[k] <= spec.u_hi + 1e-8
        assert np.all(np.diff(traj.V) <= 1e-6)
    _line(7, True, f"Riccati residuals, axioms, and 20 closed-loop runs "
                   f"clean (worst final norm {worst_final:.2e})")


def test_criterion_8_desk_scale_limits(ex3, ex3_catalog_n15, ex2,
                                       ex2_catalog_n15, tmp_path, capsys):
    count = ex3_catalog_n15.count()
    _line(8, True, f"stand-in gain surface gives {count} feasible scenarios "
                   "(reference 217 marked N-A: the published surface "
                   "definitions are unavailable); value-function surfaces "
                   "ship as CSV grids only")
    # the count is recorded, not asserted against the reference
    assert count > 0
    assert ex3_catalog_n15.content_hash

    # the comparison command marks the stand-in count N-A, never PASS/FAIL
    from convexnmpc.cli import run
    assert run(["repro", "ex3", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if "feasible scenarios" in l][0]
    assert "N-A" in row and "217" in row and str(count) in row

    table = cn.sample_grid(4, ex2_catalog_n15, ex2["spec"], ex2["lin"],
                           ex2["zsets"], ex2["terminal"], ex2["Q"],
                           ex2["rho"])
    path = tmp_path / "grid.csv"
    path.write_text(table.to_csv())
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,feasible,u_star,V_star,j_star"
    assert len(lines) == 17
