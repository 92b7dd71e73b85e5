import dataclasses

import numpy as np
import pytest

import convexnmpc as cn


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
        # at this state the three candidates need 61 (Infeasible), 114 and
        # 21 Newton steps; only the last, and best, one fits a budget of 50.
        # The first one's one-step bound (0.0203) screens it before any
        # Newton step, so it is never undecided
        seqs = tuple((2,) * k + (1,) * (15 - k) for k in (1, 2, 3))
        catalog = cn.FeasibleCatalog(s=3, N=15, levels={15: seqs},
                                     feas_tol=1e-7, terminal_kind="ellipsoid",
                                     content_hash="")
        m = _modules(ex2, catalog)
        x = np.array([-0.9, 0.8])

        def evaluate(max_newton):
            return cn.evaluate_ocp(x, *m.values(),
                                   cfg=cn.SolverConfig(max_newton=max_newton))

        full, capped = evaluate(500), evaluate(50)
        assert (full.n_undecided, capped.n_undecided) == (0, 1)
        assert (full.n_screened, capped.n_screened) == (1, 1)
        # the budget runs out at the 51st step; the two solves share rounds
        assert (full.n_newton, capped.n_newton) == (114 + 21, 51 + 21)
        assert 114 < full.n_rounds < full.n_newton
        assert full.j_star == cn.encode(seqs[2], 3)
        assert (capped.j_star, capped.u, capped.V) == (full.j_star, full.u,
                                                       full.V)
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
