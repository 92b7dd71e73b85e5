import numpy as np
import pytest

import convexnmpc as cn
from convexnmpc.geometry import vertices
from convexnmpc.terminal import contraction
from helpers import sampled_terminal_axioms, toy_spec


class TestDare:
    def test_scalar_closed_form(self):
        # a=0.5, b=1, q=1, rho=1: positive root of p^2 - 0.25 p - 1 = 0
        P = cn.solve_dare(np.array([[0.5]]), np.array([1.0]),
                          np.array([[1.0]]), 1.0)
        expect = (0.25 + np.sqrt(4.0625)) / 2
        assert abs(P[0, 0] - expect) < 1e-10

    def test_zero_state_weight_gives_zero(self):
        P = cn.solve_dare(np.array([[0.5, 0.1], [0.0, 0.4]]),
                          np.array([1.0, 0.5]), np.zeros((2, 2)), 1.0)
        assert np.max(np.abs(P)) < 1e-12

    def test_reference_setup_residual(self, ex2):
        lin, Q, rho = ex2["lin"], ex2["Q"], ex2["rho"]
        P = ex2["terminal"].P
        assert cn.dare_residual(P, lin.A_hat, lin.b_hat, Q, rho) <= 1e-10
        assert np.max(np.abs(P - P.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10

    def test_closed_loop_schur_stable(self, ex2):
        assert np.max(np.abs(np.linalg.eigvals(ex2["terminal"].A_cl))) \
            < 1.0 - 1e-9

    def test_nonstabilizable_pair_raises(self):
        # integrator with no input authority and Q > 0 cannot converge
        with pytest.raises(cn.NoConvergenceError):
            cn.solve_dare(np.array([[2.0]]), np.array([0.0]),
                          np.array([[1.0]]), 1.0, max_iter=2000)

    def test_gain_formula(self, ex2):
        lin, rho = ex2["lin"], ex2["rho"]
        ti = ex2["terminal"]
        PB = ti.P @ lin.b_hat
        expect = -(lin.b_hat @ ti.P @ lin.A_hat) / (rho + lin.b_hat @ PB)
        assert np.allclose(ti.kappa, expect, atol=1e-14)


class TestMaximalAdmissibleSet:
    def _affine_pipeline(self, A, b, u=(-1.0, 1.0), box=1.0):
        spec = toy_spec(A, b, u=u, box=box)
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        return spec, lin, zsets

    def test_deadbeat_stops_immediately(self):
        spec, lin, zsets = self._affine_pipeline(
            np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])
        kappa = np.zeros(2)
        A_cl = np.zeros((2, 2))
        tset = cn.maximal_admissible_set(A_cl, kappa, zsets[0])
        # nilpotent closed loop: the set equals the one-step constraints,
        # which here reduce to the state box
        for x in ([0.99, 0.99], [-0.99, 0.5]):
            assert tset.contains(np.array(x), 1e-9)
        assert not tset.contains(np.array([1.01, 0.0]), 1e-9)

    def test_invariance_by_propagation(self, ex3):
        ti = ex3["terminal"]
        assert ti.kind == "polytope"
        rng = np.random.default_rng(3)
        pts = ti.tset.sample(1000, seed=4)
        for x in pts:
            assert ti.tset.contains(ti.A_cl @ x, 1e-9)

    def test_long_horizon_trajectories_stay_admissible(self):
        spec, lin, zsets = self._affine_pipeline(
            np.array([[1.05, 0.2], [0.0, 0.95]]), [0.3, 0.7])
        Q = 0.4 * np.eye(2)
        ti = cn.build_terminal(spec, lin, zsets, Q, 1.0, kind="polytope")
        z1 = zsets[0]
        pts = ti.tset.sample(200, seed=8)
        for x in pts:
            y = x.copy()
            for _ in range(100):
                v = float(ti.kappa @ y)
                assert z1.contains(y, v, 1e-9)
                y = ti.A_cl @ y

    def test_ex3_terminal_inside_first_region(self, ex3):
        ti = ex3["terminal"]
        x1 = ex3["spec"].region(1)
        assert ti.tset.contains(np.zeros(2), -1e-12)  # strict interior
        corners = vertices(ti.tset.C, ti.tset.d)
        assert len(corners) == 6
        for x in corners:  # the polytope is the hull of its vertices
            assert x1.contains(x, 1e-9)

    def test_unstable_loop_rejected(self):
        spec, lin, zsets = self._affine_pipeline(
            np.array([[1.5, 0.0], [0.0, 1.4]]), [1.0, 1.0])
        with pytest.raises(cn.NoFiniteDeterminationError):
            cn.maximal_admissible_set(np.diag([1.2, 1.1]), np.zeros(2),
                                      zsets[0], max_power=40)


class TestEllipsoidalTerminal:
    def test_unit_ball_in_unit_box(self):
        spec, lin, zsets = (None, None, None)
        spec = toy_spec(np.array([[0.5, 0.0], [0.0, 0.4]]), [1.0, 0.5],
                        u=(-10.0, 10.0))
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        ell = cn.ellipsoidal_terminal(np.eye(2), np.zeros(2), zsets[0],
                                      A_cl=0.5 * np.eye(2))
        # largest sampled ball inside the unit box has level ~ 1
        assert 0.999 <= ell.level <= 1.0 + 1e-9

    def test_contraction_limited_only_by_region(self):
        spec = toy_spec(np.array([[0.5, 0.0], [0.0, 0.4]]), [1.0, 0.5],
                        u=(-50.0, 50.0), box=2.0)
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        ell = cn.ellipsoidal_terminal(np.eye(2), np.zeros(2), zsets[0],
                                      A_cl=0.5 * np.eye(2))
        assert abs(ell.level - 4.0) < 1e-2

    def test_origin_excluded_raises(self):
        # a valid spec always admits the origin, so fabricate a stage set
        # whose region excludes it: no positive level can exist
        import dataclasses
        spec = toy_spec(np.array([[0.5, 0.0], [0.0, 0.4]]), [1.0, 0.5],
                        u=(-0.5, 0.5))
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        shifted = dataclasses.replace(
            zsets[0], region=cn.Polytope([[-1.0, 0.0]], [-0.5]))
        with pytest.raises(cn.NoPositiveLevelError):
            cn.ellipsoidal_terminal(np.eye(2), np.zeros(2), shifted,
                                    A_cl=0.5 * np.eye(2))

    def test_non_contracting_loop_raises(self):
        # A_cl is stable (both eigenvalues 0.5) but stretches the unit
        # circle: lambda_max(A_cl'A_cl) = 0.75 + sqrt(0.5) > 1, so no
        # level of x'x is invariant, however small
        spec = toy_spec(np.array([[0.5, 0.0], [0.0, 0.4]]), [1.0, 0.5],
                        u=(-10.0, 10.0))
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        A_cl = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert contraction(cn.Ellipsoid(np.eye(2), 1.0), A_cl) > 1.4
        with pytest.raises(cn.NoPositiveLevelError):
            cn.ellipsoidal_terminal(np.eye(2), np.zeros(2), zsets[0],
                                    A_cl=A_cl)

    def test_singular_cost_raises(self, ex2):
        # P = 0 (a zero state weight) bounds no sublevel set
        with pytest.raises(cn.NoPositiveLevelError):
            cn.ellipsoidal_terminal(np.zeros((2, 2)), np.zeros(2),
                                    ex2["zsets"][0], A_cl=0.5 * np.eye(2))

    def test_ex2_positive_level(self, ex2):
        assert ex2["terminal"].kind == "ellipsoid"
        assert ex2["terminal"].tset.level > 0


def _halved(ti):
    return cn.TerminalIngredients(P=0.5 * ti.P, kappa=ti.kappa,
                                  tset=ti.tset, A_cl=ti.A_cl)


class TestAxioms:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_axioms_hold_on_examples(self, name, request):
        data = request.getfixturevalue(name)
        rep = cn.verify_terminal_axioms(data["terminal"], data["zsets"],
                                        data["Q"], data["rho"],
                                        n_samples=2000, seed=0)
        assert rep.ok, rep.to_dict()

    def test_decrease_is_tight_for_consistent_ingredients(self, ex2):
        rep = cn.verify_terminal_axioms(ex2["terminal"], ex2["zsets"],
                                        ex2["Q"], ex2["rho"],
                                        n_samples=500, seed=1)
        # the Riccati identity makes the decrease axiom an equality
        assert abs(rep.worst_decrease) <= 1e-8

    def test_shrunken_cost_matrix_violates_decrease(self, ex2):
        rep = cn.verify_terminal_axioms(_halved(ex2["terminal"]),
                                        ex2["zsets"], ex2["Q"],
                                        ex2["rho"], n_samples=500, seed=1)
        assert rep.worst_decrease > 1e-8
        assert not rep.ok
        assert rep.witnesses
        assert all(dec > 1e-8 for _, _, _, dec in rep.witnesses)

    @pytest.mark.parametrize("halved", [False, True])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_exact_bounds_the_sampled_worst(self, name, halved, request):
        # exact certificates never report less than point-by-point samples
        data = request.getfixturevalue(name)
        ti = _halved(data["terminal"]) if halved else data["terminal"]
        rep = cn.verify_terminal_axioms(ti, data["zsets"], data["Q"],
                                        data["rho"])
        sampled = sampled_terminal_axioms(ti, data["zsets"], data["Q"],
                                          data["rho"])
        exact = (rep.worst_admissibility, rep.worst_invariance,
                 rep.worst_decrease)
        assert np.all(np.array(exact) >= sampled - 1e-12), (exact, sampled)
        # a halved cost fails decrease, and the check names states that do
        assert rep.ok is not halved
        assert bool(rep.witnesses) is halved

    def test_polytope_invariance_fails_at_a_vertex(self, ex3):
        # the closed loop's rows swapped and scaled up: not invariant
        ti = ex3["terminal"]
        bad = cn.TerminalIngredients(P=ti.P, kappa=ti.kappa, tset=ti.tset,
                                     A_cl=1.2 * ti.A_cl[::-1])
        rep = cn.verify_terminal_axioms(bad, ex3["zsets"], ex3["Q"],
                                        ex3["rho"])
        assert rep.worst_invariance > 1e-8 and not rep.ok
        corners = vertices(ti.tset.C, ti.tset.d)
        assert rep.n_checked == len(corners)
        worst = max(rep.witnesses, key=lambda w: w[2])
        assert worst[2] == rep.worst_invariance
        assert any(np.array_equal(worst[0], x) for x in corners)


def test_auto_terminal_kind_dispatch(ex2, ex3, ex1):
    assert ex2["terminal"].kind == "ellipsoid"   # smooth stage sets
    assert ex3["terminal"].kind == "ellipsoid" or ex3["terminal"].kind == "polytope"
    assert ex3["terminal"].kind == "polytope"    # affine stage sets
    assert ex1["terminal"].kind == "ellipsoid"   # quadratic stage sets
