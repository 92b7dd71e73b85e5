import numpy as np
import pytest

import convexnmpc as cn
from convexnmpc import solver
from helpers import (finite_diff_grad, grid_minimize, random_instance,
                     toy_spec)


def _program(data, coeffs, x0):
    return cn.assemble(coeffs, x0, data["lin"], data["zsets"],
                       data["terminal"], data["Q"], data["rho"])


class TestCondense:
    # a program's prediction map, x_hat(0..N) = S z + offset (states)
    def test_single_step(self, ex2):
        lin = ex2["lin"]
        prog = _program(ex2, (1,), np.array([0.7, -0.2]))
        x1 = prog.states(np.array([1.3]))[1]
        assert np.allclose(x1, lin.A_hat @ [0.7, -0.2] + lin.b_hat * 1.3,
                           atol=1e-14)

    def test_nilpotent_drift(self):
        spec = toy_spec(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        assert np.allclose(lin.A_hat @ lin.A_hat, 0.0, atol=1e-14)
        zsets = cn.build_stage_sets(spec, lin)
        data = {"lin": lin, "zsets": zsets, "Q": np.eye(2), "rho": 1.0,
                "terminal": cn.build_terminal(spec, lin, zsets, np.eye(2),
                                              1.0)}
        v = np.array([0.5, -0.3, 0.8])
        states = _program(data, (1, 1, 1), np.zeros(2)).states(v)
        for k in range(1, 4):
            expect = lin.A_hat @ states[k - 1] + lin.b_hat * v[k - 1]
            assert np.allclose(states[k], expect, atol=1e-14)

    def test_reference_two_step_drift(self, ex2):
        states = _program(ex2, (1, 1), np.array([1.0, 0.0])).states(
            np.zeros(2))
        assert np.allclose(states[2], [1.01, 0.20], atol=1e-12)

    def test_free_initial_state_appends_columns(self, ex2):
        prog = _program(ex2, (1, 1, 1, 1), None)
        assert prog.n_vars == 4 + 2 and prog.S.shape == (5 * 2, 4 + 2)
        assert not prog.offset.any()
        z = np.concatenate([np.zeros(4), [0.3, -0.1]])
        assert np.allclose(prog.states(z)[0], [0.3, -0.1])

    def test_horizon_must_be_positive(self, ex2):
        with pytest.raises(ValueError):
            _program(ex2, (), None)


class TestAssemble:
    def test_class_tags(self, ex1, ex2, ex3):
        for data, expect in ((ex1, "QCQP"), (ex2, "NLP"), (ex3, "QP")):
            prog = cn.assemble((1, 1), np.zeros(2), data["lin"],
                               data["zsets"], data["terminal"], data["Q"],
                               data["rho"])
            assert prog.prog_class == expect

    def test_objective_hessian_psd(self, ex2):
        prog = cn.assemble((1, 1, 1, 1), np.array([0.2, 0.1]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        assert np.min(np.linalg.eigvalsh(prog.H)) >= -1e-12

    def test_fixed_state_outside_region_pre_infeasible(self, ex2):
        # x0 deep inside region 2 violates the region-1 rows at step 0
        prog = cn.assemble((1, 1), np.array([-1.5, 1.5]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        assert prog.pre_violation > 1e-3
        sol = cn.solve(prog)
        assert sol.status == "Infeasible"

    def test_nonconvex_data_flagged_at_assembly(self, ex1):
        prog = cn.assemble((1, 1), np.zeros(2), ex1["lin"],
                           ex1["zsets"], ex1["terminal"], ex1["Q"],
                           ex1["rho"])
        assert prog.nonconvex_data


class TestSolve:
    def test_origin_is_free(self, ex2):
        prog = cn.assemble((1,) * 15, np.zeros(2), ex2["lin"],
                           ex2["zsets"], ex2["terminal"], ex2["Q"],
                           ex2["rho"])
        sol = cn.solve(prog)
        assert sol.optimal
        assert abs(sol.V) <= 1e-10
        assert np.max(np.abs(sol.v_seq)) <= 1e-6

    def test_scalar_lqr_first_move(self):
        # unconstrained one-step problem equals the Riccati feedback
        spec = toy_spec(np.array([[1.0]]), [1.0], box=50.0, u=(-100, 100))
        lin = cn.build_linearization(spec, [1.0], b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        Q = np.array([[1.0]])
        rho = 1.0
        P = cn.solve_dare(lin.A_hat, lin.b_hat, Q, rho)
        term = cn.TerminalIngredients(
            P=P, kappa=cn.lqr_gain(P, lin.A_hat, lin.b_hat, rho),
            tset=cn.Ellipsoid(np.eye(1), 1e6),
            A_cl=cn.terminal.closed_loop(lin.A_hat, lin.b_hat,
                                         cn.lqr_gain(P, lin.A_hat,
                                                     lin.b_hat, rho)))
        x0 = np.array([2.0])
        prog = cn.assemble((1,), x0, lin, zsets, term, Q, rho)
        sol = cn.solve(prog)
        assert sol.optimal
        expect = float(-P[0, 0] / (rho + P[0, 0]) * x0[0])
        assert abs(sol.v_seq[0] - expect) < 1e-7

    def test_certificates_on_optimal(self, ex2):
        prog = cn.assemble((1, 1, 1), np.array([0.4, 0.0]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        sol = cn.solve(prog)
        assert sol.optimal
        assert sol.kkt_residual <= 1e-8
        assert sol.max_constraint <= 1e-8

    def test_infeasible_certificate(self, ex2):
        prog = cn.assemble((1, 1), np.array([1.9, 1.9]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        sol = cn.solve(prog)
        assert sol.status == "Infeasible"
        assert sol.phase1_violation > 1e-7

    def test_iteration_limit_reported_not_infeasible(self, ex2):
        cfg = cn.SolverConfig(max_newton=3)
        prog = cn.assemble((1, 1, 1, 1), np.array([0.6, 0.2]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        sol = cn.solve(prog, cfg)
        assert sol.status == "IterLimit"

    def test_determinism_bit_identical(self, ex2):
        def run():
            prog = cn.assemble((1, 1, 1), np.array([0.35, -0.1]),
                               ex2["lin"], ex2["zsets"],
                               ex2["terminal"], ex2["Q"], ex2["rho"])
            return cn.solve(prog)

        a, b = run(), run()
        assert a.V == b.V
        assert np.array_equal(a.v_seq, b.v_seq)
        assert a.kkt_residual == b.kkt_residual
        assert a.n_newton == b.n_newton

    def test_barrier_path_monotone(self, monkeypatch, ex2):
        # the objective at the end of each phase-II barrier stage (phase I's
        # iterate carries t, its stack is aug) falls as mu falls
        prog = cn.assemble((1, 1, 1), np.array([0.3, 0.3]),
                           ex2["lin"], ex2["zsets"], ex2["terminal"],
                           ex2["Q"], ex2["rho"])
        vals, stage = [], solver._barrier_stage

        def recorded(work, stack, *args, **kwargs):
            out = stage(work, stack, *args, **kwargs)
            if not stack.aug:
                vals.append(prog.objective_value(out[0]))
            return out

        monkeypatch.setattr(solver, "_barrier_stage", recorded)
        sol = cn.solve(prog)
        assert sol.optimal
        assert len(vals) > 1
        assert np.all(np.diff(vals) <= 1e-10)

    def test_nonconvex_flag_on_shipped_quadratic(self, ex1):
        prog = cn.assemble((1,) * 15, np.array([0.5, 0.5]),
                           ex1["lin"], ex1["zsets"], ex1["terminal"],
                           ex1["Q"], ex1["rho"])
        sol = cn.solve(prog)
        assert sol.nonconvex_flag

    def test_free_initial_state_probe(self, ex2):
        prog = cn.assemble((2, 1, 1), None, ex2["lin"],
                           ex2["zsets"], ex2["terminal"], ex2["Q"],
                           ex2["rho"])
        feasible, slack, _ = cn.solve_feasibility(prog)
        assert feasible and slack <= 1e-7
        prog = cn.assemble((1, 2, 1), None, ex2["lin"],
                           ex2["zsets"], ex2["terminal"], ex2["Q"],
                           ex2["rho"])
        feasible, slack, _ = cn.solve_feasibility(prog)
        assert not feasible and slack > 1e-7


class TestAgainstGridOracle:
    def test_reference_two_step_case(self, ex2):
        """Solver matches the 1e-3-step screened grid from a feasible state."""
        x0 = np.array([0.3, 0.3])
        prog = cn.assemble((1, 1), x0, ex2["lin"], ex2["zsets"],
                           ex2["terminal"], ex2["Q"], ex2["rho"])
        sol = cn.solve(prog)
        assert sol.optimal
        V_grid, _ = grid_minimize(prog, -3.0, 3.0, 1e-3)
        assert abs(sol.V - V_grid) <= 1e-4

    def test_fifty_random_small_instances(self):
        rng = np.random.default_rng(2024)
        kinds = ["affine", "quadratic", "sinusoid"]
        solved = 0
        trials = 0
        while solved < 50 and trials < 120:
            trials += 1
            spec, lin, zsets, terminal, Q, rho = random_instance(
                rng, kinds[trials % 3])
            N = int(rng.integers(1, 3))
            x0 = rng.uniform(-0.3, 0.3, spec.n)
            coeffs = (1,) * N
            prog = cn.assemble(coeffs, x0, lin, zsets, terminal, Q, rho)
            sol = cn.solve(prog)
            step = 5e-3
            V_grid, z_grid = grid_minimize(prog, -4.0, 4.0, step)
            if sol.optimal:
                assert np.isfinite(V_grid), "oracle missed a feasible point"
                gnorm = float(np.linalg.norm(prog.objective_grad(sol.v_seq)))
                tol = max(1e-3, 2 * step * gnorm)
                assert abs(sol.V - V_grid) <= tol
                assert sol.max_constraint <= 1e-8
                solved += 1
            else:
                # solver infeasibility must agree with the screened grid
                assert not np.isfinite(V_grid)
        assert solved >= 50


def test_smooth_constraint_gradients_composed(ex2):
    prog = cn.assemble((1, 2, 3), None, ex2["lin"],
                       ex2["zsets"], ex2["terminal"], ex2["Q"], ex2["rho"])
    rng = np.random.default_rng(12)
    cons = prog.cons
    for k in range(len(cons)):
        for _ in range(5):
            z = rng.uniform(-1, 1, prog.n_vars)
            g_fd = finite_diff_grad(lambda y: cons.values(y)[k], z)
            assert np.max(np.abs(cons.grads(z)[k] - g_fd)) < 1e-5 * max(
                1.0, np.max(np.abs(g_fd)))
