import dataclasses

import numpy as np
import pytest

import convexnmpc as cn
from convexnmpc.stagesets import _overlapping_pieces, _thin_slab
from helpers import (finite_diff_grad, finite_diff_hess, stage_set_members,
                     step_map, toy_spec)
from test_geometry import lp_chebyshev

# finite_diff_hess at h = 1e-4 reads the exactly flat directions of a ridge
# constraint to within about 5e-8; a concave piece on ex2 curves by about
# -0.27 (scale * freq^2)
FD_HESS_TOL = 1e-6


class TestBuild:
    def test_ex2_signs_and_kinds(self, ex2):
        zsets = ex2["zsets"]
        assert len(zsets) == 3
        assert [z.sign_beta_g for z in zsets] == [1, -1, -1]
        assert all(z.kind == "smooth" for z in zsets)

    def test_ex1_quadratic_class(self, ex1):
        assert [z.kind for z in ex1["zsets"]] == ["quadratic"]
        assert ex1["zsets"][0].sign_beta_g == -1

    def test_ex3_affine_class(self, ex3):
        assert all(z.kind == "affine" for z in ex3["zsets"])
        # the center pyramid spans four affine pieces: four rows per side
        assert len(ex3["zsets"][0].constraints) == 8
        assert all(len(z.constraints) == 2 for z in ex3["zsets"][1:])

    def test_constant_gain_reduces_to_affine_interval(self):
        spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                        u=(-1.5, 2.0))
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        z1 = zsets[0]
        assert z1.kind == "affine"
        # with g = 1, beta = b0 = 1, alpha = 0: u_lo <= v <= u_hi
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            v = rng.uniform(-3, 3)
            assert z1.contains(x, v, 1e-9) == (spec.u_lo - 1e-9 <= v
                                               <= spec.u_hi + 1e-9)

    def test_sign_ambiguous_region_rejected(self):
        # positive gain at the center, negative at the box corners
        g = cn.Quadratic(-np.eye(2), np.zeros(2), 0.5)
        spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                        g=g, sign=1)
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        with pytest.raises(cn.SignAmbiguousError):
            cn.build_stage_sets(spec, lin)

    def test_sign_change_at_a_corner_rejected(self):
        # g(-1, -1) = -0.01 is the only negative value on the box, at a
        # vertex: an affine gain's sign is read at the region's vertices
        g = cn.Affine(np.array([0.3, 0.3]), 0.59)
        spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                        g=g, sign=1)
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(spec.A, spec.b, 1.0), b0=1.0)
        with pytest.raises(cn.SignAmbiguousError, match="changes sign"):
            cn.build_stage_sets(spec, lin)


def _box(lo, hi):
    return cn.Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                       np.concatenate([hi, -np.asarray(lo)]))


class TestPieceOverlap:
    """The slab pre-test settles a region-piece pair only where the
    Chebyshev LP would also drop it."""

    def test_slab_never_rejects_an_overlap_on_ex3(self, ex3):
        spec = ex3["spec"]
        n_thin = 0
        for region, _ in spec.regions:
            for piece, _, _ in spec.g.pieces:
                r = lp_chebyshev(region.intersect(piece))[1]
                if _thin_slab(region, piece, 1e-9):
                    n_thin += 1
                    assert r <= 1e-9
        assert n_thin == 76  # of 9 x 12 pairs

    def test_overlap_lists_equal_lp_only_decision(self, ex3):
        spec = ex3["spec"]
        total = 0
        for region, _ in spec.regions:
            by_lp = [(w, d) for piece, w, d in spec.g.pieces
                     if lp_chebyshev(region.intersect(piece))[1] > 1e-9]
            got = _overlapping_pieces(spec.g.pieces, region)
            assert [(id(w), d) for w, d in got] == [(id(w), d)
                                                    for w, d in by_lp]
            total += len(got)
        assert total == 12  # four pieces on the centre, one elsewhere

    def test_shared_edge_rejected_without_lp(self):
        region, piece = _box([0.0, 0.0], [1.0, 1.0]), _box([1.0, 0.0],
                                                           [2.0, 1.0])
        assert _thin_slab(region, piece, 1e-9)
        with pytest.raises(cn.PreconditionError):
            _overlapping_pieces(((piece, np.ones(2), 1.0),), region)

    def test_overlap_behind_antiparallel_rows_kept(self):
        region, piece = _box([0.0, 0.0], [1.0, 1.0]), _box([0.5, 0.0],
                                                           [1.5, 1.0])
        # rows x1 <= 1 and -x1 <= -0.5 are antiparallel: a slab of width 0.5
        assert not _thin_slab(region, piece, 1e-9)
        w = np.array([1.0, -1.0])
        assert _overlapping_pieces(((piece, w, 2.0),), region) == [(w, 2.0)]


class TestMembership:
    def test_tight_upper_bound(self, ex2):
        # at the origin the admissible band is 0.1*v in [-0.192, 0.192]
        assert cn.stage_membership(ex2["zsets"], [0.0, 0.0], 1.92) == {1}

    def test_outside_band(self, ex2):
        assert cn.stage_membership(ex2["zsets"], [0.0, 0.0], 2.5) == set()

    def test_vanishing_gain_pins_v(self, ex2):
        x = np.array([2.0 / 3.0, -2.0 / 3.0])  # shared facet, g = 0
        assert cn.stage_membership(ex2["zsets"], x, 0.0) == {1, 3}
        assert cn.stage_membership(ex2["zsets"], x, 0.5) == set()

    def test_interval_ends(self, ex2):
        lo, hi = cn.bound_interval(ex2["lin"], ex2["spec"], np.zeros(2))
        assert abs(lo + 0.192) < 1e-12 and abs(hi - 0.192) < 1e-12


class TestOracles:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_derivatives_match_finite_differences(self, name, request):
        data = request.getfixturevalue(name)
        rng = np.random.default_rng(3)
        for zs in data["zsets"]:
            cons = zs.constraints
            for k in range(len(cons)):
                for _ in range(17):
                    z = np.concatenate([rng.uniform(-1.5, 1.5, 2),
                                        rng.uniform(-2, 2, 1)])
                    g_fd = finite_diff_grad(lambda y: cons.values(y)[k], z)
                    scale = max(1.0, np.max(np.abs(g_fd)))
                    err = np.max(np.abs(cons.grads(z)[k] - g_fd))
                    assert err / scale < 1e-5

    def test_banded_surrogate_matches_inside_region(self, ex2):
        # tangent-extended constraints agree with the raw sinusoid bounds on
        # their own region, so the stage sets are unchanged
        spec, lin = ex2["spec"], ex2["lin"]
        rng = np.random.default_rng(5)
        for zs in ex2["zsets"]:
            pts = zs.region.sample(100, seed=9)
            for x in pts:
                gx = float(spec.g.value(x))
                lo, hi = cn.bound_interval(lin, spec, x)
                for v in rng.uniform(-3, 3, 3):
                    word = lin.b0 * v - lin.alpha @ x
                    direct = max(lo - word, word - hi)
                    oracle = np.max(zs.constraints.values(
                        np.concatenate([x, [v]])))
                    assert abs(direct - oracle) < 1e-9

    def test_surrogate_convex_everywhere(self, ex2):
        rng = np.random.default_rng(11)
        for zs in ex2["zsets"]:
            cons = zs.constraints
            for k in range(len(cons)):
                for _ in range(100):
                    z = np.concatenate([rng.uniform(-4, 4, 2),
                                        rng.uniform(-4, 4, 1)])
                    eigs = np.linalg.eigvalsh(
                        finite_diff_hess(lambda y: cons.values(y)[k], z))
                    assert eigs.min() > -FD_HESS_TOL

    def test_composed_ridge_matches_stage_constraint(self, ex2):
        # pushed through the prediction map z -> (x_hat(k), v_k) = M z + m,
        # a ridge constraint is the stage one evaluated at M z + m
        data, coeffs = ex2, (2, 3, 1)
        prog = cn.assemble(coeffs, np.array([-0.9, 0.8]),
                           data["lin"], data["zsets"], data["terminal"],
                           data["Q"], data["rho"])
        cons = prog.cons
        stage = [(k, j, data["zsets"][e - 1].constraints)
                 for k, e in enumerate(coeffs) for j in range(2)]
        # after the region rows, the ridges in step order, then the
        # terminal ellipsoid
        a = len(cons.rows)
        assert len(cons.scale) == len(stage) == 6 and len(cons) == a + 7
        rng = np.random.default_rng(43)
        for i, (k, j, stage_cons) in enumerate(stage, start=a):
            M, m = step_map(prog.S, prog.offset, 2, k)
            for _ in range(10):
                z = rng.uniform(-2, 2, prog.n_vars)
                assert abs(cons.values(z)[i]
                           - stage_cons.values(M @ z + m)[j]) < 1e-12
                g_fd = finite_diff_grad(lambda y: cons.values(y)[i], z)
                scale = max(1.0, np.max(np.abs(g_fd)))
                assert np.max(np.abs(cons.grads(z)[i] - g_fd)) / scale < 1e-5


class TestUnionEquivalence:
    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_decomposition_matches_direct_definition(self, name, request):
        data = request.getfixturevalue(name)
        spec, lin, zsets = data["spec"], data["lin"], data["zsets"]
        rng = np.random.default_rng(17)
        tol = 1e-8
        mismatches = 0
        for _ in range(10_000):
            x = rng.uniform(-2.2, 2.2, 2)
            v = rng.uniform(-4, 4)
            in_sets = bool(cn.stage_membership(zsets, x, v, tol))
            in_union = cn.in_union_direct(spec, lin, x, v, tol)
            if in_sets != in_union:
                # only boundary-tolerance discrepancies are allowed: the
                # point must be within 10*tol of both verdicts
                z = np.concatenate([x, [v]])
                resid = min(np.min(np.abs(zs.constraints.values(z)))
                            for zs in zsets)
                assert resid <= 10 * tol
                mismatches += 1
        assert mismatches <= 20

    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_each_stage_set_is_convex(self, name, request):
        data = request.getfixturevalue(name)
        zsets = data["zsets"]
        rng = np.random.default_rng(23)
        for zs in zsets:
            members = stage_set_members(zs, rng)
            pairs = min(1_000, len(members) // 2)
            for k in range(pairs):
                mid = 0.5 * (members[2 * k] + members[2 * k + 1])
                assert zs.contains(mid[:2], mid[2], 1e-9)

    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    @pytest.mark.parametrize("count, tries", [(300, 3_000), (10**6, 500)])
    def test_members_are_those_of_the_scalar_loop(self, name, count, tries,
                                                  request):
        # member bytes and the next draw, whether count or tries ends it
        zsets = request.getfixturevalue(name)["zsets"]
        for zs in zsets:
            rng, ref = (np.random.default_rng(29 + zs.index)
                        for _ in range(2))
            members, used = [], 0
            while len(members) < count and used < tries:
                used += 1
                x = ref.uniform(-2.2, 2.2, 2)
                v = ref.uniform(-4, 4)
                if zs.contains(x, v, 0.0):
                    members.append(np.concatenate([x, [v]]))
            got = stage_set_members(zs, rng, count, tries)
            assert np.array(got).tobytes() == np.array(members).tobytes()
            assert len(got) == len(members)
            assert rng.random() == ref.random()


class TestLemmaForward:
    def test_forward_membership_never_empty(self, ex2):
        spec, lin, zsets = ex2["spec"], ex2["lin"], ex2["zsets"]
        rng = np.random.default_rng(31)
        done = 0
        while done < 1000:
            x = rng.uniform(-2, 2, 2)
            if not cn.region_membership(spec, x, 0.0):
                continue
            u = rng.uniform(spec.u_lo, spec.u_hi)
            xf, v = cn.lemma1_forward(spec, lin, x, u)
            assert cn.stage_membership(zsets, xf, v, 1e-8)
            done += 1

    def test_round_trip_recovers_input(self, ex2):
        spec, lin = ex2["spec"], ex2["lin"]
        rng = np.random.default_rng(37)
        done = 0
        while done < 500:
            x = rng.uniform(-2, 2, 2)
            if not cn.region_membership(spec, x, 0.0):
                continue
            u = rng.uniform(spec.u_lo, spec.u_hi)
            _, v = cn.lemma1_forward(spec, lin, x, u)
            u_back = cn.u_of_v(lin, spec, x, v)
            if abs(float(spec.g.value(x))) > cn.EPS_G:
                assert abs(u_back - u) <= 1e-10 * max(1.0, abs(u))
            else:
                assert u_back == 0.0
            done += 1

    def test_facet_state_any_input(self, ex2):
        spec, lin, zsets = ex2["spec"], ex2["lin"], ex2["zsets"]
        x = np.array([2.0 / 3.0, -2.0 / 3.0])
        for u in (-2.0, 0.0, 1.3):
            xf, v = cn.lemma1_forward(spec, lin, x, u)
            assert abs(v - lin.alpha @ x / lin.b0) < 1e-12
            assert cn.stage_membership(zsets, xf, v, 1e-8)

    def test_preconditions_enforced(self, ex2):
        with pytest.raises(cn.PreconditionError):
            cn.lemma1_forward(ex2["spec"], ex2["lin"], [5.0, 5.0], 0.0)
        with pytest.raises(cn.PreconditionError):
            cn.lemma1_forward(ex2["spec"], ex2["lin"], [0.0, 0.0], 7.0)


def test_pulled_back_stage_cost_positive_definite(ex2):
    """The quadratic stage cost in (x, v) stays positive definite when pulled
    back through the input map to (x, u)."""
    spec, lin = ex2["spec"], ex2["lin"]
    Q, rho = ex2["Q"], ex2["rho"]

    def pulled_back(x, u):
        v = cn.v_of_u(lin, spec, x, u)
        return float(x @ Q @ x) + rho * v * v

    # zero exactly at the origin pair
    assert pulled_back(np.zeros(2), 0.0) == 0.0
    # nonzero input at the origin is visible because the gain is nonzero there
    assert pulled_back(np.zeros(2), 0.3) > 0.0
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        x = rng.uniform(-2, 2, 2)
        u = rng.uniform(-2, 2)
        assert pulled_back(x, u) > 0.0


class TestOneRegion:
    def test_region_rows_are_the_regions(self, ex3):
        # the region rows are stored once: a stage set given another region
        # lifts that region's rows, with its offsets
        zs, P = ex3["zsets"][0], ex3["zsets"][1].region
        moved = dataclasses.replace(zs, region=P)
        lifted_C = np.hstack([P.C, np.zeros((P.n_rows, 1))])
        assert moved.lifted_C.tobytes() == lifted_C.tobytes()
        M = np.random.default_rng(5).normal(size=(3, 4))
        cons = moved.lift(M)
        assert cons.rows[:P.n_rows].tobytes() == (lifted_C @ M).tobytes()
        assert cons.offsets[:P.n_rows].tobytes() == P.d.tobytes()
        assert cons.rows[P.n_rows:].tobytes() == zs.constraints.lift(
            M).rows.tobytes()

    def test_programs_are_nonconvex_with_a_stage_set(self, ex1):
        # curvature is decided once per stage set: a program's data is
        # nonconvex iff one of its stage sets is
        zsets = ex1["zsets"]
        catalog = cn.prune_catalog(ex1["spec"], ex1["lin"], zsets,
                                   ex1["terminal"], 4)
        seqs = [seq for level in catalog.levels.values() for seq in level]
        assert seqs
        for seq in seqs:
            prog = cn.assemble(seq, None, ex1["lin"], zsets, ex1["terminal"],
                               ex1["Q"], ex1["rho"])
            assert prog.nonconvex_data == any(zsets[e - 1].nonconvex
                                              for e in seq)
        assert all(zs.nonconvex for zs in zsets)
