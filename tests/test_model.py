import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexnmpc as cn
from conftest import PACKAGED
from helpers import exact, lp_continuity, row_by_row_region_reports, toy_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_dynamics_step_ex2_origin(ex2):
    # g(0) = 4 and the drift vanishes, so one unit of input moves along 4*b
    out = cn.dynamics_step(ex2["spec"], np.zeros(2), 1.0)
    assert np.allclose(out, [0.04, 0.20], atol=1e-15)


def test_dynamics_step_zero_input_is_drift(ex2):
    A = ex2["spec"].A
    out = cn.dynamics_step(ex2["spec"], np.array([1.0, 0.0]), 0.0)
    assert np.allclose(out, A[:, 0])


def test_dynamics_step_pure_input_channel():
    spec = toy_spec(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 1.0], u=(-1, 2))
    out = cn.dynamics_step(spec, np.zeros(2), spec.u_hi)
    assert np.allclose(out, spec.u_hi * spec.b)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_dynamics_affine_in_input(u1, u2, eta):
    spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                    g=cn.Sinusoid(2.0, 0.5, [1.0, 0.0], 0.1), u=(-3, 3))
    x = np.array([0.3, -0.4])
    mix = cn.dynamics_step(spec, x, eta * u1 + (1 - eta) * u2)
    parts = (eta * cn.dynamics_step(spec, x, u1)
             + (1 - eta) * cn.dynamics_step(spec, x, u2))
    assert np.allclose(mix, parts, atol=1e-12, rtol=0)


class TestRegionMembership:
    def test_origin_in_region_one_only(self, ex2):
        assert cn.region_membership(ex2["spec"], [0.0, 0.0]) == {1}

    def test_boundary_point_region_three(self, ex2):
        # x1 - x2 = 4 sits on the outer boundary of the third slab
        assert cn.region_membership(ex2["spec"], [2.0, -2.0]) == {3}

    def test_shared_facet_is_set_valued(self, ex2):
        x = np.array([2.0 / 3.0, -2.0 / 3.0])
        assert cn.region_membership(ex2["spec"], x, tol=1e-8) == {1, 3}

    def test_outside_state_set(self, ex2):
        assert cn.region_membership(ex2["spec"], [3.0, 0.0]) == set()

    def test_membership_residual_bound(self, ex2):
        rng = np.random.default_rng(7)
        tol = 1e-8
        spec = ex2["spec"]
        for _ in range(200):
            x = rng.uniform(-2, 2, 2)
            for i in cn.region_membership(spec, x, tol):
                assert spec.region(i).violation(x) <= tol


def pwa_probe_points():
    rng = np.random.default_rng(4)
    t = rng.uniform(-2.0, 2.0, 500)
    ticks = np.arange(-4.0, 4.25, 0.25)
    return np.vstack([
        rng.uniform(-3.0, 3.0, (10_000, 2)),
        # shared facets: the pyramid's diagonals and the lines |x_i| = 1
        np.column_stack([t, t]), np.column_stack([t, -t]),
        np.column_stack([np.ones_like(t), t]),
        np.column_stack([t, -np.ones_like(t)]),
        # a lattice reaching outside every piece, where several pieces tie
        # for the least violation
        np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2),
    ])


def boxed(rows, offsets):
    """The unit box cut by the rows C x <= d."""
    return cn.Polytope(np.vstack([np.eye(2), -np.eye(2), rows]),
                       np.r_[np.ones(4), offsets])


def unchecked_pwa(pieces):
    """A PwaField built without its load-time continuity check."""
    g = object.__new__(cn.PwaField)
    object.__setattr__(g, "pieces", tuple(pieces))
    return g


def assert_continuity_equals_lp(g, n_bad):
    """check_continuity flags the pairs the LP reference flags, in pair
    order, each at a point of both pieces where the affine maps differ by
    its gap, and the gaps agree with the LP's; all within 1e-12."""
    bad, ref = g.check_continuity(), lp_continuity(g)
    assert len(bad) == len(ref) == n_bad
    for (x, gap), ((p, q), ref_gap) in zip(bad, ref):
        (P, wp, dp), (Q, wq, dq) = g.pieces[p], g.pieces[q]
        assert P.contains(x, 1e-9) and Q.contains(x, 1e-9)
        assert abs(gap - abs((x @ wp + dp) - (x @ wq + dq))) <= 1e-12
        assert abs(gap - ref_gap) <= 1e-12


class TestScalarFields:
    def test_quadratic_requires_symmetry(self):
        with pytest.raises(ValueError):
            cn.Quadratic([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], 0.0)

    def test_pwa_continuity_across_facets(self, ex3):
        g = ex3["spec"].g
        assert g.check_continuity() == [] == lp_continuity(g)
        # offsets raised by 0.01 k on piece k: every pair that meets now
        # differs on all its common part, by 0.01 |k_p - k_q|
        shifted = [(P, w, d + 0.01 * k) for k, (P, w, d)
                   in enumerate(g.pieces)]
        assert_continuity_equals_lp(unchecked_pwa(shifted), n_bad=38)

    def test_pwa_discontinuous_pieces_rejected(self):
        left = cn.Polytope([[1.0, 0.0]], [0.0])
        right = cn.Polytope([[-1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="disagree"):
            cn.PwaField(((left, np.array([0.0, 0.0]), 1.0),
                         (right, np.array([0.0, 0.0]), 2.0)))
        # the threshold is 1e-9: a step of 2e-9 is a gap, 5e-10 is not
        with pytest.raises(ValueError, match="disagree by 2.00e-09"):
            cn.PwaField(((left, np.zeros(2), 1.0),
                         (right, np.zeros(2), 1.0 + 2e-9)))
        cn.PwaField(((left, np.zeros(2), 1.0),
                     (right, np.zeros(2), 1.0 + 5e-10)))

    def test_pwa_batch_value_equals_row_by_row(self, ex3):
        g = ex3["spec"].g
        pts = pwa_probe_points()
        batch = g.value(pts)
        rows = np.array([g.value(x) for x in pts])
        assert batch.tobytes() == rows.tobytes()

    def test_pwa_piece_rule_equals_loop(self, ex3):
        # the loop is the reference rule: the first piece within 1e-9, else
        # the first of least violation, one point at a time
        g = ex3["spec"].g
        pts = pwa_probe_points()
        viol = np.array([[reg.violation(x) for reg, _, _ in g.pieces]
                         for x in pts])
        ref = [next((k for k, v in enumerate(row) if v <= 1e-9),
                    int(np.argmin(row))) for row in viol]
        assert g.piece_index(pts).tolist() == ref
        assert [g.piece_index(x) for x in pts] == ref
        n_within = (viol <= 1e-9).sum(axis=1)
        assert (n_within >= 2).sum() > 1000  # on shared facets
        assert (n_within == 0).sum() > 500  # outside every piece

    def test_pwa_continuity_equals_lp(self):
        # four pieces cut from a box by two oblique lines, with generic,
        # mutually inconsistent slopes: every pair meets, at least at the
        # origin; the last row of the first piece (x1 <= 5) misses the box
        box = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        pieces = []
        for k, (s1, s2) in enumerate([(1, 1), (-1, 1), (-1, -1), (1, -1)]):
            C = ([[s1, 2.0 * s1], [-2.0 * s2, s2]] + box
                 + [[1.0, 0.0]] * (k == 0))
            d = [0.0, 0.0, 3.0, 3.0, 3.0, 3.0] + [5.0] * (k == 0)
            pieces.append((cn.Polytope(C, d),
                           np.array([0.3 + 0.1 * k, -0.7 + 0.13 * k]),
                           0.37 + 0.1 * k))
        with pytest.raises(ValueError, match="disagree"):
            cn.PwaField(tuple(pieces))
        g = unchecked_pwa(pieces)
        assert_continuity_equals_lp(g, n_bad=6)

    def test_pwa_t_junction_is_continuous(self):
        # the lower half of the box split at x1 = 0 under one undivided
        # upper piece: (0, 0) is a vertex of the two lower pieces only
        lower, upper = np.array([0.0, 1.0]), np.array([0.0, 2.0])
        g = cn.PwaField((
            (boxed([[0.0, -1.0]], [0.0]), upper, 1.0),
            (boxed([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0]), lower, 1.0),
            (boxed([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]), lower, 1.0)))
        assert g.check_continuity() == [] == lp_continuity(g)
        assert float(g.value([0.0, 0.0])) == 1.0

    def test_pwa_overlapping_pieces_flagged(self):
        # x1 <= 0.5 and x1 >= -0.5 overlap in a strip where 1 + x1 and
        # 1 - x1 differ, by 1 at most, on the strip's vertical edges
        pieces = ((boxed([[1.0, 0.0]], [0.5]), np.array([1.0, 0.0]), 1.0),
                  (boxed([[-1.0, 0.0]], [0.5]), np.array([-1.0, 0.0]), 1.0))
        with pytest.raises(ValueError, match="disagree by 1.00e"):
            cn.PwaField(pieces)
        g = unchecked_pwa(pieces)
        assert_continuity_equals_lp(g, n_bad=1)
        assert g.check_continuity()[0][1] == 1.0

    def test_pwa_value_matches_pieces(self, ex3):
        g = ex3["spec"].g
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            expect = 4 - 4 * np.max(np.abs(x)) if np.max(np.abs(x)) <= 1 \
                else -2 * (np.sum(np.maximum(np.abs(x) - 1, 0.0)))
            assert abs(float(g.value(x)) - expect) < 1e-12


class TestPolytope:
    def test_rows_are_normalized(self):
        p = cn.Polytope([[3.0, 4.0], [0.0, 2.0]], [5.0, 4.0])
        assert np.allclose(np.linalg.norm(p.C, axis=1), 1.0)
        assert np.allclose(p.d, [1.0, 2.0])

    def test_empty_region_rejected_in_spec(self):
        empty = cn.Polytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -2.0])
        with pytest.raises(cn.RegionEmptyError):
            toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2]).regions
            cn.SystemSpec(A=np.array([[0.9, 0.1], [0.0, 0.8]]),
                          b=np.array([0.1, 0.2]),
                          g=cn.Affine(np.zeros(2), 1.0),
                          regions=((empty, 1),), u_lo=-1, u_hi=1)

    def test_chebyshev_center_of_box(self):
        p = cn.Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        center, r = p.chebyshev_center()
        assert abs(r - 1.0) < 1e-9
        assert np.allclose(center, 0.0, atol=1e-9)


class TestSpecInvariants:
    def test_uncontrollable_pair_rejected(self):
        with pytest.raises(cn.SchemaError, match="controllable"):
            toy_spec(np.eye(2), [1.0, 1.0])

    def test_gain_zero_at_origin_rejected(self):
        with pytest.raises(cn.SchemaError, match="origin"):
            toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                     g=cn.Affine([1.0, 0.0], 0.0))

    def test_input_interval_must_straddle_zero(self):
        with pytest.raises(cn.SchemaError, match="interval"):
            toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                     u=(0.5, 2.0))

    def test_origin_strictly_inside_first_region(self):
        shifted = cn.Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                              [3.0, 1.0, -0.5, 1.0])  # 0.5 <= x1 <= 3
        with pytest.raises(cn.SchemaError, match="strictly"):
            cn.SystemSpec(A=np.array([[0.9, 0.1], [0.0, 0.8]]),
                          b=np.array([0.1, 0.2]),
                          g=cn.Affine(np.zeros(2), 1.0),
                          regions=((shifted, 1),), u_lo=-1, u_hi=1)


class TestValidateAssumption:
    def test_ex2_passes(self, ex2):
        report = cn.validate_assumption1(ex2["spec"], n_samples=128, seed=0)
        assert report.ok
        assert report.violations == []

    def test_ex1_convexity_violation_witnessed(self, ex1):
        report = cn.validate_assumption1(ex1["spec"], n_samples=128, seed=0)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "convexity" in kinds
        assert all(v.witness is not None for v in report.violations)

    def test_ex3_passes(self, ex3):
        report = cn.validate_assumption1(ex3["spec"], n_samples=64, seed=0)
        assert report.ok

    def test_constant_positive_gain_clean(self):
        spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2])
        report = cn.validate_assumption1(spec, n_samples=64, seed=3)
        assert report.ok

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_known_concave_sinusoid_clean_for_any_seed(self, seed):
        # box small enough that the phase stays within the concave half-wave
        spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2],
                        g=cn.Sinusoid(2.0, 0.7, [1.0, 0.0], 0.0),
                        box=1.0, sign=1)
        report = cn.validate_assumption1(spec, n_samples=64, seed=seed)
        assert report.ok

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_report_equals_row_by_row_scan(self, name, request):
        spec = request.getfixturevalue(name)["spec"]
        report = cn.validate_assumption1(spec)
        expect = row_by_row_region_reports(spec, 256, 0)
        assert exact(report.region_reports) == exact(expect)
        assert exact(report.violations) == exact(
            [v for rep in expect for v in rep.violations])

    def test_report_is_deterministic(self, ex2):
        r1 = cn.validate_assumption1(ex2["spec"], n_samples=64, seed=11)
        r2 = cn.validate_assumption1(ex2["spec"], n_samples=64, seed=11)
        assert r1.summary() == r2.summary()


class TestSystemIO:
    def test_round_trip(self, ex2, tmp_path):
        d = cn.system_to_dict(ex2["spec"])
        spec2 = cn.system_from_dict(d)
        assert np.allclose(spec2.A, ex2["spec"].A)
        assert np.allclose(spec2.b, ex2["spec"].b)
        assert spec2.n_regions == 3

    def test_malformed_file_raises_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[1.0]]}')
        with pytest.raises(cn.SchemaError):
            cn.load_system(bad)

    def test_generator_writes_the_packaged_data(self):
        # the shipped system files are exactly what the generator writes
        path = ROOT / "tools" / "make_example_configs.py"
        spec = importlib.util.spec_from_file_location("make_example_configs",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for name in ("ex1", "ex2", "ex3"):
            text = json.dumps(getattr(tool, name)(), sort_keys=True,
                              indent=1) + "\n"
            assert text.encode() == (PACKAGED / f"{name}.json").read_bytes()
