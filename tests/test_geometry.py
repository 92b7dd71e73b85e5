"""Vertex-based polytope answers against scipy's linprog as the reference.

Boxes, supports, redundancy decisions and Chebyshev balls are read off
exact vertices; the LPs below (test-only) are the formulations they
replace. On the packaged regions, pieces and intersections the answers
agree bit for bit, and the ex3 terminal is built from the same decisions.
"""
import json
import sys

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

import convexnmpc as cn
import convexnmpc.geometry as geometry
import convexnmpc.terminal as terminal
from convexnmpc.cli import RunConfig, build_pipeline
from convexnmpc.geometry import (Polytope, reduce_rows, rows_redundant,
                                 vertices)

from conftest import PACKAGED


# -- reference LPs -----------------------------------------------------------

def lp_box(P):
    n = P.dim
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        e = np.eye(n)[i]
        for sign, out in ((1.0, lo), (-1.0, hi)):
            res = linprog(sign * e, A_ub=P.C, b_ub=P.d,
                          bounds=[(None, None)] * n, method="highs")
            if res.status:  # empty or unbounded
                return None
            out[i] = sign * res.fun
    return lo, hi


def lp_support(C, d, c):
    res = linprog(-np.asarray(c, float), A_ub=C, b_ub=d,
                  bounds=[(None, None)] * C.shape[1], method="highs")
    assert res.status in (0, 2, 3)
    if res.status:  # 2 infeasible, 3 unbounded
        return -np.inf if res.status == 2 else np.inf
    return float(-res.fun)


def lp_chebyshev(P):
    """max r s.t. C x + r <= d (rows of unit norm), |x_k| <= BOX, r <= BOX:
    (centre, radius) as HiGHS returns them."""
    n = P.dim
    res = linprog(-np.eye(n + 1)[-1],
                  A_ub=np.hstack([P.C, np.ones((P.n_rows, 1))]), b_ub=P.d,
                  bounds=[(-geometry.BOX, geometry.BOX)] * n
                  + [(None, geometry.BOX)], method="highs")
    assert res.status == 0
    return res.x[:n], float(res.x[-1])


def lp_redundant(row, offset, C, d, tol=geometry.REDUNDANCY_TOL):
    return lp_support(C, d, row) <= offset + tol


def lp_reduce_rows(C, d):
    i = 0
    while i < C.shape[0]:
        rest = np.arange(C.shape[0]) != i
        if rest.any() and lp_redundant(C[i], d[i], C[rest], d[rest]):
            C, d = C[rest], d[rest]
        else:
            i += 1
    return C, d


def redundant(row, offset, C, d):
    return bool(rows_redundant([row], [offset], C, d)[0])


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- the packaged polytopes --------------------------------------------------

def packaged_polytopes():
    out = []
    for name in ("ex1", "ex2", "ex3"):
        spec = cn.load_system(PACKAGED / f"{name}.json")
        regions = [reg for reg, _ in spec.regions]
        out += [(f"{name} region {k}", reg) for k, reg in enumerate(regions)]
        for j, (piece, _, _) in enumerate(getattr(spec.g, "pieces", ())):
            out.append((f"{name} piece {j}", piece))
            out += [(f"{name} region {k} & piece {j}", reg.intersect(piece))
                    for k, reg in enumerate(regions)]
    return out


@pytest.fixture(scope="module")
def polytopes():
    return packaged_polytopes()


def test_packaged_set_count(polytopes):
    # 1 + 3 + 9 regions, 12 pieces, 9 x 12 intersections
    assert len(polytopes) == 13 + 12 + 108


def test_boxes_bit_for_bit(polytopes):
    n_bounded = 0
    for what, P in polytopes:
        ref = lp_box(P)
        if ref is None:  # an empty intersection
            with pytest.raises(ValueError):
                P.bounding_box()
            continue
        lo, hi = P.bounding_box()
        assert bits(lo) + bits(hi) == bits(ref[0]) + bits(ref[1]), what
        n_bounded += 1
    # 64 of the 108 intersections are nonempty, 32 of them full-dimensional
    assert n_bounded == 13 + 12 + 64


def test_supports_bit_for_bit(polytopes):
    for what, P in polytopes:
        if not len(P._vertices):
            continue
        for c in np.vstack([np.eye(P.dim), -np.eye(P.dim), P.C]):
            assert bits(P.support(c)) == bits(lp_support(P.C, P.d, c)), what


def test_redundancy_decisions_agree(polytopes):
    n_redundant = 0
    for what, P in polytopes:
        for i in range(P.n_rows):
            rest = np.arange(P.n_rows) != i
            for off in (P.d[i], P.d[i] - 1e-3):
                got = redundant(P.C[i], off, P.C[rest], P.d[rest])
                assert got == lp_redundant(P.C[i], off, P.C[rest],
                                           P.d[rest]), what
                n_redundant += got
    assert n_redundant > 0


def test_terminal_box_and_supports_match_lp(ex3):
    # generic rows: HiGHS solves each vertex with its own scaled factors,
    # so the last bit of a box or support value is the solver's choice
    T = ex3["terminal"].tset
    lo, hi = T.bounding_box()
    ref_lo, ref_hi = lp_box(T)
    assert close(lo, ref_lo, 1e-15) and close(hi, ref_hi, 1e-15)
    for c in np.vstack([np.eye(T.dim), -np.eye(T.dim), T.C]):
        assert close(T.support(c), lp_support(T.C, T.d, c), 1e-15)
    for i in range(T.n_rows):
        rest = np.arange(T.n_rows) != i
        for off in (T.d[i], T.d[i] - 1e-3):
            assert (redundant(T.C[i], off, T.C[rest], T.d[rest])
                    == lp_redundant(T.C[i], off, T.C[rest], T.d[rest]))


def lp_checked_admissible_set(ti, z1, monkeypatch):
    """maximal_admissible_set with every redundancy decision and the final
    row reduction checked against the LP formulation."""
    decisions = []

    def recorded(rows, offsets, C, d):
        got = rows_redundant(rows, offsets, C, d)
        assert list(got) == [lp_redundant(row, off, C, d)
                             for row, off in zip(rows, offsets)]
        decisions.extend(got)
        return got

    def reduced(C, d):
        got = reduce_rows(C, d)
        ref = lp_reduce_rows(C, d)
        assert bits(got[0]) + bits(got[1]) == bits(ref[0]) + bits(ref[1])
        return got

    monkeypatch.setattr(terminal, "rows_redundant", recorded)
    monkeypatch.setattr(terminal, "reduce_rows", reduced)
    return terminal.maximal_admissible_set(ti.A_cl, ti.kappa, z1), decisions


def test_terminal_rows_equal_lp_construction(ex3, monkeypatch):
    ti = ex3["terminal"]
    tset, decisions = lp_checked_admissible_set(ti, ex3["zsets"][0],
                                                monkeypatch)
    assert len(decisions) == 12  # the final reduction is checked whole
    assert bits(tset.C) + bits(tset.d) == bits(ti.tset.C) + bits(ti.tset.d)


def test_reduce_rows_match_lp(polytopes):
    rng = np.random.default_rng(21)
    sets = [P for _, P in polytopes] + [random_polygon(rng) for _ in range(20)]
    n_dropped = 0
    for P in sets:
        C, d = reduce_rows(P.C, P.d)
        ref_C, ref_d = lp_reduce_rows(P.C, P.d)
        assert bits(C) + bits(d) == bits(ref_C) + bits(ref_d)
        n_dropped += P.n_rows - len(C)
    assert n_dropped > 0


def test_three_state_spec_builds(tmp_path, monkeypatch):
    # C(m + 6, 3) solves per enumeration here: 27,720 for a 50-row set
    A = [[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.05, 0.0, 1.0]]
    box = {"C": np.vstack([np.eye(3), -np.eye(3)]).tolist(), "d": [1.0] * 6}
    system = {"A": A, "b": [0.0, 0.0, 0.1],
              "g": {"kind": "affine", "w": [0.1, -0.2, 0.1], "d": 1.0},
              "regions": [dict(box, sign=1)], "u": [-2.0, 2.0]}
    path = tmp_path / "three.json"
    path.write_text(json.dumps(system))
    pipe = build_pipeline(RunConfig(system=str(path)))
    T = pipe.terminal.tset
    assert T.dim == 3 and T.n_rows > 40
    tset, decisions = lp_checked_admissible_set(pipe.terminal,
                                                pipe.zsets[0], monkeypatch)
    assert bits(tset.C) + bits(tset.d) == bits(T.C) + bits(T.d)
    assert len(decisions) > 100


def test_region_chebyshev_balls_match_lp(polytopes):
    # the centre bit for bit; ex2's first radius is one ulp above the LP's
    n_regions = 0
    for what, P in polytopes:
        if "region" not in what or "piece" in what:
            continue
        center, r = P.chebyshev_center()
        ref_center, ref_r = lp_chebyshev(P)
        assert bits(center) == bits(ref_center), what
        assert abs(r - ref_r) <= 1e-15 * abs(ref_r), what
        assert not P.is_empty()
        n_regions += 1
    assert n_regions == 13


def test_overlap_radii_match_chebyshev_lp(ex3):
    spec = ex3["spec"]
    for reg, _ in spec.regions:
        for piece, _, _ in spec.g.pieces:
            P = reg.intersect(piece)
            r_lp = lp_chebyshev(P)[1]
            r = P.inscribed_radius()
            assert abs(r - r_lp) <= 1e-12 * max(1.0, abs(r_lp))
            assert (r > 1e-9) == (r_lp > 1e-9)


# -- random polygons ---------------------------------------------------------

def random_polygon(rng):
    """Tangents to a circle at random angles (a bounded polygon), plus a
    few rows pushed outward (redundant) or inward (cutting)."""
    m = rng.integers(3, 9)
    ang = np.sort(rng.uniform(0, 2 * np.pi, m))
    ang[1:] = ang[0] + np.cumsum(np.minimum(np.diff(ang), 2.5))
    ang = np.append(ang, ang[0] + np.arange(1, 4) * 2 * np.pi / 3)
    C = np.column_stack([np.cos(ang), np.sin(ang)])
    c0 = rng.uniform(-3, 3, 2)
    d = C @ c0 + rng.uniform(0.5, 2.0, len(ang))
    extra = rng.standard_normal((3, 2))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    d_extra = extra @ c0 + rng.uniform(-0.3, 3.0, 3)
    return Polytope(np.vstack([C, extra]), np.concatenate([d, d_extra]))


def close(a, b, rel=1e-12):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))


def test_random_polygons_match_lp():
    rng = np.random.default_rng(20)
    for _ in range(40):
        P = random_polygon(rng)
        lo, hi = P.bounding_box()
        ref_lo, ref_hi = lp_box(P)
        assert close(lo, ref_lo) and close(hi, ref_hi)
        for c in np.vstack([rng.standard_normal((5, 2)), P.C]):
            assert close(P.support(c), lp_support(P.C, P.d, c))
        for i in range(P.n_rows):
            rest = np.arange(P.n_rows) != i
            assert (redundant(P.C[i], P.d[i], P.C[rest], P.d[rest])
                    == lp_redundant(P.C[i], P.d[i], P.C[rest], P.d[rest]))


# -- edge cases ----------------------------------------------------------------

BOX_C = np.vstack([np.eye(2), -np.eye(2)])


def test_empty_polytope():
    P = Polytope(np.vstack([BOX_C, [[1.0, 1.0]]]), [1, 1, 1, 1, -3.0])
    assert len(vertices(P.C, P.d)) == 0
    with pytest.raises(ValueError):
        P.bounding_box()
    assert P.support([1.0, 0.0]) == -np.inf
    # an empty set implies every row, however far out
    assert redundant(np.array([1.0, 0.0]), -50.0, P.C, P.d)
    # the ball of least violation: its centre is unique, its radius negative
    center, r = P.chebyshev_center()
    ref_center, ref_r = lp_chebyshev(P)
    assert close(center, ref_center, 1e-15) and close(r, ref_r, 1e-15)
    assert r == P.inscribed_radius() < 0 and P.is_empty()


def test_tied_chebyshev_centres():
    # a 1 x 3 rectangle: every (x1, 0.5) with 0.5 <= x1 <= 2.5 is a centre,
    # and the LP's choice is the lexicographically largest
    P = Polytope(BOX_C, [3.0, 1.0, 0.0, 0.0])
    center, r = P.chebyshev_center()
    assert bits(center) == bits(lp_chebyshev(P)[0]) == bits([2.5, 0.5])
    assert r == lp_chebyshev(P)[1] == 0.5
    # the box centred at the origin: zeros signed -0, as the LP signs them
    P = Polytope(BOX_C, np.ones(4))
    center, r = P.chebyshev_center()
    assert bits(center) == bits(lp_chebyshev(P)[0]) == bits([-0.0, -0.0])
    assert r == lp_chebyshev(P)[1] == 1.0
    with pytest.raises(ValueError):
        center[0] = 1.0  # read-only


def test_unbounded_polytope():
    # the quadrant x1 >= 0, x2 >= 0 cut by x1 <= 1: unbounded along +x2
    P = Polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        P.bounding_box()
    assert P.support([0.0, 1.0]) == np.inf
    assert P.support([1.0, 1.0]) == np.inf
    assert P.support([1.0, 0.0]) == lp_support(P.C, P.d, [1.0, 0.0]) == 1.0
    assert P.support([0.0, -1.0]) == 0.0
    # no row bounds x2 from above: nothing is implied along +x2
    assert not redundant(np.array([0.0, 1.0]), 1e5, P.C, P.d)
    assert redundant(np.array([1.0, 0.0]), 1.0, P.C, P.d)
    # a strip of width 1: centres along x2 up to the box, radius 0.5
    center, r = P.chebyshev_center()
    assert bits(center) == bits(lp_chebyshev(P)[0]) == bits([0.5, 1e6])
    assert r == P.inscribed_radius() == lp_chebyshev(P)[1] == 0.5
    assert not P.is_empty()
    # a half-plane: bounded along its normal only
    H = Polytope([[0.0, 1.0]], [2.0])
    assert H.support([0.0, 1.0]) == 2.0
    assert H.support([1.0, 0.0]) == np.inf
    assert H.support([0.0, -1.0]) == np.inf
    assert H.inscribed_radius() == np.inf and not H.is_empty()


def test_parallel_rows():
    # a box with each side given twice, once farther out
    P = Polytope(np.vstack([BOX_C, BOX_C, BOX_C]),
                 np.concatenate([np.ones(4), 2 * np.ones(4), np.ones(4)]))
    lo, hi = P.bounding_box()
    assert bits(lo) + bits(hi) == bits(lp_box(P)[0]) + bits(lp_box(P)[1])
    assert redundant(P.C[4], P.d[4], np.delete(P.C, 4, 0),
                     np.delete(P.d, 4))


def test_three_rows_through_one_vertex():
    # triangle x1 >= 0, x2 >= 0, x1 + x2 <= 1, plus x1 - x2 <= 1 through
    # the vertex (1, 0): it touches the set there and nowhere else
    C = [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0]]
    P = Polytope(C, [0.0, 0.0, 1.0, 1.0])
    assert bits(P.bounding_box()) == bits(lp_box(P))
    assert P.support(P.C[3]) == lp_support(P.C, P.d, P.C[3])
    assert redundant(P.C[3], P.d[3], P.C[:3], P.d[:3])


def test_empty_facet():
    # x1 <= 5 on the unit box: the facet x1 = 5 misses the set, so the
    # box's 4 vertices are all and the row is implied
    P = Polytope(np.vstack([BOX_C, [[1.0, 0.0]]]), [1, 1, 1, 1, 5.0])
    assert len(vertices(P.C, P.d)) == 4
    assert P.support(P.C[4]) == lp_support(P.C, P.d, P.C[4]) == 1.0
    assert redundant(P.C[4], P.d[4], P.C[:4], P.d[:4])


# -- no LP ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_setup_calls_no_lp(name, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    # no package module holds a linprog imported before the patch
    assert not [mod for key, mod in sys.modules.items()
                if key.startswith("convexnmpc") and hasattr(mod, "linprog")]
    pipe = build_pipeline(RunConfig(system=str(PACKAGED / f"{name}.json"),
                                    c=np.array([5.0, -1.0])))
    report = cn.validate_assumption1(pipe.spec)  # ex1 fails it by design
    assert len(report.region_reports) == pipe.spec.n_regions
