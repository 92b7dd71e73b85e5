"""Polytopes in halfspace form and ellipsoidal sublevel sets.

Rows of a :class:`Polytope` are normalized to unit Euclidean length at
construction so that redundancy tests and row deduplication work on a
canonical form. Bounding boxes, supports and redundancy tests are read off
the exact vertices of the set (:func:`vertices`), taken within the box
``|x_k| <= BOX``, and the Chebyshev ball off those of the lifted set
{(x, r) | C x + r <= d}; no linear program is solved. The centre seeds the
solver's free-x0 starts, so where several x attain the largest r it is one
fixed choice: the lexicographically largest, zeros signed -0, which is what
the HiGHS LP of the tests returns on every shipped region.
"""
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.stats import qmc

from .errors import RegionEmptyError

# Shared absolute tolerances (see also model.EPS_G).
MEMBERSHIP_TOL = 1e-8
REDUNDANCY_TOL = 1e-9
# A vertex may exceed a row by VERTEX_TOL; rows (of unit norm) whose |det|
# is at most SINGULAR_TOL meet in no vertex. BOX bounds every coordinate,
# the lifted r included: a set that reaches it counts as unbounded.
VERTEX_TOL = 1e-9
SINGULAR_TOL = 1e-12
BOX = 1e6


@dataclass(frozen=True)
class Polytope:
    """Set {x | C x <= d} with unit-norm rows.

    Parameters
    ----------
    C : (m, n) array_like
        Row normals. Zero rows are rejected.
    d : (m,) array_like
        Offsets, rescaled together with the rows.
    """

    C: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if C.shape[0] != d.shape[0]:
            raise ValueError("C and d row counts differ")
        norms = np.linalg.norm(C, axis=1)
        if np.any(norms < 1e-14):
            raise ValueError("zero row in polytope normals")
        C = C / norms[:, None]
        d = d / norms
        C.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)

    @property
    def dim(self):
        return self.C.shape[1]

    @property
    def n_rows(self):
        return self.C.shape[0]

    def violation(self, x):
        """Largest residual max_i (C_i x - d_i); <= 0 means membership."""
        x = np.asarray(x, dtype=float)
        return float(np.max(self.C @ x - self.d))

    def contains(self, x, tol=0.0):
        return bool((self.C @ x - self.d).max() <= tol)

    def contains_batch(self, X, tol=0.0):
        """Vectorized membership for points stacked as rows of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.max(X @ self.C.T - self.d, axis=1) <= tol

    def chebyshev_center(self):
        """Center and radius of the largest inscribed ball within |x| <= BOX:
        the lexicographically largest x among the lifted vertices of largest
        r, zeros signed -0 (read-only), and :meth:`inscribed_radius`; (None,
        -inf) if no lifted vertex lies in the box."""
        return self._chebyshev

    @cached_property
    def _chebyshev(self):
        V = self._lifted_vertices
        if not len(V):
            return None, -np.inf
        _, top = _maximisers(V, np.eye(self.dim + 1)[-1])
        center = -(0.0 - np.array(max(top[:, :-1].tolist())))
        center.setflags(write=False)
        return center, self.inscribed_radius()

    def is_empty(self):
        return self.inscribed_radius() < -1e-9

    def assert_nonempty(self, what="region"):
        if self.is_empty():
            raise RegionEmptyError(f"{what} is empty", rows=self.n_rows)
        return self

    @cached_property
    def _vertices(self):
        return vertices(self.C, self.d)

    @cached_property
    def _lifted_vertices(self):
        """Vertices of {(x, r) | C x + r <= d} (rows of unit norm)."""
        return vertices(np.hstack([self.C, np.ones((self.n_rows, 1))]),
                        self.d)

    def inscribed_radius(self):
        """The Chebyshev radius: the support along r of the lifted set.
        Negative if empty, inf if unbounded."""
        return _support(self._lifted_vertices, np.eye(self.dim + 1)[-1])

    def bounding_box(self):
        """Componentwise (lo, hi) over the vertices."""
        V = self._vertices
        if not len(V) or np.any(np.abs(V) >= BOX * (1.0 - VERTEX_TOL)):
            raise ValueError("polytope is empty or unbounded")
        # zeros signed as an LP's min e.x and -min -e.x give them: +0, -0
        return V.min(axis=0) + 0.0, -(0.0 - V.max(axis=0))

    def support(self, direction):
        """max direction.x over the polytope; inf if unbounded, -inf if empty."""
        return _support(self._vertices, np.asarray(direction, dtype=float))

    def intersect(self, other):
        return Polytope(np.vstack([self.C, other.C]),
                        np.concatenate([self.d, other.d]))

    def sample(self, n_points, seed):
        """Deterministic low-discrepancy interior samples (Halton + rejection)."""
        lo, hi = self.bounding_box()
        eng = qmc.Halton(d=self.dim, seed=seed)
        out = []
        for _ in range(200):  # blocks tried
            block = lo + (hi - lo) * eng.random(max(4 * n_points, 64))
            keep = self.contains_batch(block, tol=0.0)
            out.extend(block[keep])
            if len(out) >= n_points:
                break
        center, r = self.chebyshev_center()
        if center is not None:
            out.append(center)
        if not out:
            raise RegionEmptyError("no interior samples found")
        return np.array(out[:n_points])


def dedup_rows(C, d):
    """Drop rows that duplicate an earlier (normalized) row with >= offset."""
    keep_C, keep_d = [], []
    for row, off in zip(C, d):
        duplicate = False
        for krow, koff in zip(keep_C, keep_d):
            if row @ krow > 1.0 - 1e-12:
                if off >= koff - 1e-15:
                    duplicate = True
                break
        if not duplicate:
            keep_C.append(row)
            keep_d.append(off)
    return np.array(keep_C), np.array(keep_d)


def rows_redundant(rows, offsets, C, d, tol=REDUNDANCY_TOL):
    """Which rows[k].x <= offsets[k] {C x <= d} already implies: those whose
    support, from one enumeration of the set's vertices, is at most
    offsets[k] + tol (an empty set implies every row)."""
    V = vertices(C, d)
    return np.array([_support(V, row) <= off + tol
                     for row, off in zip(rows, offsets)], dtype=bool)


def reduce_rows(C, d, tol=REDUNDANCY_TOL):
    """Minimal representation: drop, in order, each row that the rows still
    kept imply. One enumeration serves every test: row i reads the subset
    solutions that satisfy the kept rows but i, which hold the vertices of
    their set and otherwise only points in it, so the support is the same."""
    m = C.shape[0]
    X, ok = _subset_solutions(C, d, BOX)
    keep = np.ones(ok.shape[1], dtype=bool)
    for i in range(m):
        keep[i] = False
        V = X[ok[:, keep].all(axis=1)]
        keep[i] = keep[:m].sum() == 0 or _support(V, C[i]) > d[i] + tol
    return C[keep[:m]], d[keep[:m]]


def vertices(C, d, box=BOX):
    """Vertices of {x | C x <= d, |x_k| <= box}, one row each.

    Every n-subset of the rows (box rows included) is solved in one batched
    ``np.linalg.solve``: the cost is C(m + 2n, n) n-by-n solves for m rows,
    which grows like m^n. It is meant for the few-row polytopes of a planar
    state space. Singular subsets are skipped; a solution is kept when it
    satisfies every row within VERTEX_TOL, once per regular subset it
    solves. An empty set has none.
    """
    X, ok = _subset_solutions(C, d, box)
    return X[ok.all(axis=1)]


def _subset_solutions(C, d, box):
    """Solutions X of the regular n-subsets of the boxed rows, and ok[k, j]:
    X[k] satisfies row j within VERTEX_TOL (box rows last)."""
    n = C.shape[1]
    C = np.vstack([C, np.eye(n), -np.eye(n)])
    d = np.concatenate([d, np.full(2 * n, box)])
    sub = np.array(list(combinations(range(len(C)), n)), dtype=np.intp)
    A, b = C[sub], d[sub]
    regular = np.abs(np.linalg.det(A)) > SINGULAR_TOL
    X = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
    return X, X @ C.T - d <= VERTEX_TOL


def _maximisers(V, direction):
    """max direction.x over the rows of V, and the rows within VERTEX_TOL
    (relative, above 1) of it."""
    vals = V @ direction
    top = vals.max()
    return top, V[vals >= top - VERTEX_TOL * max(1.0, abs(top))]


def _support(V, direction):
    """max direction.x from the vertices V of a set boxed by BOX: -inf if
    there are none, inf if every maximiser lies on one face of the box."""
    if not len(V):
        return -np.inf
    top, arg = _maximisers(V, direction)
    edge = BOX * (1.0 - VERTEX_TOL)
    if np.any(np.all(arg >= edge, axis=0) | np.all(arg <= -edge, axis=0)):
        return np.inf
    return float(-(0.0 - top))  # a zero is -0, as -min -direction.x


@dataclass(frozen=True)
class Ellipsoid:
    """Set {x | x' P_shape x <= level} with P_shape symmetric positive definite."""

    P_shape: np.ndarray
    level: float

    def __post_init__(self):
        P = np.asarray(self.P_shape, dtype=float)
        P = 0.5 * (P + P.T)
        P.setflags(write=False)
        object.__setattr__(self, "P_shape", P)
        object.__setattr__(self, "level", float(self.level))

    @property
    def dim(self):
        return self.P_shape.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.P_shape @ x)

    def violation(self, x):
        return self.value(x) - self.level

    def contains(self, x, tol=0.0):
        return self.violation(x) <= tol

    @cached_property
    def half_inverse(self):
        """P_shape^(-1/2), symmetric: it maps the unit sphere onto the
        shell x' P_shape x = 1."""
        w, V = np.linalg.eigh(self.P_shape)
        if np.any(w <= 0):
            raise ValueError("shape matrix is not positive definite")
        return V @ np.diag(1.0 / np.sqrt(w)) @ V.T

    def boundary_points(self, n_points, seed):
        """n_points deterministic points of the shell x' P_shape x = level,
        along unit directions drawn from seed."""
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_points, self.dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms < 1e-14] = 1.0
        return np.sqrt(self.level) * (dirs / norms) @ self.half_inverse.T
