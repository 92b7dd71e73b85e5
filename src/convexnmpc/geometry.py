"""Polytopes in halfspace form and ellipsoidal sublevel sets.

All linear programs go through scipy's HiGHS backend. Rows of a
:class:`Polytope` are normalized to unit Euclidean length at construction so
that redundancy tests and row deduplication work on a canonical form.
"""
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.stats import qmc

from .errors import RegionEmptyError

# Shared absolute tolerances (see also model.EPS_G).
MEMBERSHIP_TOL = 1e-8
REDUNDANCY_TOL = 1e-9


def _as_matrix(C):
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return C


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
        C = _as_matrix(self.C)
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
        return self.violation(x) <= tol

    def contains_batch(self, X, tol=0.0):
        """Vectorized membership for points stacked as rows of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.max(X @ self.C.T - self.d, axis=1) <= tol

    def chebyshev_center(self):
        """Center and radius of the largest inscribed ball.

        Solved with artificial box bounds so unbounded polytopes still give a
        finite interior point; the radius is then a lower bound only. The LP
        runs once per polytope; the center returned is read-only.
        """
        return self._chebyshev

    @cached_property
    def _chebyshev(self):
        n = self.dim
        # max r  s.t.  C x + r <= d  (rows are unit norm), |x| <= 1e6
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A_ub = np.hstack([self.C, np.ones((self.n_rows, 1))])
        res = linprog(c, A_ub=A_ub, b_ub=self.d,
                      bounds=[(-1e6, 1e6)] * n + [(None, 1e6)],
                      method="highs")
        if res.status != 0:
            return None, -np.inf
        center = res.x[:n]
        center.setflags(write=False)
        return center, float(res.x[-1])

    def is_empty(self, tol=1e-9):
        _, r = self.chebyshev_center()
        return r < -tol

    def assert_nonempty(self, what="region"):
        if self.is_empty():
            raise RegionEmptyError(f"{what} is empty", rows=self.n_rows)
        return self

    def bounding_box(self):
        """Componentwise (lo, hi) via 2n LPs."""
        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            for sign, out in ((1.0, lo), (-1.0, hi)):
                res = linprog(sign * e, A_ub=self.C, b_ub=self.d,
                              bounds=[(None, None)] * n, method="highs")
                if res.status != 0:
                    raise ValueError("polytope is empty or unbounded")
                out[i] = sign * res.fun
        return lo, hi

    def support(self, direction):
        """max direction.x over the polytope; np.inf if unbounded."""
        res = linprog(-np.asarray(direction, dtype=float),
                      A_ub=self.C, b_ub=self.d,
                      bounds=[(None, None)] * self.dim, method="highs")
        if res.status == 3:
            return np.inf
        if res.status != 0:
            return -np.inf
        return float(-res.fun)

    def intersect(self, other):
        return Polytope(np.vstack([self.C, other.C]),
                        np.concatenate([self.d, other.d]))

    def sample(self, n_points, seed, max_tries=200):
        """Deterministic low-discrepancy interior samples (Halton + rejection)."""
        lo, hi = self.bounding_box()
        eng = qmc.Halton(d=self.dim, seed=seed)
        out = []
        for _ in range(max_tries):
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

    def ray_boundary_point(self, direction, origin=None):
        """Farthest point origin + t*direction still inside (t >= 0)."""
        x0 = np.zeros(self.dim) if origin is None else np.asarray(origin, float)
        num = self.d - self.C @ x0
        den = self.C @ np.asarray(direction, dtype=float)
        pos = den > 1e-14
        if not np.any(pos):
            return None
        t = np.min(num[pos] / den[pos])
        return x0 + t * np.asarray(direction, dtype=float)


def dedup_rows(C, d, cos_tol=1e-12):
    """Drop rows that duplicate an earlier (normalized) row with >= offset."""
    keep_C, keep_d = [], []
    for row, off in zip(C, d):
        duplicate = False
        for krow, koff in zip(keep_C, keep_d):
            if row @ krow > 1.0 - cos_tol:
                if off >= koff - 1e-15:
                    duplicate = True
                break
        if not duplicate:
            keep_C.append(row)
            keep_d.append(off)
    return np.array(keep_C), np.array(keep_d)


def row_redundant(row, offset, C, d, tol=REDUNDANCY_TOL):
    """True if {C x <= d} already implies row.x <= offset (LP certificate)."""
    res = linprog(-row, A_ub=C, b_ub=d, bounds=[(None, None)] * C.shape[1],
                  method="highs")
    if res.status == 3:  # unbounded above: definitely not redundant
        return False
    if res.status != 0:  # infeasible accumulated set: everything is implied
        return True
    return -res.fun <= offset + tol


def reduce_rows(C, d, tol=REDUNDANCY_TOL):
    """Minimal representation: drop rows redundant w.r.t. the others."""
    C = C.copy()
    d = d.copy()
    i = 0
    while i < C.shape[0]:
        mask = np.ones(C.shape[0], dtype=bool)
        mask[i] = False
        if C[mask].shape[0] and row_redundant(C[i], d[i], C[mask], d[mask], tol):
            C, d = C[mask], d[mask]
        else:
            i += 1
    return C, d


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

    def boundary_points(self, n_points, seed):
        dirs = unit_directions(n_points, self.dim, seed)
        w, V = np.linalg.eigh(self.P_shape)
        if np.any(w <= 0):
            raise ValueError("shape matrix is not positive definite")
        half_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        return np.sqrt(self.level) * dirs @ half_inv.T


def unit_directions(n_points, dim, seed):
    """Deterministic unit vectors; shared by set construction and checks."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_points, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms < 1e-14] = 1.0
    return dirs / norms
