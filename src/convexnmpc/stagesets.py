"""Convex stage sets in (x, v)-space, one per state region.

Each set couples region membership with the state-dependent interval that
b0 v - alpha.x must lie in. On a region where beta*g >= 0 the interval is
[beta g(x) u_lo, beta g(x) u_hi]; on a region where beta*g <= 0 the bounds
swap. Under the curvature assumptions both defining inequalities are convex.

Constraints are exposed as (value, gradient, Hessian) oracles in the joint
variable z = (x, v), in three forms: AffineCon for affine gains, QuadCon for
quadratic ones and RidgeCon (a tangent-extended cosine ridge plus a linear
term) for sinusoidal ones. Each form stays in its form when composed with
the prediction map. Piecewise-affine gains are expanded into one affine row
per relevant affine piece, so those stage sets are purely polyhedral and the
downstream subproblems become QPs.
"""
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SignAmbiguousError
from .geometry import MEMBERSHIP_TOL, Polytope
from .linearize import v_of_u
from .model import (EPS_G, Affine, PwaField, Quadratic, Sinusoid,
                    region_membership)


def _readonly(a):
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# constraint oracles (value <= 0 convention)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineCon:
    """row.z - offset <= 0"""

    row: np.ndarray
    offset: float
    kind = "affine"

    def value(self, z):
        return float(self.row @ z - self.offset)

    def value_batch(self, Z):
        return Z @ self.row - self.offset

    def grad(self, z):
        return self.row.copy()

    def hess(self, z):
        m = self.row.shape[0]
        return np.zeros((m, m))


@dataclass(frozen=True)
class QuadCon:
    """0.5 z'Hz + w.z + c0 <= 0"""

    H: np.ndarray
    w: np.ndarray
    c0: float
    kind = "quadratic"

    def value(self, z):
        return float(0.5 * z @ self.H @ z + self.w @ z + self.c0)

    def value_batch(self, Z):
        return (0.5 * np.einsum("ij,jk,ik->i", Z, self.H, Z)
                + Z @ self.w + self.c0)

    def grad(self, z):
        return self.H @ z + self.w

    def hess(self, z):
        return self.H


@dataclass(frozen=True)
class RidgeCon:
    """scale * cos~(freq * dir.(X z + x_off) + phase) + lin.z + c <= 0.

    cos~ is the cosine on the phase band [lo, hi], continued along its
    tangents outside it. The band is where the scaled cosine is convex, so
    the continuation keeps the constraint convex on all of R^d. Built from a
    region's band, the constraint agrees with the raw sinusoid bound on the
    region, so the stage set is untouched, while phase-I iterates that stray
    outside the band see a convex landscape and cannot stall in spurious
    local minima. In a stage set X = [I 0], x_off = 0 and c = 0; composed
    with an affine map z = M y + m it is a RidgeCon again, with X M,
    X m + x_off, lin M and lin.m + c.
    """

    scale: float
    freq: float
    dir: np.ndarray
    phase: float
    lo: float
    hi: float
    X: np.ndarray
    x_off: np.ndarray
    lin: np.ndarray
    c: float
    kind = "smooth"

    def _branch(self, x):
        """cos~ at the phase of x (rows of x for a batch), with its slope
        and curvature in the phase."""
        th = self.freq * (x @ self.dir) + self.phase
        lo, hi = self.lo, self.hi
        th_c = np.clip(th, lo, hi)
        val = self.scale * np.cos(th_c)
        slope = -self.scale * np.sin(th_c)
        return val + slope * (th - th_c), slope, np.where(
            (th < lo) | (th > hi), 0.0, -self.scale * np.cos(th_c))

    def value(self, z):
        val, _, _ = self._branch(self.X @ z + self.x_off)
        return float(val + self.lin @ z + self.c)

    def value_batch(self, Z):
        val, _, _ = self._branch(Z @ self.X.T + self.x_off)
        return val + Z @ self.lin + self.c

    def grad(self, z):
        _, slope, _ = self._branch(self.X @ z + self.x_off)
        return self.X.T @ (float(slope) * self.freq * self.dir) + self.lin

    def hess(self, z):
        _, _, curv = self._branch(self.X @ z + self.x_off)
        return self.X.T @ (float(curv) * self.freq ** 2
                           * np.outer(self.dir, self.dir)) @ self.X


def _gain_bound_constraint(field, g_coef, alpha, b0, upper, region):
    """One side of the interval condition as a constraint oracle in (x, v).

    lower side: g_coef*g(x) - (b0 v - alpha.x) <= 0
    upper side: (b0 v - alpha.x) - g_coef*g(x) <= 0

    A sinusoidal gain is tangent-extended outside the region's phase band.
    """
    n = alpha.shape[0]
    lin = np.zeros(n + 1)
    if upper:
        lin[:n] = -alpha
        lin[n] = b0
        coef = -g_coef
    else:
        lin[:n] = alpha
        lin[n] = -b0
        coef = g_coef
    if isinstance(field, Affine):
        row = lin.copy()
        row[:n] += coef * field.w
        return AffineCon(row, -coef * field.d)
    if isinstance(field, Quadratic):
        H = np.zeros((n + 1, n + 1))
        H[:n, :n] = coef * field.H
        w = lin.copy()
        w[:n] += coef * field.w
        return QuadCon(H, w, coef * field.d)
    if isinstance(field, Sinusoid):
        lo = -region.support(-field.freq * field.dir)
        hi = region.support(field.freq * field.dir)
        return RidgeCon(scale=coef * field.amp, freq=field.freq,
                        dir=_readonly(field.dir.copy()), phase=field.phase,
                        lo=lo + field.phase, hi=hi + field.phase,
                        X=_readonly(np.eye(n, n + 1)),
                        x_off=_readonly(np.zeros(n)), lin=_readonly(lin),
                        c=0.0)
    raise TypeError(f"no stage constraint for gain {type(field).__name__}")


def _thin_slab(region, piece, r_min):
    """True when a region row and an exactly negated piece row leave a slab
    no wider than 2 r_min: a ball inside both polytopes lies between the
    two rows, so its radius is at most half the width d_i + d_j. It spares
    76 of ex3's 108 lifted vertex enumerations, 0.03 s of its set-up."""
    anti = np.all(region.C[:, None, :] == -piece.C[None, :, :], axis=2)
    return bool(np.any((region.d[:, None] + piece.d[None, :])[anti]
                       <= 2 * r_min))


def _overlapping_pieces(pieces, region):
    """(w, d) of the PWA pieces meeting the region in a full-dimensional set
    (Chebyshev radius above 1e-9). The radius, read off the vertices of the
    lifted intersection, decides only the pairs that no thin slab settles."""
    out = [(w, d) for piece, w, d in pieces
           if not _thin_slab(region, piece, 1e-9)
           and region.intersect(piece).inscribed_radius() > 1e-9]
    if not out:
        raise PreconditionError("no pwa piece overlaps the region interior")
    return out


@dataclass(frozen=True)
class StageSet:
    """Convex stage constraint for one region.

    Attributes
    ----------
    index : 1-based region index.
    region : state polytope X_i.
    sign_beta_g : +1 if beta*g >= 0 on the region, else -1.
    constraints : interval-side oracles in z = (x, v).
    kind : 'affine' | 'quadratic' | 'smooth' (worst constraint class).
    lifted_C, lifted_d : region rows lifted to (x, v)-space.
    """

    index: int
    region: Polytope
    sign_beta_g: int
    constraints: tuple
    kind: str
    lifted_C: np.ndarray
    lifted_d: np.ndarray

    def all_values(self, x, v):
        z = np.concatenate([np.asarray(x, dtype=float), [float(v)]])
        vals = [con.value(z) for con in self.constraints]
        vals.extend(self.lifted_C @ z - self.lifted_d)
        return np.array(vals)

    def contains(self, x, v, tol=MEMBERSHIP_TOL):
        # the region rows first: most points that miss a set miss its region
        return (self.region.contains(x, tol)
                and bool(np.max(self.all_values(x, v)) <= tol))


def _check_sign(spec, lin, idx, region, expected_sign, seed):
    pts = region.sample(256, seed=seed + 97 * idx)
    vals = lin.beta * spec.g.value(pts)
    has_pos = bool(np.any(vals > EPS_G))
    has_neg = bool(np.any(vals < -EPS_G))
    if has_pos and has_neg:
        raise SignAmbiguousError(
            f"beta*g changes sign strictly inside region {idx}", region=idx)
    observed = 1 if has_pos else (-1 if has_neg else expected_sign)
    if observed != expected_sign:
        raise SignAmbiguousError(
            f"beta*g has sign {observed:+d} on region {idx} but the declared "
            f"sign implies {expected_sign:+d}", region=idx)


def build_stage_sets(spec, lin, seed=0):
    """One stage set per region, with the interval orientation fixed by the
    sign of beta*g there. Raises SignAmbiguousError when 256 samples find a
    strict sign change inside a region (assumption violation)."""
    n = spec.n
    beta_sign = 1 if lin.beta > 0 else -1
    sets = []
    for idx, (region, sigma) in enumerate(spec.regions, start=1):
        sign_beta_g = sigma * beta_sign
        _check_sign(spec, lin, idx, region, sign_beta_g, seed)
        lo_mult = spec.u_lo if sign_beta_g > 0 else spec.u_hi
        hi_mult = spec.u_hi if sign_beta_g > 0 else spec.u_lo
        # a concave (convex) PWA gain is the min (max) of the affine
        # extensions of the pieces meeting the region: one row per piece
        gains = ([Affine(w, d) for w, d in
                  _overlapping_pieces(spec.g.pieces, region)]
                 if isinstance(spec.g, PwaField) else [spec.g])
        cons = tuple(
            _gain_bound_constraint(g, lin.beta * mult, lin.alpha, lin.b0,
                                   upper=upper, region=region)
            for upper, mult in ((False, lo_mult), (True, hi_mult))
            for g in gains)
        kinds = {con.kind for con in cons}
        kind = ("smooth" if "smooth" in kinds
                else "quadratic" if "quadratic" in kinds else "affine")
        lifted_C = np.hstack([region.C, np.zeros((region.n_rows, 1))])
        sets.append(StageSet(index=idx, region=region, sign_beta_g=sign_beta_g,
                             constraints=cons, kind=kind, lifted_C=lifted_C,
                             lifted_d=region.d.copy()))
    return sets


def stage_membership(zsets, x, v, tol=MEMBERSHIP_TOL):
    """Indices of all stage sets containing (x, v) within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return {zs.index for zs in zsets if zs.contains(x, v, tol)}


def lemma1_forward(spec, lin, x, u, tol=MEMBERSHIP_TOL):
    """Map an admissible (x, u) to its (x, v) image.

    The image is guaranteed to belong to at least one stage set; exposed for
    diagnostics and property testing.
    """
    x = np.asarray(x, dtype=float)
    if not region_membership(spec, x, tol):
        raise PreconditionError("state lies outside the constraint set")
    if not (spec.u_lo - tol <= float(u) <= spec.u_hi + tol):
        raise PreconditionError("input lies outside the admissible interval")
    return x, v_of_u(lin, spec, x, u)


def in_union_direct(spec, lin, x, v, tol=MEMBERSHIP_TOL):
    """Two-branch definition of the joint constraint set, evaluated directly.

    Used as the independent reference for the decomposed membership test:
    where the gain is nonzero, Psi(x, v) must be an admissible input; on the
    gain's zero set, v is pinned to alpha.x / b0.
    """
    x = np.asarray(x, dtype=float)
    if not region_membership(spec, x, tol):
        return False
    gx = float(spec.g.value(x))
    if abs(gx) > EPS_G:
        u = (lin.b0 * float(v) - lin.alpha @ x) / (lin.beta * gx)
        # tolerance consistent with the decomposed inequalities, which are
        # expressed in b0*v - alpha.x units
        slack = tol / abs(lin.beta * gx)
        return spec.u_lo - slack <= u <= spec.u_hi + slack
    return abs(lin.b0 * float(v) - lin.alpha @ x) <= tol
