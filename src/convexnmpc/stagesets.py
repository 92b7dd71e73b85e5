"""Convex stage sets in (x, v)-space, one per state region.

Each set couples region membership with the state-dependent interval that
b0 v - alpha.x must lie in. On a region where beta*g >= 0 the interval is
[beta g(x) u_lo, beta g(x) u_hi]; on a region where beta*g <= 0 the bounds
swap. Under the curvature assumptions both defining inequalities are convex.

A stage set's constraints are one stacked value (Constraints) in the joint
variable z = (x, v), with values and gradients: affine rows for affine
gains, quadratics for quadratic ones and tangent-extended cosine ridges
plus a linear term for sinusoidal ones. Each form stays in its form when
composed with the prediction map, so the programs built from the stage
sets hold their constraints in the same stacked value. Piecewise-affine
gains are expanded into one affine row per relevant affine piece, so those
stage sets are purely polyhedral and the downstream subproblems become
QPs.

The sign of beta*g, which orients each region's interval, is decided
exactly at the region's vertices for an affine gain and for the affine
pieces of a PWA gain; a quadratic or sinusoidal gain is checked on samples.
"""
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import PreconditionError, SignAmbiguousError
from .geometry import MEMBERSHIP_TOL, Polytope, vertices
from .linearize import v_of_u
from .model import (EPS_G, Affine, PwaField, Quadratic, Sinusoid,
                    region_membership)


def _readonly(a):
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# constraints (value <= 0 convention)
# ---------------------------------------------------------------------------

def _dots(rows, z):
    """rows[k].z for each k, one dot product per row: a stacked matrix
    product rounds differently from the per-row ones."""
    return (rows[:, None, :] @ z[:, None])[:, 0, 0]


FORMS = (("rows", "offsets"),
         ("scale", "freq", "dir", "phase", "lo", "hi", "X", "x_off", "lin",
          "c"),
         ("H", "w", "c0"))


@dataclass(frozen=True)
class Constraints:
    """Convex inequalities f(z) <= 0 in z, stacked by form: affine rows,
    then ridges, then quadratics, each form in its own order.

    - affine:    rows.z - offsets
    - ridge:     scale * cos~(freq * dir.(X z + x_off) + phase) + lin.z + c
    - quadratic: 0.5 z'Hz + w.z + c0

    cos~ is the cosine on the phase band [lo, hi], continued along its
    tangents outside it. The band is where the scaled cosine is convex, so
    the continuation keeps the constraint convex on all of R^d. Built from a
    region's band, the constraint agrees with the raw sinusoid bound on the
    region, so the stage set is untouched, while phase-I iterates that stray
    outside the band see a convex landscape and cannot stall in spurious
    local minima. In a stage set X = [I 0], x_off = 0 and c = 0.

    Each form keeps its form under an affine map z = M y + m: shift(m),
    then lift(M). Every product is taken per constraint (matrix products
    per slice of a stack, vector products over a unit axis), so a stack of
    constraints rounds as each of them alone.
    """

    rows: np.ndarray  # (a, d)
    offsets: np.ndarray  # (a,)
    scale: np.ndarray  # (r,)
    freq: np.ndarray  # (r,)
    dir: np.ndarray  # (r, n)
    phase: np.ndarray  # (r,)
    lo: np.ndarray  # (r,)
    hi: np.ndarray  # (r,)
    X: np.ndarray  # (r, n, d)
    x_off: np.ndarray  # (r, n)
    lin: np.ndarray  # (r, d)
    c: np.ndarray  # (r,)
    H: np.ndarray  # (q, d, d)
    w: np.ndarray  # (q, d)
    c0: np.ndarray  # (q,)

    @classmethod
    def of(cls, d, n, **given):
        """Constraints on z in R^d with ridge phases on x in R^n, from the
        given fields (one entry per constraint); the others are empty."""
        shapes = {"rows": (d,), "dir": (n,), "X": (n, d), "x_off": (n,),
                  "lin": (d,), "H": (d, d), "w": (d,)}
        return cls(**{name: _readonly(np.array(
            given.get(name, np.zeros((0,) + shapes.get(name, ()))),
            dtype=float)) for form in FORMS for name in form})

    @classmethod
    def join(cls, parts):
        """The constraints of all parts, each form in the parts' order."""
        out = {}
        for form in FORMS:
            some = [p for p in parts if len(getattr(p, form[0]))] or parts[:1]
            out.update({name: getattr(some[0], name) if len(some) == 1
                        else _readonly(np.concatenate([getattr(p, name)
                                                       for p in some]))
                        for name in form})
        return cls(**out)

    def __len__(self):
        return len(self.rows) + len(self.scale) + len(self.c0)

    @property
    def kind(self):
        """'smooth' with a ridge, else 'quadratic' with a quadratic, else
        'affine'."""
        return ("smooth" if len(self.scale)
                else "quadratic" if len(self.c0) else "affine")

    def shift(self, m):
        """The constraints of z + m, as constraints in z."""
        new = {}
        if len(self.rows):
            new["offsets"] = self.offsets - _dots(self.rows, m)
        if len(self.scale):
            new.update(x_off=self.X @ m + self.x_off,
                       c=_dots(self.lin, m) + self.c)
        if len(self.c0):
            new.update(w=self.H @ m + self.w,
                       c0=(_dots((0.5 * m) @ self.H, m) + _dots(self.w, m)
                           + self.c0))
        return replace(self, **{k: _readonly(a) for k, a in new.items()})

    def lift(self, M):
        """The constraints of M y, as constraints in y."""
        H = M.T @ self.H @ M
        return replace(self, rows=_readonly((self.rows[:, None, :] @ M)[:, 0]),
                       X=_readonly(self.X @ M),
                       lin=_readonly((self.lin[:, None, :] @ M)[:, 0]),
                       H=_readonly(0.5 * (H + H.transpose(0, 2, 1))),
                       w=_readonly((M.T @ self.w[:, :, None])[:, :, 0]))

    def _phase(self, z):
        """The ridges' phase at z, as freq * dir.(X z + x_off) + phase, and
        clipped to the band."""
        x = (self.X @ z[:, None])[:, :, 0] + self.x_off
        th = (self.freq * (x[:, None, :] @ self.dir[:, :, None])[:, 0, 0]
              + self.phase)
        return th, np.clip(th, self.lo, self.hi)

    def values(self, z):
        """f(z) of every constraint, in order."""
        return np.concatenate([_dots(self.rows, z) - self.offsets,
                               self.curved_values(z)])

    def curved_values(self, z):
        """f(z) of the ridges, then of the quadratics."""
        out = [np.zeros(0)]
        if len(self.scale):
            th, thc = self._phase(z)
            out.append(self.scale * np.cos(thc)
                       + -self.scale * np.sin(thc) * (th - thc)
                       + _dots(self.lin, z) + self.c)
        if len(self.c0):
            out.append(_dots((0.5 * z) @ self.H, z) + _dots(self.w, z)
                       + self.c0)
        return np.concatenate(out)

    def values_batch(self, Z):
        """f at each row of Z: one row of values per point."""
        out = [(Z @ self.rows[:, :, None])[:, :, 0] - self.offsets[:, None]]
        if len(self.scale):
            x = Z @ self.X.transpose(0, 2, 1) + self.x_off[:, None, :]
            th = (self.freq[:, None] * (x @ self.dir[:, :, None])[:, :, 0]
                  + self.phase[:, None])
            thc = np.clip(th, self.lo[:, None], self.hi[:, None])
            scale = self.scale[:, None]
            out.append(scale * np.cos(thc) + -scale * np.sin(thc) * (th - thc)
                       + (Z @ self.lin[:, :, None])[:, :, 0] + self.c[:, None])
        # one einsum per quadratic: a stacked one rounds differently
        out += [0.5 * np.einsum("ij,jk,ik->i", Z, H, Z) + Z @ w + c0
                for H, w, c0 in zip(self.H, self.w, self.c0)]
        return np.vstack(out).T

    def grads(self, z):
        """The gradient of every constraint at z, one row each, in order."""
        out = [self.rows]
        if len(self.scale):
            _, thc = self._phase(z)
            u = ((-self.scale * np.sin(thc)) * self.freq)[:, None] * self.dir
            out.append((self.X.transpose(0, 2, 1) @ u[:, :, None])[:, :, 0]
                       + self.lin)
        if len(self.c0):
            out.append(self.H @ z + self.w)
        return np.concatenate(out)

    def curved_grads_batch(self, Z):
        """The gradients of the ridges (their phase as the barrier rounds
        it), then of the quadratics, at each row of Z: an array (points,
        constraints, d)."""
        q, r = self.barrier_phase
        slope = -self.scale * np.sin(np.clip(Z @ q.T + r, self.lo, self.hi))
        return np.concatenate([slope[:, :, None] * q + self.lin, (
            Z @ self.H + self.w[:, None, :]).transpose(1, 0, 2)], axis=1)

    @cached_property
    def barrier_phase(self):
        """(q, r): the ridges' phase as q.z + r with q = freq * X'dir and
        r = freq * (dir.x_off) + phase, the barrier's rounding of it."""
        q = self.freq[:, None] * (self.X.transpose(0, 2, 1)
                                  @ self.dir[:, :, None])[:, :, 0]
        r = (self.freq * (self.dir[:, None, :]
                          @ self.x_off[:, :, None])[:, 0, 0] + self.phase)
        return q, r


def _gain_bound_constraint(field, g_coef, alpha, b0, upper, region):
    """One side of the interval condition as one constraint in (x, v).

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
        return Constraints.of(n + 1, n, rows=[row], offsets=[-coef * field.d])
    if isinstance(field, Quadratic):
        H = np.zeros((n + 1, n + 1))
        H[:n, :n] = coef * field.H
        w = lin.copy()
        w[:n] += coef * field.w
        return Constraints.of(n + 1, n, H=[H], w=[w], c0=[coef * field.d])
    if isinstance(field, Sinusoid):
        lo = -region.support(-field.freq * field.dir)
        hi = region.support(field.freq * field.dir)
        return Constraints.of(
            n + 1, n, scale=[coef * field.amp], freq=[field.freq],
            dir=[field.dir], phase=[field.phase], lo=[lo + field.phase],
            hi=[hi + field.phase], X=[np.eye(n, n + 1)], x_off=[np.zeros(n)],
            lin=[lin], c=[0.0])
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
    """Convex stage constraint for one region: the region's rows, then the
    interval sides, in z = (x, v), composed with an affine map
    z = M y + m by lift(M) once and shift(lift(M), M, m) per m.

    Attributes
    ----------
    index : 1-based region index.
    region : state polytope X_i, whose rows are the set's first rows.
    sign_beta_g : +1 if beta*g >= 0 on the region, else -1.
    constraints : the interval sides, as Constraints in z = (x, v).
    """

    index: int
    region: Polytope
    sign_beta_g: int
    constraints: Constraints

    @property
    def kind(self):
        """'affine' | 'quadratic' | 'smooth' (the constraints' kind)."""
        return self.constraints.kind

    @cached_property
    def lifted_C(self):
        """The region rows in (x, v)-space; their offsets are region.d."""
        return _readonly(np.hstack([self.region.C,
                                    np.zeros((self.region.n_rows, 1))]))

    @cached_property
    def nonconvex(self):
        """Whether a quadratic side has a negative curvature (below -1e-8):
        M'HM is convex when H is, so every lift of the set shares it."""
        return bool(np.any(np.linalg.eigvalsh(self.constraints.H) < -1e-8))

    def lift(self, M):
        """The constraints of M y, as constraints in y, with the offsets of
        m = 0: the region rows by one matrix product (lifted_C @ M), then
        constraints.lift(M) (per row). Moving the region rows into
        constraints moves bits: at N=15 with x0 fixed, per-row products
        change 342 of ex2's lifted region-row entries, and one matrix
        product for every affine row 272 of ex3's side entries; either moves
        the programs, solves and decisions."""
        lifted = self.constraints.lift(M)
        return replace(lifted, rows=_readonly(np.vstack(
            [self.lifted_C @ M, lifted.rows])), offsets=_readonly(
                np.concatenate([self.region.d, lifted.offsets])))

    def shift(self, lifted, M, m):
        """The constraints of M y + m, from lifted = lift(M): the products
        with rows, X, lin and H are lifted's, the offsets and w those of
        shift(m) then lift(M)."""
        cons = self.constraints.shift(m)
        return replace(lifted, offsets=_readonly(np.concatenate(
            [self.region.d - self.lifted_C @ m, cons.offsets])),
            x_off=cons.x_off, c=cons.c, c0=cons.c0,
            w=_readonly((M.T @ cons.w[:, :, None])[:, :, 0]))

    def values_batch(self, Z):
        """The values at each row of Z: the region rows, then the sides."""
        return np.hstack([Z @ self.lifted_C.T - self.region.d,
                          self.constraints.values_batch(Z)])

    def contains(self, x, v, tol=MEMBERSHIP_TOL):
        # the region rows first: most points that miss a set miss its region
        return (self.region.contains(x, tol) and bool(
            np.max(self.constraints.values(_joint(x, v))) <= tol))


def _joint(x, v):
    return np.concatenate([np.asarray(x, dtype=float), [float(v)]])


def _check_sign(vals, idx, expected_sign):
    """Raise unless the values of beta*g show at most expected_sign."""
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
    sign of beta*g there. Raises SignAmbiguousError where beta*g changes
    sign strictly inside a region or has the other sign than declared
    (assumption violation). An affine gain, and each affine piece of a PWA
    gain that the stage set holds as a row, takes its extremes over the
    region at the region's vertices, so its values there decide the sign
    exactly; any other gain is checked on 256 samples of the region."""
    n = spec.n
    beta_sign = 1 if lin.beta > 0 else -1
    sets = []
    for idx, (region, sigma) in enumerate(spec.regions, start=1):
        sign_beta_g = sigma * beta_sign
        # a concave (convex) PWA gain is the min (max) of the affine
        # extensions of the pieces meeting the region: one row per piece
        gains = ([Affine(w, d) for w, d in
                  _overlapping_pieces(spec.g.pieces, region)]
                 if isinstance(spec.g, PwaField) else [spec.g])
        if isinstance(gains[0], Affine):
            V = vertices(region.C, region.d)
            vals = np.concatenate([g.value(V) for g in gains])
        else:
            vals = spec.g.value(region.sample(256, seed=seed + 97 * idx))
        _check_sign(lin.beta * vals, idx, sign_beta_g)
        lo_mult = spec.u_lo if sign_beta_g > 0 else spec.u_hi
        hi_mult = spec.u_hi if sign_beta_g > 0 else spec.u_lo
        cons = Constraints.join([
            _gain_bound_constraint(g, lin.beta * mult, lin.alpha, lin.b0,
                                   upper=upper, region=region)
            for upper, mult in ((False, lo_mult), (True, hi_mult))
            for g in gains])
        sets.append(StageSet(index=idx, region=region, sign_beta_g=sign_beta_g,
                             constraints=cons))
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
