"""System class: x+ = A x + g(x) b u with region-decomposed state constraints.

The state set X is the union of polytopic regions X_i. On each region the
scalar input gain g must be sign-consistent and correspondingly concave
(non-negative case) or convex (non-positive case); this is checked by
sampling in :func:`validate_assumption1`.
"""
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.stats import qmc

from .errors import RegionEmptyError, SchemaError
from .geometry import MEMBERSHIP_TOL, Polytope, _subset_solutions

# Absolute tolerance below which g(x) counts as zero (singular input gain).
EPS_G = 1e-9


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def _vec(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Affine:
    """g(x) = w.x + d"""

    w: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "w", _vec(self.w))
        object.__setattr__(self, "d", float(self.d))

    @property
    def dim(self):
        return self.w.shape[0]

    def value(self, x):
        x = _vec(x)
        return x @ self.w + self.d


@dataclass(frozen=True)
class Quadratic:
    """g(x) = 0.5 x'Hx + w.x + d with symmetric H."""

    H: np.ndarray
    w: np.ndarray
    d: float

    def __post_init__(self):
        H = np.atleast_2d(_vec(self.H))
        if np.max(np.abs(H - H.T)) > 0.0:
            if np.max(np.abs(H - H.T)) > 1e-12:
                raise ValueError("quadratic field requires symmetric H")
            H = 0.5 * (H + H.T)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "w", _vec(self.w))
        object.__setattr__(self, "d", float(self.d))

    @property
    def dim(self):
        return self.w.shape[0]

    def value(self, x):
        x = _vec(x)
        if x.ndim == 1:
            return 0.5 * x @ self.H @ x + self.w @ x + self.d
        return 0.5 * np.einsum("ij,jk,ik->i", x, self.H, x) + x @ self.w + self.d


@dataclass(frozen=True)
class Sinusoid:
    """g(x) = amp * cos(freq * dir.x + phase)"""

    amp: float
    freq: float
    dir: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amp", float(self.amp))
        object.__setattr__(self, "freq", float(self.freq))
        object.__setattr__(self, "dir", _vec(self.dir))
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def dim(self):
        return self.dir.shape[0]

    def _arg(self, x):
        return self.freq * (_vec(x) @ self.dir) + self.phase

    def value(self, x):
        return self.amp * np.cos(self._arg(x))


@dataclass(frozen=True)
class PwaField:
    """Continuous piecewise-affine g defined on polytopic pieces.

    Each piece is (Polytope, w, d) meaning g(x) = w.x + d on the piece.
    Points outside every piece evaluate through the piece of least
    constraint violation, which extends g continuously to all of R^n.
    Construction raises ValueError where :meth:`check_continuity` finds a
    gap.
    """

    pieces: tuple

    def __post_init__(self):
        norm = []
        for region, w, d in self.pieces:
            if not isinstance(region, Polytope):
                region = Polytope(*region)
            norm.append((region, _vec(w), float(d)))
        object.__setattr__(self, "pieces", tuple(norm))
        bad = self.check_continuity()
        if bad:
            x, gap = bad[0]
            raise ValueError(f"pwa pieces disagree by {gap:.2e} at {x}")

    @property
    def dim(self):
        return self.pieces[0][1].shape[0]

    def piece_index(self, x):
        """The piece that evaluates x, or each row of a 2-D x: the first
        piece within 1e-9, else the first of least violation."""
        x = _vec(x)
        rows, offsets, starts = self._stacked_rows
        viol = np.maximum.reduceat(np.atleast_2d(x) @ rows.T - offsets,
                                   starts, axis=1)
        within = viol <= 1e-9
        k = np.where(within.any(axis=1), within.argmax(axis=1),
                     viol.argmin(axis=1))
        return k if x.ndim == 2 else int(k[0])

    def value(self, x):
        x = _vec(x)
        k = self.piece_index(x)
        if x.ndim == 2:
            # rows equal the 1-D values bit for bit where w.x is exact
            # (ex3); elsewhere the last bit may differ
            _, W, D = zip(*self.pieces)
            return np.einsum("ij,ij->i", x, np.array(W)[k]) + np.array(D)[k]
        _, w, d = self.pieces[k]
        return w @ x + d

    @cached_property
    def _stacked_rows(self):
        """All pieces' rows (C, d) stacked, and each piece's first row."""
        return (np.vstack([region.C for region, _, _ in self.pieces]),
                np.concatenate([region.d for region, _, _ in self.pieces]),
                np.cumsum([0] + [region.n_rows
                                 for region, _, _ in self.pieces[:-1]]))

    def check_continuity(self):
        """(x, gap) for each pair of pieces whose affine maps differ by more
        than 1e-9 on their common part within |x| <= 100: the difference is
        affine, so its largest magnitude there is at a vertex x of the
        intersection (empty if g is continuous). One enumeration serves
        every pair: a pair reads the solutions of the n-subsets of all
        pieces' rows that satisfy both pieces' rows and the box, which hold
        the vertices of the intersection and otherwise only points in it."""
        rows, offsets, starts = self._stacked_rows
        X, ok = _subset_solutions(rows, offsets, 100.0)
        m = len(offsets)
        inside = (np.logical_and.reduceat(ok[:, :m], starts, axis=1)
                  & ok[:, m:].all(axis=1)[:, None])
        bad = []
        for (p, (_, wp, dp)), (q, (_, wq, dq)) in combinations(
                enumerate(self.pieces), 2):
            V = X[inside[:, p] & inside[:, q]]
            if not len(V):
                continue
            gap = np.abs((V @ wp + dp) - (V @ wq + dq))
            i = int(np.argmax(gap))
            if gap[i] > 1e-9:
                bad.append((V[i], float(gap[i])))
        return bad


# ---------------------------------------------------------------------------
# system specification
# ---------------------------------------------------------------------------

def controllability_matrix(A, b):
    n = A.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def controllability_rank(A, b):
    s = np.linalg.svd(controllability_matrix(A, b), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


@dataclass(frozen=True)
class SystemSpec:
    """Plant description: dynamics, input-gain field, regions, input interval.

    regions is a sequence of (Polytope, sign) pairs. sign=+1 declares g
    non-negative and concave on the region, sign=-1 non-positive and convex.
    Region 1 must contain the origin strictly; the pair (A, b) must be
    controllable and g(0) nonzero. Violations raise at construction.
    """

    A: np.ndarray
    b: np.ndarray
    g: object
    regions: tuple
    u_lo: float
    u_hi: float

    def __post_init__(self):
        A = np.atleast_2d(_vec(self.A))
        b = _vec(self.b)
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        regions = []
        for reg, sign in self.regions:
            if not isinstance(reg, Polytope):
                reg = Polytope(*reg)
            if int(sign) not in (1, -1):
                raise SchemaError(f"region sign must be +1 or -1, got {sign}")
            regions.append((reg, int(sign)))
        object.__setattr__(self, "regions", tuple(regions))
        object.__setattr__(self, "u_lo", float(self.u_lo))
        object.__setattr__(self, "u_hi", float(self.u_hi))
        self._check_invariants()

    def _check_invariants(self):
        n = self.n
        if controllability_rank(self.A, self.b) < n:
            raise SchemaError("pair (A, b) is not controllable")
        if abs(float(self.g.value(np.zeros(n)))) <= EPS_G:
            raise SchemaError("input gain vanishes at the origin")
        if not (self.u_lo < 0.0 < self.u_hi):
            raise SchemaError("input interval must contain 0 strictly")
        for k, (reg, _) in enumerate(self.regions, start=1):
            if reg.inscribed_radius() < 1e-12:
                raise RegionEmptyError(f"region {k} is empty or lower-dimensional")
            try:
                reg.bounding_box()
            except ValueError:
                raise SchemaError(f"region {k} is unbounded") from None
        x1 = self.regions[0][0]
        if np.min(x1.d) <= 0.0:
            raise SchemaError("origin must lie strictly inside region 1")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_regions(self):
        return len(self.regions)

    def region(self, i):
        """Region polytope by 1-based index."""
        return self.regions[i - 1][0]

    def sign(self, i):
        return self.regions[i - 1][1]

    def bounding_box(self):
        los, his = zip(*(reg.bounding_box() for reg, _ in self.regions))
        return np.min(los, axis=0), np.max(his, axis=0)

    def in_state_set(self, x, tol=0.0):
        return any(reg.contains(x, tol) for reg, _ in self.regions)


def dynamics_step(spec, x, u):
    """One step of the true nonlinear plant: A x + g(x) b u."""
    x = _vec(x)
    return spec.A @ x + float(spec.g.value(x)) * spec.b * float(u)


def region_membership(spec, x, tol=MEMBERSHIP_TOL):
    """Indices (1-based) of all regions containing x within tol.

    Regions are closed and may share facets, so the result is a set; an empty
    set means x lies outside the state constraint set.
    """
    x = _vec(x)
    return {i for i, (reg, _) in enumerate(spec.regions, start=1)
            if reg.contains(x, tol)}


# ---------------------------------------------------------------------------
# assumption validation by sampling
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    kind: str
    region: int
    witness: np.ndarray
    detail: str
    gap: float


@dataclass
class RegionReport:
    index: int
    sign: int
    g_min: float
    g_max: float
    sign_ok: bool
    curvature_ok: bool
    violations: list = field(default_factory=list)


@dataclass
class ValidationReport:
    controllability_rank: int
    dim: int
    g_at_origin: float
    origin_interior: bool
    coverage_fraction: float
    region_reports: list
    violations: list

    @property
    def ok(self):
        return (self.controllability_rank == self.dim
                and abs(self.g_at_origin) > EPS_G
                and self.origin_interior
                and not self.violations)

    def summary(self):
        lines = [
            f"controllability rank: {self.controllability_rank}/{self.dim}",
            f"g(0) = {self.g_at_origin:.6g}",
            f"origin strictly inside region 1: {self.origin_interior}",
            f"bounding-box coverage by regions: {self.coverage_fraction:.1%}",
        ]
        for rep in self.region_reports:
            lines.append(
                f"region {rep.index} (sign {rep.sign:+d}): "
                f"g in [{rep.g_min:.4g}, {rep.g_max:.4g}], "
                f"sign {'ok' if rep.sign_ok else 'VIOLATED'}, "
                f"curvature {'ok' if rep.curvature_ok else 'VIOLATED'}")
        for v in self.violations:
            lines.append(f"  {v.kind} in region {v.region} at "
                         f"{np.array2string(v.witness, precision=5)}: {v.detail}")
        lines.append("assumption check: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _quadratic_curvature_witness(g, sign, region, seed):
    """Exact eigen test for quadratic fields; returns a violating segment."""
    w, V = np.linalg.eigh(g.H)
    # concave needs H <= 0, convex needs H >= 0
    bad = w > 1e-12 if sign > 0 else w < -1e-12
    if not np.any(bad):
        return None
    direction = V[:, int(np.argmax(np.abs(w * bad)))]
    center, r = region.chebyshev_center()
    step = 0.5 * max(r, 1e-6) * direction
    return center - step, center + step, float(w[bad][np.argmax(np.abs(w[bad]))])


def validate_assumption1(spec, n_samples=256, seed=0):
    """Sampling check of the system-class assumptions.

    Per region: sign consistency of g and the midpoint concavity/convexity
    inequality at eta in {0.25, 0.5, 0.75}; quadratic fields additionally get
    an exact eigenvalue test. Samples come from a seeded Halton sequence so
    reports are reproducible.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = spec.n
    violations = []
    region_reports = []
    etas = np.array([0.25, 0.5, 0.75])

    for idx, (reg, sign) in enumerate(spec.regions, start=1):
        reg.assert_nonempty(f"region {idx}")
        pts = reg.sample(n_samples, seed=seed + idx)
        # midpoints of consecutive samples, (pair, eta, coordinate)
        mids = (etas[:, None] * pts[:-1, None, :]
                + (1.0 - etas[:, None]) * pts[1:, None, :])
        todo = np.vstack([pts, mids.reshape(-1, n)])
        # a quadratic's batched formula differs from its 1-D one in last bits
        g_all = (np.array([float(spec.g.value(p)) for p in todo])
                 if isinstance(spec.g, Quadratic) else spec.g.value(todo))
        vals, gm = g_all[:len(pts)], g_all[len(pts):].reshape(-1, len(etas))
        g_min, g_max = float(vals.min()), float(vals.max())
        local = []

        if sign > 0 and g_min < -1e-9:
            local.append(Violation("sign", idx, pts[int(np.argmin(vals))],
                                   f"g = {g_min:.3e} < 0 on a +1 region", -g_min))
        if sign < 0 and g_max > 1e-9:
            local.append(Violation("sign", idx, pts[int(np.argmax(vals))],
                                   f"g = {g_max:.3e} > 0 on a -1 region", g_max))

        # concave: gm >= chord; convex: gm <= chord
        gap = gm - (etas * vals[:-1, None] + (1.0 - etas) * vals[1:, None])
        excess = -gap if sign > 0 else gap
        kind = "concavity" if sign > 0 else "convexity"
        for j, e in zip(*np.nonzero(excess > 1e-9)):
            local.append(Violation(kind, idx, mids[j, e],
                                   f"midpoint gap {gap[j, e]:.3e}",
                                   float(excess[j, e])))

        if isinstance(spec.g, Quadratic):
            hit = _quadratic_curvature_witness(spec.g, sign, reg, seed)
            if hit is not None:
                a, b_pt, eig = hit
                local.append(Violation(
                    kind, idx, 0.5 * (a + b_pt),
                    f"curvature eigenvalue {eig:.4g} has the wrong sign",
                    abs(eig)))

        sign_ok = not any(v.kind == "sign" for v in local)
        curvature_ok = not any(v.kind in ("concavity", "convexity")
                               for v in local)
        region_reports.append(RegionReport(idx, sign, g_min, g_max,
                                           sign_ok, curvature_ok, local))
        violations.extend(local)

    # coverage of the joint bounding box by the union of regions (informational)
    lo, hi = spec.bounding_box()
    eng = qmc.Halton(d=n, seed=seed)
    box_pts = lo + (hi - lo) * eng.random(max(n_samples, 64))
    inside = np.zeros(len(box_pts), dtype=bool)
    for reg, _ in spec.regions:
        inside |= reg.contains_batch(box_pts, tol=0.0)
    coverage = float(np.mean(inside))

    x1 = spec.regions[0][0]
    return ValidationReport(
        controllability_rank=controllability_rank(spec.A, spec.b),
        dim=n,
        g_at_origin=float(spec.g.value(np.zeros(n))),
        origin_interior=bool(np.min(x1.d) > 0.0),
        coverage_fraction=coverage,
        region_reports=region_reports,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# JSON system files
# ---------------------------------------------------------------------------

def field_from_dict(obj):
    try:
        kind = obj["kind"]
        if kind == "affine":
            return Affine(obj["w"], obj["d"])
        if kind == "quadratic":
            return Quadratic(obj["H"], obj["w"], obj["d"])
        if kind == "sinusoid":
            return Sinusoid(obj["amp"], obj["freq"], obj["dir"],
                            obj.get("phase", 0.0))
        if kind == "pwa":
            pieces = tuple(
                (Polytope(p["polytope"]["C"], p["polytope"]["d"]),
                 np.asarray(p["w"], dtype=float), float(p["d"]))
                for p in obj["pieces"])
            return PwaField(pieces)
    except KeyError as exc:
        raise SchemaError(f"missing field in g description: {exc}") from exc
    raise SchemaError(f"unknown g kind {obj.get('kind')!r}")


def field_to_dict(g):
    if isinstance(g, Affine):
        return {"kind": "affine", "w": g.w.tolist(), "d": g.d}
    if isinstance(g, Quadratic):
        return {"kind": "quadratic", "H": g.H.tolist(), "w": g.w.tolist(),
                "d": g.d}
    if isinstance(g, Sinusoid):
        return {"kind": "sinusoid", "amp": g.amp, "freq": g.freq,
                "dir": g.dir.tolist(), "phase": g.phase}
    if isinstance(g, PwaField):
        return {"kind": "pwa", "pieces": [
            {"polytope": {"C": reg.C.tolist(), "d": reg.d.tolist()},
             "w": w.tolist(), "d": d} for reg, w, d in g.pieces]}
    raise SchemaError(f"unsupported field type {type(g).__name__}")


def system_from_dict(obj):
    try:
        regions = tuple(
            (Polytope(r["C"], r["d"]), int(r["sign"])) for r in obj["regions"])
        return SystemSpec(A=np.asarray(obj["A"], dtype=float),
                          b=np.asarray(obj["b"], dtype=float),
                          g=field_from_dict(obj["g"]),
                          regions=regions,
                          u_lo=float(obj["u"][0]),
                          u_hi=float(obj["u"][1]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed system description: {exc}") from exc


def system_to_dict(spec):
    return {
        "A": spec.A.tolist(),
        "b": spec.b.tolist(),
        "g": field_to_dict(spec.g),
        "regions": [{"C": reg.C.tolist(), "d": reg.d.tolist(), "sign": sign}
                    for reg, sign in spec.regions],
        "u": [spec.u_lo, spec.u_hi],
    }


def load_system(path):
    import json

    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return system_from_dict(obj)
