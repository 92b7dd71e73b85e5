"""Shared oracles and builders for the test suite.

Everything here is deliberately independent of the solver path it checks:
grid search for optima, finite differences for derivatives, direct
enumeration for scenario pruning, one oracle object per constraint for the
stacked constraints, and point-by-point samples of the terminal axioms. The
screen references are the constraints and rule the screens used
before they became heads of one compiled horizon: hand-built from stage
blocks, with phase I through its whole schedule.
"""
import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog

import convexnmpc as cn
import convexnmpc.solver as solver_module
from convexnmpc.stagesets import Constraints


def toy_spec(A, b, g=None, box=1.0, sign=1, u=(-1.0, 1.0)):
    """Single-region system over a symmetric box, defaulting to unit gain."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if g is None:
        g = cn.Affine(np.zeros(n), 1.0)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = box * np.ones(2 * n)
    return cn.SystemSpec(A=A, b=np.asarray(b, dtype=float), g=g,
                         regions=((cn.Polytope(C, d), sign),),
                         u_lo=u[0], u_hi=u[1])


@dataclass(frozen=True)
class AffineCon:
    """row.z - offset <= 0"""

    row: np.ndarray
    offset: float

    def value(self, z):
        return float(self.row @ z - self.offset)

    def value_batch(self, Z):
        return Z @ self.row - self.offset

    def grad(self, z):
        return self.row.copy()


@dataclass(frozen=True)
class QuadCon:
    """0.5 z'Hz + w.z + c0 <= 0"""

    H: np.ndarray
    w: np.ndarray
    c0: float

    def value(self, z):
        return float(0.5 * z @ self.H @ z + self.w @ z + self.c0)

    def value_batch(self, Z):
        return (0.5 * np.einsum("ij,jk,ik->i", Z, self.H, Z)
                + Z @ self.w + self.c0)

    def grad(self, z):
        return self.H @ z + self.w


@dataclass(frozen=True)
class RidgeCon:
    """scale * cos~(freq * dir.(X z + x_off) + phase) + lin.z + c <= 0, cos~
    the cosine on [lo, hi] continued along its tangents."""

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

    def _branch(self, x):
        """cos~ at the phase of x (rows of x for a batch), with its slope
        in the phase."""
        th = self.freq * (x @ self.dir) + self.phase
        th_c = np.clip(th, self.lo, self.hi)
        val = self.scale * np.cos(th_c)
        slope = -self.scale * np.sin(th_c)
        return val + slope * (th - th_c), slope

    def value(self, z):
        val, _ = self._branch(self.X @ z + self.x_off)
        return float(val + self.lin @ z + self.c)

    def value_batch(self, Z):
        val, _ = self._branch(Z @ self.X.T + self.x_off)
        return val + Z @ self.lin + self.c

    def grad(self, z):
        _, slope = self._branch(self.X @ z + self.x_off)
        return self.X.T @ (float(slope) * self.freq * self.dir) + self.lin


def composed(con, M, m):
    """The oracle of con(M z + m), by the per-constraint products of
    composing one oracle at a time."""
    if isinstance(con, AffineCon):
        return AffineCon(con.row @ M, con.offset - float(con.row @ m))
    if isinstance(con, QuadCon):
        H = M.T @ con.H @ M
        return QuadCon(0.5 * (H + H.T), M.T @ (con.H @ m + con.w),
                       float(0.5 * m @ con.H @ m + con.w @ m + con.c0))
    return RidgeCon(con.scale, con.freq, con.dir, con.phase, con.lo, con.hi,
                    con.X @ M, con.X @ m + con.x_off, con.lin @ M,
                    float(con.lin @ m + con.c))


def oracles(cons):
    """One oracle object per constraint of a stacked Constraints, in its
    order: the reference its values, values_batch and grads must equal bit
    for bit."""
    return ([AffineCon(*f) for f in zip(cons.rows, cons.offsets)]
            + [RidgeCon(*f) for f in zip(cons.scale, cons.freq, cons.dir,
                                         cons.phase, cons.lo, cons.hi, cons.X,
                                         cons.x_off, cons.lin, cons.c)]
            + [QuadCon(*f) for f in zip(cons.H, cons.w, cons.c0)])


def finite_diff_grad(f, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for i in range(len(z)):
        e = np.zeros_like(z)
        e[i] = h
        out[i] = (f(z + e) - f(z - e)) / (2 * h)
    return out


def finite_diff_hess(f, z, h=1e-4):
    z = np.asarray(z, dtype=float)
    n = len(z)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (f(z + ei + ej) - f(z + ei - ej)
                       - f(z - ei + ej) + f(z - ei - ej)) / (4 * h * h)
    return H


def grid_minimize(prog, lo, hi, step, feas_tol=1e-7):
    """Feasibility-screened brute-force minimum over a uniform v-grid.

    Returns (V, z) or (inf, None) when no grid point passes the screen.
    Chunked and vectorized so the 1e-3-step two-variable case stays fast.
    """
    n_vars = prog.n_vars
    axes = [np.arange(lo, hi + 0.5 * step, step) for _ in range(n_vars)]
    if n_vars == 1:
        cand = axes[0][:, None]
        return _grid_scan(prog, cand, feas_tol)
    best_v, best_z = np.inf, None
    chunk = max(1, int(2e6 / max(len(axes[1]), 1)))
    rest = np.array(list(itertools.product(*axes[1:])))
    for start in range(0, len(axes[0]), chunk):
        block0 = axes[0][start:start + chunk]
        cand = np.column_stack([
            np.repeat(block0, len(rest)),
            np.tile(rest, (len(block0), 1)).reshape(-1, n_vars - 1),
        ])
        v, z = _grid_scan(prog, cand, feas_tol)
        if v < best_v:
            best_v, best_z = v, z
    return best_v, best_z


def _grid_scan(prog, cand, feas_tol):
    ok = np.ones(len(cand), dtype=bool)
    cons = prog.cons
    if cons.rows.size:
        ok &= np.max(cand @ cons.rows.T - cons.offsets, axis=1) <= feas_tol
    curved = replace(cons, rows=cons.rows[:0], offsets=cons.offsets[:0])
    idx = np.where(ok)[0]
    for start in range(0, len(idx), 100_000):  # the ridge products, in bounds
        part = idx[start:start + 100_000]
        if len(curved):
            worst = np.max(curved.values_batch(cand[part]), axis=1)
            ok[part[worst > feas_tol]] = False
    if not ok.any():
        return np.inf, None
    pts = cand[ok]
    obj = (np.einsum("ij,jk,ik->i", pts, prog.H, pts) + pts @ prog.f
           + prog.c0)
    k = int(np.argmin(obj))
    return float(obj[k]), pts[k]


def brute_force_level(spec, lin, zsets, terminal, horizon, cfg=None):
    """Directly probe every coefficient sequence of the given length."""
    cfg = cfg or cn.SolverConfig()
    s = spec.n_regions
    out = []
    for coeffs in itertools.product(range(1, s + 1), repeat=horizon):
        prog = cn.assemble(coeffs, None, lin, zsets, terminal,
                           Q=np.eye(spec.n), rho=1.0)
        feasible, _, _ = cn.solve_feasibility(prog, cfg)
        if feasible:
            out.append(coeffs)
    out.sort(key=lambda c: cn.encode(c, s))
    return out


def full_schedule_transitions(lin, zsets):
    """{(i, j): bound} by the full-schedule rule: phase I on the
    constraints of stage sets i, j on (v0, v1, x0), the stage blocks of the
    horizon-2 prediction map [Gamma Phi] with no terminal set, started with
    zero inputs and x0 at region i's Chebyshev centre, run through the
    whole mu schedule (feas_tol = inf). The bound is t - m*mu_last; -inf
    when phase I finds a strictly feasible point or is undecided, or for
    nonconvex data."""
    Gamma, Phi = solver_module._responses(lin, 2)
    S, n = np.hstack([Gamma, Phi]), Phi.shape[1]
    d, offset = S.shape[1], np.zeros(len(S))
    cfg = cn.SolverConfig(feas_tol=np.inf)
    s, out = len(zsets), {}
    for i, j in itertools.product(range(1, s + 1), repeat=2):
        blocks = [solver_module._StageBlock(zs, step_map(S, offset, n, k)[0])
                  for k, zs in enumerate((zsets[i - 1], zsets[j - 1]))]
        out[(i, j)] = -np.inf
        if any(blk.nonconvex for blk in blocks):
            continue
        start = np.zeros(d)
        center, _ = zsets[i - 1].region.chebyshev_center()
        start[2:] = 0.0 if center is None else center
        cons = Constraints.join([blk.at(np.zeros(blk.M.shape[0]))
                                 for blk in blocks])
        try:
            _, t, _ = solver_module._phase1(cons, (start,), cfg,
                                            solver_module._Work(cfg))
        except solver_module._Undecided:
            continue
        m = max(len(cons), 1)
        if t >= -solver_module.STRICT_MARGIN:
            out[(i, j)] = t - m * solver_module._mu_schedule(m)[-1]
    return out


def step_map(S, offset, n, k):
    """(M, m) of the step map z -> (x_hat(k), v_k) = M z + m of the
    prediction map x_hat = S z + offset, of states of n components."""
    M = np.vstack([S[k * n:(k + 1) * n], np.eye(S.shape[1])[k]])
    return M, np.append(offset[k * n:(k + 1) * n], 0.0)


def stage_lines(zs, x):
    """The lines a v + c of stage set zs at state x, in stage space: its
    region rows (flat in v), then its interval sides, at (x, 0)."""
    z = np.append(x, 0.0)
    c = np.concatenate([zs.lifted_C @ z - zs.lifted_d,
                        zs.constraints.values(z)])
    a = np.concatenate([np.zeros(zs.region.n_rows),
                        zs.constraints.grads(z)[:, -1]])
    return a, c


def hand_built_head_constraints(st, head):
    """The constraints of a depth-k head at the state of the offsets st,
    stacked by hand from its stage blocks' columns of v_0..v_{k-1} (and of
    x0 when it is free), with the rows that hold no decision variable (the
    first region's, for fixed x0) dropped; None for nonconvex data."""
    k, hz = len(head), st.hz
    steps = [st.step(e - 1, j) for j, e in enumerate(head)]
    if any(blk.nonconvex for blk, _ in steps):
        return None
    cons = Constraints.join([cons for _, cons in steps])
    cols = [*range(k), *range(hz.N, hz.n_vars)]
    rows = cons.rows[:, cols]
    keep = np.max(np.abs(rows), axis=1) >= 1e-13
    return replace(cons.lift(np.eye(hz.n_vars)[:, cols]), rows=rows[keep],
                   offsets=cons.offsets[keep])


def stage_set_members(zs, rng, count=2000, tries=200_000):
    """The members of stage set zs that the scalar sampling loop

        while len(members) < count and used < tries:
            x = rng.uniform(-2.2, 2.2, 2); v = rng.uniform(-4, 4)
            if zs.contains(x, v, 0.0): members.append((x, v))

    collects, as (x1, x2, v) rows, with rng left where the loop leaves it.
    All tries are drawn at once (the same doubles, in the same order); a
    batched test with 1e-9 of slack keeps a superset of the members, which
    the scalar test then confirms in draw order."""
    state = rng.bit_generator.state
    Z = rng.uniform([-2.2, -2.2, -4.0], [2.2, 2.2, 4.0], size=(tries, 3))
    region = zs.region
    near = ((Z[:, :2] @ region.C.T - region.d).max(axis=1) <= 1e-9) & (
        zs.constraints.values_batch(Z).max(axis=1) <= 1e-9)
    members, used = [], tries
    for i in np.flatnonzero(near):
        if zs.contains(Z[i, :2], Z[i, 2], 0.0):
            members.append(Z[i])
            if len(members) == count:
                used = int(i) + 1
                break
    rng.bit_generator.state = state
    rng.bit_generator.advance(3 * used)  # one 64-bit draw per double
    return members


def random_instance(rng, kind):
    """Small random system + costs with a valid curvature/sign structure."""
    n = int(rng.integers(1, 4))
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        if cn.model.controllability_rank(A, b) == n:
            break
    box = 1.0
    if kind == "affine":
        w = rng.uniform(-0.3, 0.3, n)
        d = float(rng.uniform(0.8, 2.0)) * float(rng.choice([-1.0, 1.0]))
        g = cn.Affine(w, d)
        sign = 1 if d > 0 else -1
    elif kind == "quadratic":
        M = rng.uniform(-0.4, 0.4, (n, n))
        H = M @ M.T                      # PSD
        sign = int(rng.choice([1, -1]))
        # concave needs H <= 0 with g >= 0; convex needs H >= 0 with g <= 0
        Hs = -H if sign > 0 else H
        d = float(rng.uniform(1.5, 3.0)) * sign
        g = cn.Quadratic(Hs, np.zeros(n), d)
    else:  # sinusoid, concave and positive on the box
        direction = rng.uniform(-1.0, 1.0, n)
        direction /= max(np.linalg.norm(direction), 1e-9)
        freq = float(rng.uniform(0.2, 0.9)) / (box * np.sqrt(n))
        g = cn.Sinusoid(float(rng.uniform(1.0, 3.0)), freq, direction, 0.0)
        sign = 1
    u = (-float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
    spec = toy_spec(A, b, g=g, box=box, sign=sign, u=u)
    lin = cn.build_linearization(
        spec, cn.compute_output_vector(A, b, 1.0), b0=1.0)
    zsets = cn.build_stage_sets(spec, lin)
    Q = float(rng.uniform(0.2, 2.0)) * np.eye(n)
    rho = float(rng.uniform(0.3, 2.0))
    terminal = cn.build_terminal(spec, lin, zsets, Q, rho, kind="ellipsoid")
    return spec, lin, zsets, terminal, Q, rho


def exact(value):
    """Text of a value down to the last bit of every float and its type, for
    comparing nested reports, tuples and arrays exactly."""
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}:{float(value).hex()}"
    if isinstance(value, np.ndarray):
        return f"{value.shape}[{','.join(exact(v) for v in value.ravel())}]"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(exact(v) for v in value) + ")"
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is None:
        return repr(value)
    return (type(value).__name__ + "{"
            + ",".join(f"{k}={exact(getattr(value, k))}" for k in fields)
            + "}")


def lp_continuity(field):
    """PwaField.check_continuity by HiGHS: for each pair of pieces, the
    max and min of the difference of their affine maps over the pieces'
    intersection within |x| <= 100; ((p, q), gap), gap the larger
    magnitude, for each pair where it exceeds 1e-9."""
    bad = []
    for (p, (P, wp, dp)), (q, (Q, wq, dq)) in itertools.combinations(
            enumerate(field.pieces), 2):
        ends = []
        for sign in (1.0, -1.0):
            res = linprog(-sign * (wp - wq), A_ub=np.vstack([P.C, Q.C]),
                          b_ub=np.concatenate([P.d, Q.d]),
                          bounds=[(-100.0, 100.0)] * field.dim,
                          method="highs")
            assert res.status in (0, 2)
            if res.status == 0:  # 2: the pieces do not meet
                ends.append(abs(-sign * res.fun + dp - dq))
        if ends and max(ends) > 1e-9:
            bad.append(((p, q), max(ends)))
    return bad


def row_by_row_region_reports(spec, n_samples, seed):
    """The region reports of validate_assumption1, with g evaluated one
    point at a time."""
    reports = []
    for idx, (reg, sign) in enumerate(spec.regions, start=1):
        pts = reg.sample(n_samples, seed=seed + idx)
        vals = np.array([float(spec.g.value(p)) for p in pts])
        g_min, g_max = float(vals.min()), float(vals.max())
        local = []
        if sign > 0 and g_min < -1e-9:
            local.append(cn.model.Violation(
                "sign", idx, pts[int(np.argmin(vals))],
                f"g = {g_min:.3e} < 0 on a +1 region", -g_min))
        if sign < 0 and g_max > 1e-9:
            local.append(cn.model.Violation(
                "sign", idx, pts[int(np.argmax(vals))],
                f"g = {g_max:.3e} > 0 on a -1 region", g_max))
        for a, b_pt in zip(pts[:-1], pts[1:]):
            ga, gb = float(spec.g.value(a)), float(spec.g.value(b_pt))
            for eta in (0.25, 0.5, 0.75):
                mid = eta * a + (1.0 - eta) * b_pt
                gap = (float(spec.g.value(mid))
                       - (eta * ga + (1.0 - eta) * gb))
                if sign > 0 and gap < -1e-9:
                    local.append(cn.model.Violation(
                        "concavity", idx, mid, f"midpoint gap {gap:.3e}",
                        -gap))
                if sign < 0 and gap > 1e-9:
                    local.append(cn.model.Violation(
                        "convexity", idx, mid, f"midpoint gap {gap:.3e}",
                        gap))
        if isinstance(spec.g, cn.Quadratic):
            hit = cn.model._quadratic_curvature_witness(spec.g, sign, reg,
                                                        seed)
            if hit is not None:
                a, b_pt, eig = hit
                local.append(cn.model.Violation(
                    "concavity" if sign > 0 else "convexity", idx,
                    0.5 * (a + b_pt),
                    f"curvature eigenvalue {eig:.4g} has the wrong sign",
                    abs(eig)))
        reports.append(cn.model.RegionReport(
            idx, sign, g_min, g_max,
            not any(v.kind == "sign" for v in local),
            not any(v.kind != "sign" for v in local), local))
    return reports


def sampled_terminal_axioms(ti, zsets, Q, rho, n_samples=2000, seed=0):
    """Largest (admissibility, invariance, decrease) slacks over sampled
    terminal-set states, each axiom evaluated point by point: an ellipsoid
    on half its samples along its shell and on half scaled in by up to 0.97,
    a polytope at the ends of rays from the origin, every second one scaled
    in by (k mod 97)/97."""
    tset = ti.tset
    if isinstance(tset, cn.Ellipsoid):
        boundary = tset.boundary_points(n_samples - n_samples // 2, seed)
        interior = tset.boundary_points(n_samples // 2, seed)
        scales = np.linspace(0.0, 0.97, interior.shape[0])[:, None]
        X = np.vstack([boundary, interior * scales])
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_samples, tset.dim))
        X = []
        for k, d in enumerate(dirs / np.linalg.norm(dirs, axis=1)[:, None]):
            den = tset.C @ d
            bp = np.min(tset.d[den > 1e-14] / den[den > 1e-14]) * d
            X.append(bp if k % 2 == 0 else bp * (k % 97) / 97.0)
    z1 = zsets[0]
    worst = np.full(3, -np.inf)
    for x in X:
        v = float(ti.kappa @ x)
        x_next = ti.A_cl @ x
        worst = np.maximum(worst, [
            max(float(np.max(z1.constraints.values(np.append(x, v)))),
                z1.region.violation(x)),
            tset.violation(x_next),
            ti.cost(x_next) - ti.cost(x) + float(x @ Q @ x) + rho * v * v])
    return worst
