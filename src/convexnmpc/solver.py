"""Per-scenario convex programs in condensed form, a barrier solver, and
certified bounds that screen infeasible programs before any Newton step.

Predicted states are eliminated through the linear prediction map, leaving
the artificial inputs (plus the initial state, when it is left free for
feasibility probing) as the only decision variables. One log-barrier
interior-point method covers all constraint classes; the QP/QCQP/NLP tag
is reporting metadata, not a solver dispatch.

The Newton kernel keeps two invariants. Each trial point of the line search
is evaluated once: the accepted trial's margins, sinusoid phase pieces and
barrier value become the next iterate's, so no iterate is evaluated twice.
Curvature is decided once per compiled stage block: M'HM is convex when H
is, so a program's nonconvex_data is its solution's nonconvex_flag.

Assembly keeps a third: blocks are compiled once per horizon. What does not
depend on x0 is built on first use and kept read-only in a small LRU; per
state only the offsets are computed, once, with the per-row expressions of
a from-scratch build, so programs stay bit-identical. A parametric form
b + E x0 is avoided on purpose: one stacked matrix product rounds
differently from the per-row products and would move the last bits.

For the same reason a ridge constraint's cosine phase is rounded two ways.
RidgeCon's own oracles (the phase-I start and end, constraint values, the
KKT residual) take freq * (x.dir) + phase at x = X z + x_off; the barrier's
stacked group takes (freq * X'dir).z + (freq * (dir.x_off) + phase). One
formula for both moves Newton counts and t*, and closed-loop values by up
to 1e-8 relative, which the stored references do not absorb.
"""
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import nnls

from .errors import HorizonMismatchError, NoConvergenceError, OutOfRangeError
from .geometry import Ellipsoid, Polytope
from .stagesets import AffineCon, QuadCon, RidgeCon, _readonly


# ---------------------------------------------------------------------------
# condensed prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionOperators:
    """Linear map from the decision vector to the stacked predicted states.

    states(z) = S z + offset, stacked as (N+1) blocks of length n. The
    decision vector is (v_0..v_{N-1}) and, when the initial state is free,
    the appended x0 block.
    """

    N: int
    n: int
    S: np.ndarray
    offset: np.ndarray
    x0: np.ndarray  # None when free
    free_x0: bool

    @property
    def n_vars(self):
        return self.S.shape[1]

    def state_rows(self, k):
        """Rows of (S, offset) giving x_hat(k)."""
        sl = slice(k * self.n, (k + 1) * self.n)
        return self.S[sl], self.offset[sl]

    def step_map(self, k):
        """Map z -> (x_hat(k), v_k) as (M, m)."""
        Sx, ox = self.state_rows(k)
        M = np.zeros((self.n + 1, self.n_vars))
        M[: self.n] = Sx
        M[self.n, k] = 1.0
        m = np.concatenate([ox, [0.0]])
        return M, m

    def terminal_map(self):
        return self.state_rows(self.N)

    def states(self, z):
        return (self.S @ z + self.offset).reshape(self.N + 1, self.n)


def condense(lin, N, x0=None):
    """Prediction operators for horizon N.

    x0=None leaves the initial state free: its components are appended to
    the decision vector and the offset vanishes.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    n = lin.A_hat.shape[0]
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(lin.A_hat @ powers[-1])
    impulse = [lin.b_hat.copy()]  # A^i b for i = 0..N-1
    for _ in range(N - 1):
        impulse.append(lin.A_hat @ impulse[-1])

    Gamma = np.zeros(((N + 1) * n, N))
    for k in range(1, N + 1):
        for i in range(k):
            Gamma[k * n:(k + 1) * n, i] = impulse[k - 1 - i]
    Phi = np.vstack(powers)

    if x0 is None:
        S = np.hstack([Gamma, Phi])
        offset = np.zeros((N + 1) * n)
        return PredictionOperators(N=N, n=n, S=S, offset=offset, x0=None,
                                   free_x0=True)
    x0 = np.asarray(x0, dtype=float)
    return PredictionOperators(N=N, n=n, S=Gamma, offset=Phi @ x0, x0=x0,
                               free_x0=False)


# ---------------------------------------------------------------------------
# compiled program blocks
# ---------------------------------------------------------------------------

class _StageBlock:
    """Stage set zs at one step, composed with the step map
    z -> (x_hat(k), v_k) = M z + m: the parts that depend on M alone, and
    offsets(m) for the rest."""

    def __init__(self, zs, M):
        self.zs, self.M = zs, _readonly(M)
        rows, self.affine, self.nonlin = [zs.lifted_C @ M], [], []
        self.nonconvex = False
        for con in zs.constraints:
            if isinstance(con, AffineCon):
                rows.append((con.row @ M)[None, :])
                self.affine.append(con)
            elif isinstance(con, QuadCon):
                H = M.T @ con.H @ M
                self.nonlin.append((self._quad, con,
                                    _readonly(0.5 * (H + H.T))))
                if np.min(np.linalg.eigvalsh(con.H)) < -1e-8:
                    self.nonconvex = True
            elif isinstance(con, RidgeCon):
                self.nonlin.append((self._ridge, con,
                                    (_readonly(con.X @ M),
                                     _readonly(con.lin @ M))))
            else:
                raise TypeError(f"unknown constraint type {type(con).__name__}")
        self.rows = _readonly(np.vstack(rows))

    def _quad(self, con, H, m):
        w = _readonly(self.M.T @ (con.H @ m + con.w))
        c0 = float(0.5 * m @ con.H @ m + con.w @ m + con.c0)
        return QuadCon(H, w, c0)

    def _ridge(self, con, X_lin, m):
        X, lin = X_lin
        return replace(con, X=X, x_off=_readonly(con.X @ m + con.x_off),
                       lin=lin, c=float(con.lin @ m + con.c))

    def offsets(self, m):
        """Right-hand sides of the rows, and the nonlinear constraints."""
        offs = [self.zs.lifted_d - self.zs.lifted_C @ m]
        offs += [[con.offset - float(con.row @ m)] for con in self.affine]
        return (_readonly(np.concatenate(offs)),
                tuple(make(con, part, m) for make, con, part in self.nonlin))


class _Horizon:
    """The programs of one horizon: the parts that do not depend on x0,
    compiled once, and the offsets of the latest state (see at)."""

    def __init__(self, lin, zsets, terminal, Q, rho, N, free):
        # strong references: no id in the cache key is reused while the
        # entry lives
        self.lin, self.zsets, self.terminal = lin, tuple(zsets), terminal
        self.Q = _readonly(Q.copy())
        # for fixed x0 a template: each state condenses its own offset
        ops = condense(lin, N, None if free else np.zeros(lin.A_hat.shape[0]))
        self.ops = ops
        _readonly(ops.S)
        _readonly(ops.offset)
        self.blocks = [[_StageBlock(zs, ops.step_map(k)[0])
                        for k in range(N)] for zs in self.zsets]
        H = np.zeros((ops.n_vars, ops.n_vars))
        self.QS = []
        for k in range(N):
            Sx, _ = ops.state_rows(k)
            self.QS.append(_readonly(Q @ Sx))
            H += Sx.T @ self.QS[-1]
            H[k, k] += rho
        SN, _ = ops.terminal_map()
        self.PS = _readonly(terminal.P @ SN)
        H += SN.T @ self.PS
        self.H = _readonly(0.5 * (H + H.T))
        tset = terminal.tset
        if isinstance(tset, Polytope):
            self.term_rows = _readonly(tset.C @ SN)
        elif isinstance(tset, Ellipsoid):
            Hq = 2.0 * (SN.T @ tset.P_shape @ SN)
            self.term_hess = _readonly(0.5 * (Hq + Hq.T))
            self.term_rows = _readonly(np.zeros((0, ops.n_vars)))
        else:
            raise TypeError("terminal set must be a Polytope or an Ellipsoid")
        self.hints = []  # free x0: from the Chebyshev centre of region i
        for zs in self.zsets if free else ():
            z0 = np.zeros(ops.n_vars)
            center, _ = zs.region.chebyshev_center()
            if center is not None:
                z0[N:] = center
            self.hints.append(self.rollout(z0, z0[N:].copy()))
        # a free horizon has one set of offsets, keyed None; a fixed one
        # starts with none (no state's key is None)
        self.latest = (None, _Offsets(self, None) if free else None)

    def at(self, x0):
        """Offsets at x0 (None: free), computed once per state; only the
        latest state's are kept."""
        key = None if x0 is None else x0.tobytes()
        latest = self.latest
        if latest[0] != key:
            latest = self.latest = (key, _Offsets(self, x0))
        return latest[1]

    def rollout(self, z0, x_roll):
        """Fill z0's inputs with the terminal controller's rollout from
        x_roll: strictly feasible for any state well inside the feasible
        set, so phase I is then skipped."""
        for k in range(self.ops.N):
            z0[k] = float(self.terminal.kappa @ x_roll)
            x_roll = self.lin.A_hat @ x_roll + self.lin.b_hat * z0[k]
        return _readonly(z0)


class _Offsets:
    """What the programs at one state add to their horizon's blocks."""

    def __init__(self, hz, x0):
        ops = hz.ops
        if x0 is not None:
            ops = condense(hz.lin, ops.N, _readonly(x0.copy()))
            _readonly(ops.S)
            _readonly(ops.offset)
        f = np.zeros(ops.n_vars)
        c0 = 0.0
        self.ms = []  # m of the step map at each k
        for k, QS in enumerate(hz.QS):
            _, ox = ops.state_rows(k)
            f += 2.0 * (ox @ QS)
            c0 += float(ox @ hz.Q @ ox)
            self.ms.append(_readonly(np.concatenate([ox, [0.0]])))
        SN, oN = ops.terminal_map()
        f += 2.0 * (oN @ hz.PS)
        c0 += float(oN @ hz.terminal.P @ oN)
        tset = hz.terminal.tset
        self.term_offs, self.term_nonlin = _readonly(np.zeros(0)), ()
        if isinstance(tset, Polytope):
            self.term_offs = _readonly(tset.d - tset.C @ oN)
        else:
            wq = _readonly(2.0 * (SN.T @ tset.P_shape @ oN))
            cq = float(oN @ tset.P_shape @ oN) - tset.level
            self.term_nonlin = (QuadCon(hz.term_hess, wq, cq),)
        self.hint = (None if x0 is None
                     else hz.rollout(np.zeros(ops.n_vars), ops.x0.copy()))
        self.hz, self.ops, self.f, self.c0 = hz, ops, _readonly(f), c0
        self.steps = {}

    def step(self, i, k):
        """(block, offsets, nonlinear constraints) of stage set i at step k."""
        if (i, k) not in self.steps:
            blk = self.hz.blocks[i][k]
            self.steps[(i, k)] = (blk, *blk.offsets(self.ms[k]))
        return self.steps[(i, k)]


_HORIZONS, _HORIZONS_MAX = {}, 32  # least recently used first
_HORIZONS_LOCK = threading.Lock()


def _cached(key, build):
    """The LRU entry under key (ids of objects the entry holds)."""
    with _HORIZONS_LOCK:
        entry = _HORIZONS.pop(key, None) or build()
        _HORIZONS[key] = entry
        if len(_HORIZONS) > _HORIZONS_MAX:
            del _HORIZONS[next(iter(_HORIZONS))]
    return entry


def _horizon(lin, zsets, terminal, Q, rho, N, free):
    key = (id(lin), tuple(map(id, zsets)), id(terminal), Q.shape,
           Q.tobytes(), rho, N, free)
    return _cached(key, lambda: _Horizon(lin, zsets, terminal, Q, rho, N,
                                         free))


# ---------------------------------------------------------------------------
# program container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexProgram:
    """Condensed scenario subproblem.

    Objective value is z'Hz + f.z + c0 (H symmetric PSD under the stage-cost
    conventions). Affine rows are stacked as A z <= b; the remaining
    constraints keep their oracles.
    """

    n_vars: int
    H: np.ndarray
    f: np.ndarray
    c0: float
    A_mat: np.ndarray
    b_vec: np.ndarray
    nonlin: tuple
    prog_class: str
    coeffs: tuple
    scenario_j: int
    ops: PredictionOperators
    pre_violation: float
    z0_hint: np.ndarray
    nonconvex_data: bool

    @property
    def n_constraints(self):
        return self.A_mat.shape[0] + len(self.nonlin)

    def objective_value(self, z):
        return float(z @ self.H @ z + self.f @ z + self.c0)

    def objective_grad(self, z):
        return 2.0 * (self.H @ z) + self.f

    def constraint_values(self, z):
        vals = list(self.A_mat @ z - self.b_vec)
        vals.extend(con.value(z) for con in self.nonlin)
        return np.array(vals)


def encode(coeffs, s):
    """Scenario index of a coefficient sequence (entries in 1..s)."""
    j = 1
    power = 1
    for eps in coeffs:
        if not 1 <= eps <= s:
            raise OutOfRangeError(f"coefficient {eps} outside 1..{s}")
        j += (eps - 1) * power
        power *= s
    return j


def _scenario_coeffs(scenario):
    coeffs = tuple(scenario.coeffs) if hasattr(scenario, "coeffs") else tuple(scenario)
    if not coeffs:
        raise ValueError("empty scenario")
    return coeffs


def assemble(scenario, x0, spec, lin, zsets, terminal, Q, rho, horizon=None):
    """Build the condensed convex program for one constraint scenario.

    x0=None leaves the initial state free (used by the offline pruning);
    otherwise the program is parameterized by the fixed initial state. The
    program's arrays are read-only: those that do not depend on x0 are
    shared by every program of its horizon.
    """
    coeffs = _scenario_coeffs(scenario)
    N = len(coeffs)
    if horizon is not None and horizon != N:
        raise HorizonMismatchError(
            f"scenario length {N} does not match requested horizon {horizon}")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    j = encode(coeffs, len(zsets))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
    st = _horizon(lin, zsets, terminal, Q, float(rho), N, x0 is None).at(x0)
    steps = [st.step(e - 1, k) for k, e in enumerate(coeffs)]
    A_mat = np.vstack([blk.rows for blk, _, _ in steps] + [st.hz.term_rows])
    b_vec = np.concatenate([offs for _, offs, _ in steps] + [st.term_offs])
    nonlin = tuple(con for _, _, cons in steps for con in cons)
    nonlin += st.term_nonlin

    # Rows without any decision-variable dependence (fixed-x0 region rows at
    # k = 0) are checked once and removed; they cannot steer the solver.
    norms = np.max(np.abs(A_mat), axis=1)
    constant = norms < 1e-13
    pre_violation = float(np.max(-b_vec[constant])) if np.any(constant) else -np.inf
    A_mat, b_vec = A_mat[~constant], b_vec[~constant]

    kinds = {con.kind for con in nonlin}
    prog_class = ("NLP" if "smooth" in kinds
                  else "QCQP" if "quadratic" in kinds else "QP")

    return ConvexProgram(n_vars=st.ops.n_vars, H=st.hz.H, f=st.f, c0=st.c0,
                         A_mat=_readonly(A_mat), b_vec=_readonly(b_vec),
                         nonlin=nonlin, prog_class=prog_class,
                         coeffs=coeffs, scenario_j=j, ops=st.ops,
                         pre_violation=pre_violation,
                         z0_hint=st.hz.hints[coeffs[0] - 1] if x0 is None
                         else st.hint,
                         nonconvex_data=any(blk.nonconvex
                                            for blk, _, _ in steps))


# ---------------------------------------------------------------------------
# interior-point solver
# ---------------------------------------------------------------------------

MU0 = 10.0  # first barrier weight
MU_SHRINK = 10.0  # barrier weight divisor between stages
GAP_TARGET = 1e-9  # last stage: barrier weight times constraint count
ARMIJO_SLOPE = 0.01
BACKTRACK = 0.5
INNER_TOL = 1e-18  # Newton decrement target of phase II's last stage
STAGE_TOL = 1e-11  # Newton decrement target of every other stage
STRICT_MARGIN = 1e-9  # a phase-I slack below -this is strictly feasible


@dataclass(frozen=True)
class SolverConfig:
    feas_tol: float = 1e-7
    kkt_tol: float = 1e-8
    max_newton: int = 500


@dataclass
class Solution:
    status: str
    V: float
    v_seq: np.ndarray
    x_traj: np.ndarray
    kkt_residual: float
    phase1_violation: float
    scenario_j: int
    prog_class: str
    nonconvex_flag: bool
    n_newton: int
    max_constraint: float
    degenerate: bool = False
    stage_values: tuple = ()

    @property
    def optimal(self):
        return self.status == "Optimal"


class _Undecided(Exception):
    """No decision; the argument is the status, IterLimit or Stalled."""


class _Work:
    """Newton budget shared between phases."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.steps = 0

    def spend(self):
        self.steps += 1
        if self.steps > self.cfg.max_newton:
            raise _Undecided("IterLimit")


class _SinusoidGroup:
    """Stacked ridge constraints.

    Every member reads scale*cos~(q.z + r) + lin.z + c <= 0 with
    q = freq * X'dir and r = freq * (dir.x_off) + phase. Stacking collapses the per-constraint
    Python loop inside the Newton iterations into a few matrix products;
    the curvature term is rank-one per member with weight curv >= 0.
    """

    def __init__(self, cons, d, aug):
        m = len(cons)
        width = d + 1 if aug else d
        self.Qm = np.zeros((m, width))
        self.r = np.empty(m)
        self.Lin = np.zeros((m, width))
        self.lc = np.empty(m)
        self.scale = np.empty(m)
        self.lo = np.empty(m)
        self.hi = np.empty(m)
        for i, con in enumerate(cons):
            self.Qm[i, :d] = con.freq * (con.X.T @ con.dir)
            self.r[i] = con.freq * (con.dir @ con.x_off) + con.phase
            self.Lin[i, :d] = con.lin
            self.lc[i] = con.c
            self.scale[i] = con.scale
            self.lo[i] = con.lo
            self.hi[i] = con.hi
        if aug:
            self.Lin[:, d] = -1.0

    def at(self, z):
        """Values at z, and the phase pieces (th, clipped th, cos, sin)
        from which the Newton step derives slopes and curvatures."""
        th = self.Qm @ z + self.r
        thc = th.clip(self.lo, self.hi)
        cos_c = np.cos(thc)
        sin_c = np.sin(thc)
        vals = (self.scale * (cos_c - sin_c * (th - thc))
                + self.Lin @ z + self.lc)
        return vals, (th, thc, cos_c, sin_c)


class _Workset:
    """One program's constraints prepared for fast barrier iterations.

    Three blocks: stacked affine rows, the sinusoid group and the convex
    quadratics. In phase I (aug) the iterate carries the slack t as a last
    column, and every constraint f(z) <= 0 becomes f(z) - t <= 0. relax
    shifts every constraint by a nonnegative slack.
    """

    def __init__(self, prog, aug=False, relax=0.0):
        d = prog.n_vars
        self.aug = aug
        if prog.A_mat.size:
            self.A = (np.hstack([prog.A_mat,
                                 -np.ones((prog.A_mat.shape[0], 1))])
                      if aug else prog.A_mat)
        else:
            self.A = np.zeros((0, d + 1 if aug else d))
        self.relax = relax
        self.b = prog.b_vec + relax
        grp, quads = [], []
        for con in prog.nonlin:
            if isinstance(con, QuadCon):
                quads.append(con)
            elif isinstance(con, RidgeCon):
                grp.append(con)
            else:
                raise TypeError(
                    f"no barrier block for constraint {type(con).__name__}")
        self.group = _SinusoidGroup(grp, d, aug) if grp else None
        self.quads = tuple(quads)
        # constant Hessians, padded with the zero t row and column once
        self.quad_hess = tuple(np.pad(con.H, (0, 1)) if aug else con.H
                               for con in quads)

    def point(self, z, lazy=False):
        """Feasibility margins (positive inside) of the affine, sinusoid and
        quadratic blocks at z, plus the sinusoid phase pieces. With lazy,
        None as soon as an affine margin is not positive."""
        s_aff = self.b - self.A @ z
        if lazy and s_aff.size and s_aff.min() <= 0:
            return None
        relax = self.relax
        if self.group is not None:
            vals, pieces = self.group.at(z)
            s_grp = relax - vals
        else:
            s_grp, pieces = np.empty(0), None
        if self.aug:
            x, t = z[:-1], z[-1]
            s_quad = np.array([relax - (con.value(x) - t)
                               for con in self.quads])
        else:
            s_quad = np.array([relax - con.value(z) for con in self.quads])
        return (s_aff, s_grp, s_quad), pieces

    def quad_grad(self, con, z):
        if self.aug:
            return np.append(con.grad(z[:-1]), -1.0)
        return con.grad(z)


def _newton_solve(Hm, g):
    # the LAPACK routines behind scipy's cho_factor/cho_solve (upper factor)
    c, info = dpotrf(Hm, lower=0, clean=0)
    if info == 0:
        step, info = dpotrs(c, -g, lower=0)
        if info == 0:
            return step
    # saddle-free modified Newton: flip negative curvature so the step is
    # always a descent direction even where iterates see nonconvex territory
    w, V = np.linalg.eigh(0.5 * (Hm + Hm.T))
    scale = max(float(np.max(np.abs(w))), 1.0)
    w = np.maximum(np.abs(w), 1e-12 * scale)
    return -V @ ((V.T @ g) / w)


def _barrier_stage(work, ws, z, mu, f0, inner_tol, stop_when=None):
    """Newton iterations at fixed barrier weight mu over a workset, until
    the Newton decrement falls to 2 inner_tol.

    f0 = (value, grad, hess) callables for the smooth objective part.
    Returns the iterate and how the stage ended: "centered", "stalled" (80
    backtracks, no Armijo step) or "stopped": stop_when, if given, ends the
    stage once the predicate on the iterate holds (used by phase-I as soon
    as strict feasibility shows).
    """
    A = ws.A

    def barrier_value(zz, slacks):
        total = f0[0](zz)
        for s in slacks:
            if s.size:
                if s.min() <= 0:
                    return np.inf
                total -= mu * float(np.log(s).sum())
        return total

    # the accepted line-search trial is the next iterate: its margins,
    # phase pieces and barrier value are reused, never recomputed
    slacks, pieces = ws.point(z)
    base = barrier_value(z, slacks)
    prev_decrement = np.inf
    while True:
        s_aff, s_grp, s_quad = slacks
        grad = f0[1](z)
        hess = f0[2](z).copy()
        if s_aff.size:
            inv = 1.0 / s_aff
            grad = grad + A.T @ (mu * inv)
            hess += (A.T * (mu * inv ** 2)) @ A
        if ws.group is not None:
            grp = ws.group
            th, thc, cos_c, sin_c = pieces
            dphi = -grp.scale * sin_c
            curv = np.where((th < grp.lo) | (th > grp.hi), 0.0,
                            -grp.scale * cos_c)
            G = dphi[:, None] * grp.Qm + grp.Lin
            grad = grad + G.T @ (mu / s_grp)
            hess += (G.T * (mu / s_grp ** 2)) @ G
            hess += (grp.Qm.T * (mu * curv / s_grp)) @ grp.Qm
        for con, Hq, s in zip(ws.quads, ws.quad_hess, s_quad):
            gcon = ws.quad_grad(con, z)
            grad = grad + (mu / s) * gcon
            hess += mu * (gcon[:, None] * gcon / (s * s) + Hq / s)

        step = _newton_solve(hess, grad)
        decrement = float(-grad @ step)
        if decrement <= 2.0 * inner_tol:
            return z, "centered"
        # rounding floor: stiff barrier directions stop making progress long
        # before the decrement test; bail out once contraction stalls
        if decrement < 1e-12 and decrement > 0.3 * prev_decrement:
            return z, "centered"
        prev_decrement = decrement
        work.spend()
        slope = float(grad @ step)
        t = 1.0
        for _ in range(80):
            z_new = z + t * step
            bound = base + ARMIJO_SLOPE * t * slope
            # an infinite barrier value passes only an infinite bound
            trial = ws.point(z_new, lazy=bound < np.inf)
            if trial is not None:
                val = barrier_value(z_new, trial[0])
                if val <= bound:
                    break
            t *= BACKTRACK
        else:
            return z, "stalled"
        z, (slacks, pieces), base = z_new, trial, val
        if stop_when is not None and stop_when(z):
            return z, "stopped"


def _mu_schedule(n_cons):
    mus = []
    mu = MU0
    while True:
        mus.append(mu)
        if mu * max(n_cons, 1) <= GAP_TARGET:
            break
        mu /= MU_SHRINK
        if mu < 1e-300:
            break
    return mus


def _kkt_residual(prog, z, mu_last, relax, cfg):
    """Certified KKT residual: stationarity with nonnegative multipliers,
    duality-gap bound, and primal violation.

    The barrier multipliers mu/s certify stationarity away from the
    boundary; for boundary-hugging solutions a nonnegative least-squares
    refinement over the near-active constraints gives a tighter certificate.
    """
    g0 = prog.objective_grad(z)
    vals = []
    grads = []
    if prog.A_mat.size:
        s_aff = (prog.b_vec + relax) - prog.A_mat @ z
        vals.extend(-s_aff)
        grads.extend(prog.A_mat)
    for con in prog.nonlin:
        vals.append(con.value(z) - relax)
        grads.append(con.grad(z))
    vals = np.array(vals)
    violation = float(np.max(vals, initial=0.0)) + relax
    gap = mu_last * max(prog.n_constraints, 1)
    if not len(grads):
        return max(float(np.max(np.abs(g0))), gap, violation)

    J = np.vstack(grads)
    s = np.maximum(-vals, 1e-300)
    stat_barrier = float(np.max(np.abs(g0 + J.T @ (mu_last / s))))
    stationarity = stat_barrier
    if stat_barrier > 0.5 * cfg.kkt_tol:
        active = s <= 1e-5 * (1.0 + np.abs(vals))
        if np.any(active):
            lam, _ = nnls(J[active].T, -g0)
            stat_ls = float(np.max(np.abs(g0 + J[active].T @ lam)))
            stationarity = min(stationarity, stat_ls)
    return max(stationarity, gap, violation)


def phase1(prog, cfg, work=None):
    """Minimize the worst constraint violation t over (z, t).

    Returns (z, t). A strictly feasible hint is returned as it is, with no
    Newton step; otherwise t is either certified (central-path bound) or
    the first strictly negative slack seen. A stalled stage raises
    _Undecided("Stalled").
    """
    work = work or _Work(cfg)
    d = prog.n_vars
    z = prog.z0_hint.copy()
    viol0 = float(np.max(prog.constraint_values(z))) if prog.n_constraints else -1.0
    if viol0 < -1e-6:
        return z, viol0
    t0 = viol0 + 1.0

    ws = _Workset(prog, aug=True)
    obj_grad = np.zeros(d + 1)
    obj_grad[-1] = 1.0
    zero_hess = np.zeros((d + 1, d + 1))
    f0 = (lambda zt: float(zt[-1]),
          lambda zt: obj_grad,
          lambda zt: zero_hess)

    zt = np.concatenate([z, [t0]])
    done = False
    m = max(prog.n_constraints, 1)
    for mu in _mu_schedule(prog.n_constraints):
        zt, how = _barrier_stage(work, ws, zt, mu, f0, STAGE_TOL,
                                 stop_when=lambda p: p[-1] < -STRICT_MARGIN)
        if zt[-1] < -STRICT_MARGIN:
            done = True
            break
        if how == "stalled":
            raise _Undecided("Stalled")
        if zt[-1] - mu * m > cfg.feas_tol:
            # central-path certificate: t* >= t_mu - m*mu > feas_tol
            break
    z = zt[:-1]
    t_true = float(np.max(prog.constraint_values(z))) if prog.n_constraints else -1.0
    return z, min(t_true, float(zt[-1])) if done else t_true


def solve_feasibility(prog, cfg=SolverConfig()):
    """Phase-I only: decide feasibility against cfg.feas_tol.

    Returns (feasible, slack). Raises NoConvergenceError when the Newton
    budget runs out or a line search stalls before a decision, so callers
    never confuse an undecided probe with a certified infeasibility.
    """
    if prog.pre_violation > cfg.feas_tol:
        return False, prog.pre_violation
    try:
        _, t_star = phase1(prog, cfg)
    except _Undecided as exc:
        raise NoConvergenceError(
            f"feasibility probe ended {exc.args[0]} (budget "
            f"{cfg.max_newton} Newton steps)")
    return t_star <= cfg.feas_tol, t_star


def solve(prog, cfg=SolverConfig()):
    """Phase-I feasibility then phase-II barrier minimization.

    Infeasibility is certified by the optimized phase-I slack exceeding the
    feasibility tolerance; an exhausted Newton budget is reported as
    IterLimit and a stalled line search as Stalled, never as infeasibility.
    """
    work = _Work(cfg)
    nan = float("nan")

    def finish(status, z=None, kkt=nan, p1=nan, degenerate=False):
        if z is None:
            V, v_seq, x_traj, maxc = nan, None, None, nan
        else:
            V = prog.objective_value(z)
            v_seq = z[: prog.ops.N].copy()
            x_traj = prog.ops.states(z)
            vals = prog.constraint_values(z)
            maxc = float(np.max(vals)) if vals.size else 0.0
        return Solution(status=status, V=V, v_seq=v_seq, x_traj=x_traj,
                        kkt_residual=kkt, phase1_violation=p1,
                        scenario_j=prog.scenario_j, prog_class=prog.prog_class,
                        nonconvex_flag=prog.nonconvex_data,
                        n_newton=work.steps, max_constraint=maxc,
                        degenerate=degenerate)

    if prog.pre_violation > cfg.feas_tol:
        return finish("Infeasible", p1=prog.pre_violation)
    try:
        z, t_star = phase1(prog, cfg, work)
    except _Undecided as exc:
        return finish(exc.args[0])
    if t_star > cfg.feas_tol:
        return finish("Infeasible", p1=t_star)

    degenerate = t_star > -STRICT_MARGIN
    relax = (max(t_star, 0.0) + 1e-9) if degenerate else 0.0

    ws = _Workset(prog, relax=relax)
    H2 = 2.0 * prog.H
    f0 = (prog.objective_value,
          prog.objective_grad,
          lambda zz: H2)
    schedule = _mu_schedule(prog.n_constraints)
    stage_values = []
    try:
        for stage, mu in enumerate(schedule):
            last = stage == len(schedule) - 1
            z, how = _barrier_stage(work, ws, z, mu, f0,
                                    INNER_TOL if last else STAGE_TOL)
            if how == "stalled":
                raise _Undecided("Stalled")
            stage_values.append(prog.objective_value(z))
    except _Undecided as exc:
        return finish(exc.args[0], z=z, p1=t_star, degenerate=degenerate)

    kkt = _kkt_residual(prog, z, schedule[-1], relax, cfg)
    out = finish("Optimal", z=z, kkt=kkt, p1=t_star, degenerate=degenerate)
    out.stage_values = tuple(stage_values)
    return out


# ---------------------------------------------------------------------------
# infeasibility screens
# ---------------------------------------------------------------------------

def _lowest_max(a, c):
    """min over v of max_k (a_k v + c_k): the largest constant line, or
    the largest crossing of an increasing and a decreasing line."""
    up, down = a > 0, a < 0
    best = float(np.max(c[~(up | down)], initial=-np.inf))
    if up.any() and down.any():
        ap, cp, aq, cq = a[up, None], c[up, None], a[down], c[down]
        best = max(best, float(np.max((ap * cq - aq * cp) / (ap - aq))))
    return best


class Screen:
    """Certified lower bounds on the phase-I value t* of candidate programs.

    Phase I relaxes every constraint by the same t, so the min-max over any
    subset of a program's constraints, in its own units, bounds its t* from
    below: above feas_tol, the program is Infeasible with no Newton step.
    """

    def __init__(self, lin, zsets):
        # strong references: no id in the cache key is reused
        self.lin, self.zsets, self.pairs = lin, tuple(zsets), {}
        self.ops = condense(lin, 2)
        self.blocks = [[_StageBlock(zs, self.ops.step_map(k)[0])
                        for k in (0, 1)] for zs in self.zsets]
        # slopes in v0, in StageSet.all_values order: stage constraints are
        # affine in v (the last gradient entry), region rows are flat; the
        # next region's rows C x1 - d have C b_hat
        n = lin.A_hat.shape[0]
        self.slopes = [np.array([con.grad(np.zeros(n + 1))[n]
                                 for con in zs.constraints]
                                + [0.0] * zs.region.n_rows)
                       for zs in self.zsets]
        self.next_rows = [(zs.region.C @ lin.A_hat, zs.region.d,
                           zs.region.C @ lin.b_hat) for zs in self.zsets]

    def transition(self, i, j):
        """Bound for every free-x0 program with stage sets i, j first, from
        phase I of that two-step program (no terminal set) through the whole
        mu schedule; -inf when that phase I finds a strictly feasible point
        or is undecided, or for nonconvex data."""
        if (i, j) not in self.pairs:  # a race computes the same value twice
            self.pairs[(i, j)] = self._transition(i, j)
        return self.pairs[(i, j)]

    def _transition(self, i, j):
        first, second = self.blocks[i - 1][0], self.blocks[j - 1][1]
        if first.nonconvex or second.nonconvex:
            return -np.inf
        (b0, cons0), (b1, cons1) = (blk.offsets(np.zeros(blk.M.shape[0]))
                                    for blk in (first, second))
        d = self.ops.n_vars
        hint = np.zeros(d)  # (v0, v1, x0): x0 at region i's centre
        center, _ = self.zsets[i - 1].region.chebyshev_center()
        hint[2:] = 0.0 if center is None else center
        prog = ConvexProgram(
            n_vars=d, H=np.zeros((d, d)), f=np.zeros(d), c0=0.0,
            A_mat=np.vstack([first.rows, second.rows]),
            b_vec=np.concatenate([b0, b1]), nonlin=cons0 + cons1,
            prog_class="", coeffs=(), scenario_j=0, ops=self.ops,
            pre_violation=-np.inf, z0_hint=hint, nonconvex_data=False)
        try:  # no feas_tol can end this phase I early
            _, t = phase1(prog, SolverConfig(feas_tol=np.inf))
        except _Undecided:
            return -np.inf
        # t <= t_last, and t* >= t_last - m*mu_last on the central path
        m = max(prog.n_constraints, 1)
        return (-np.inf if t < -STRICT_MARGIN
                else t - m * _mu_schedule(prog.n_constraints)[-1])

    def one_step(self, x, e1, e2=None):
        """Bound for every fixed-x0 program at state x with stage sets e1,
        e2 first, from its constraints that depend on v0 alone, as lines
        a v0 + c: stage set e1's at (x, v0), its region rows included, and
        region e2's rows at A_hat x + b_hat v0. Their lowest max, less a
        rounding allowance."""
        a, c = [self.slopes[e1 - 1]], [self.zsets[e1 - 1].all_values(x, 0.0)]
        if e2 is not None:
            CA, d, Cb = self.next_rows[e2 - 1]
            a.append(Cb)
            c.append(CA @ x - d)
        a, c = np.concatenate(a), np.concatenate(c)
        return _lowest_max(a, c) - 1e-9 * (1.0 + np.abs(c).max())


def infeasibility_screen(lin, zsets):
    """The Screen of (lin, zsets), kept in the LRU of compiled horizons."""
    key = ("screen", id(lin), tuple(map(id, zsets)))
    return _cached(key, lambda: Screen(lin, zsets))
