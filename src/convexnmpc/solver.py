"""Per-scenario convex programs in condensed form, a barrier solver, and
certified bounds that screen infeasible programs before any Newton step.

Predicted states are eliminated through the linear prediction map, leaving
the artificial inputs (plus the initial state, when it is left free for
feasibility probing) as the only decision variables. One log-barrier
interior-point method covers all constraint classes; the QP/QCQP/NLP tag
is reporting metadata, not a solver dispatch.

The Newton kernel keeps two invariants. Each trial point of the line search
is evaluated once: the accepted trial's margins, sinusoid phase pieces and
barrier value become the next iterate's, so no iterate is evaluated twice
(a new barrier weight needs only the barrier value again).
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
KKT residual) take freq * (x.dir) + phase at x = X z + x_off, evaluated for
all of a program's ridges at once but with one product and one dot per
constraint; the barrier's stacked group takes (freq * X'dir).z +
(freq * (dir.x_off) + phase). One formula for both moves Newton counts and
t*, and closed-loop values by up to 1e-8 relative, which the stored
references do not absorb.

The fourth invariant: a batch does each candidate's arithmetic exactly.
solve_many runs the Newton iterations of many programs in lockstep; each
round forms the Newton systems and the first line-search trials of the live
candidates of one program shape together (a program alone in its shape
steps without waiting for a round), while phases, stages, budgets, line
searches and certificates stay per candidate. Only products
whose rounding does not depend on the stacking are shared: a stacked
matrix product equals its per-slice products bit for bit when the slices
have equal shapes, but a matrix-vector product changes with the number of
rows, so none is padded or folded across candidates or constraints; every
sum runs over one candidate's unpadded slice; and each system is factored
on its own with LAPACK (a stacked Cholesky rounds differently). So solve is
a batch of one, and no solution depends on the batch it was solved in.
"""
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

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
        m = self.A_mat.shape[0]
        vals = np.empty(self.n_constraints)
        vals[:m] = self.A_mat @ z - self.b_vec
        vals[m:] = self._blocks.values(z)
        return vals

    @cached_property
    def _blocks(self):
        return _Blocks(self.nonlin, self.n_vars)


class _Blocks:
    """A program's nonlinear constraints by class: the ridges stacked, the
    quadratics as they are, and where each sits among the constraints.

    values and grads keep RidgeCon's own rounding: X z + x_off as one
    product per constraint, x.dir and lin.z as one dot per constraint, never
    folded into one matrix product over all of them.
    """

    def __init__(self, cons, d):
        self.n, self.d = len(cons), d
        ridge = [k for k, con in enumerate(cons) if isinstance(con, RidgeCon)]
        self.quad_at = [k for k, con in enumerate(cons)
                        if isinstance(con, QuadCon)]
        if len(ridge) + len(self.quad_at) != len(cons):
            other = next(con for con in cons
                         if not isinstance(con, (RidgeCon, QuadCon)))
            raise TypeError(
                f"no barrier block for constraint {type(other).__name__}")
        self.ridge_at = np.array(ridge, dtype=int)
        self.quads = tuple(cons[k] for k in self.quad_at)
        ridges = [cons[k] for k in ridge]
        if not ridges:
            return
        for name in ("scale", "freq", "dir", "phase", "lo", "hi", "X",
                     "x_off", "lin", "c"):
            setattr(self, name, np.array([getattr(con, name)
                                          for con in ridges]))
        self.XT = self.X.transpose(0, 2, 1)
        # the barrier's phase q.z + r
        self.Qm = self.freq[:, None] * (self.XT @ self.dir[:, :, None])[:, :, 0]
        self.r = (self.freq * (self.dir[:, None, :]
                               @ self.x_off[:, :, None])[:, 0, 0]
                  + self.phase)

    def _phase(self, z):
        x = (self.X @ z[:, None])[:, :, 0] + self.x_off
        th = (self.freq * (x[:, None, :] @ self.dir[:, :, None])[:, 0, 0]
              + self.phase)
        return th, np.clip(th, self.lo, self.hi)

    def values(self, z):
        out = np.empty(self.n)
        if self.ridge_at.size:
            th, thc = self._phase(z)
            val = self.scale * np.cos(thc)
            slope = -self.scale * np.sin(thc)
            out[self.ridge_at] = (val + slope * (th - thc)
                                  + (self.lin[:, None, :]
                                     @ z[:, None])[:, 0, 0] + self.c)
        for k, con in zip(self.quad_at, self.quads):
            out[k] = con.value(z)
        return out

    def grads(self, z):
        out = np.empty((self.n, self.d))
        if self.ridge_at.size:
            _, thc = self._phase(z)
            slope = -self.scale * np.sin(thc)
            u = (slope * self.freq)[:, None] * self.dir
            out[self.ridge_at] = (self.XT @ u[:, :, None])[:, :, 0] + self.lin
        for k, con in zip(self.quad_at, self.quads):
            out[k] = con.grad(z)
        return out


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


class _Stack:
    """The barrier worksets of a batch's programs of one shape in one phase:
    those still in it, stacked along a first axis.

    Three blocks: affine rows A z <= b, the ridge group and the convex
    quadratics. A ridge member reads scale*cos~(q.z + r) + lin.z + c <= 0
    with q = freq * X'dir and r = freq * (dir.x_off) + phase; its curvature
    term is rank-one with weight curv >= 0. In phase I (aug) the iterate
    carries the slack t as a last column, and every constraint f(z) <= 0
    becomes f(z) - t <= 0. A member's relax shifts each of its constraints
    by a nonnegative slack.

    A point is one row: the margins (positive inside) of the three blocks,
    the ridge phase pieces (th, clipped th, cos, sin) from which the Newton
    step derives slopes and curvatures, and last the barrier value.

    A stack is alone when no other program of its batch has its shape: its
    one member shares no round, so its requests are served as they come.
    """

    def __init__(self, aug, alone):
        self.aug, self.alone, self.progs, self.relaxes = aug, alone, [], []
        self.rows, self.pos, self.members = (), {}, None

    def add(self, prog, relax):
        """Row of a new member with its relax."""
        self.progs.append(prog)
        self.relaxes.append(relax)
        return len(self.progs) - 1

    def _build(self, rows):
        """The arrays of the members rows, in their order."""
        progs, aug = [self.progs[r] for r in rows], self.aug
        relaxes = [self.relaxes[r] for r in rows]
        d, k = progs[0].n_vars, len(progs)
        w = d + 1 if aug else d
        blocks = [p._blocks for p in progs]
        m, ms, nq = (progs[0].A_mat.shape[0], len(blocks[0].ridge_at),
                     len(blocks[0].quads))
        self.d, self.m, self.ms, self.nq = d, m, ms, nq
        self.A = np.empty((k, m, w))
        self.A[:, :, :d] = [p.A_mat for p in progs]
        if aug:
            self.A[:, :, d] = -1.0
        self.relax = np.array(relaxes)
        self.b = np.array([p.b_vec + relax for p, relax in
                           zip(progs, relaxes)]).reshape(k, m)
        self.arrays = ["A", "b", "relax"]
        if aug:  # phase I minimizes t alone
            self.grad_t = np.zeros((k, w))
            self.grad_t[:, d] = 1.0
            self.arrays.append("grad_t")
        else:
            self.H = np.array([p.H for p in progs])
            self.f = np.array([p.f for p in progs])
            self.c0 = np.array([p.c0 for p in progs])
            self.arrays += ["H", "f", "c0"]
        if ms:
            self.Qm, self.Lin = np.zeros((k, ms, w)), np.zeros((k, ms, w))
            self.Qm[:, :, :d] = [bl.Qm for bl in blocks]
            self.Lin[:, :, :d] = [bl.lin for bl in blocks]
            if aug:
                self.Lin[:, :, d] = -1.0
            for name, attr in (("r", "r"), ("lc", "c"), ("scale", "scale"),
                               ("lo", "lo"), ("hi", "hi")):
                setattr(self, name, np.array([getattr(bl, attr)
                                              for bl in blocks]))
            self.neg_scale = -self.scale
            self.arrays += ["Qm", "Lin", "r", "lc", "scale", "neg_scale", "lo",
                            "hi"]
        if nq:
            self.qH = np.array([[q.H for q in bl.quads] for bl in blocks])
            self.qw = np.array([[q.w for q in bl.quads] for bl in blocks])
            self.qc = np.array([[q.c0 for q in bl.quads] for bl in blocks])
            # constant Hessians, padded with the zero t row and column once
            self.qhess = np.zeros((k, nq, w, w))
            self.qhess[:, :, :d, :d] = self.qH
            self.arrays += ["qH", "qw", "qc", "qhess"]
        # the point row: margins by block, phase pieces, barrier value
        ends = list(accumulate([0, m, ms, nq, ms, ms, ms, ms, 1]))
        (self.s_aff, self.s_grp, self.s_quad, self.th, self.thc, self.cos,
         self.sin, _) = (slice(a, b) for a, b in zip(ends, ends[1:]))
        self.slacks = slice(0, m + ms + nq)
        self.terms = [(block, True) if block.stop - block.start > 1
                      else (block.start, False)
                      for block in (self.s_aff, self.s_grp, self.s_quad)
                      if block.stop > block.start]
        self.width = ends[-1]
        self.rows, self.pos = rows, {r: i for i, r in enumerate(rows)}
        self.members = _Members(self, range(k))

    def of(self, rows):
        """_Members of the rows served together in a round: every member
        still in this phase. The arrays are built again, of these members
        only, whenever that set changes."""
        rows = tuple(rows)
        if rows != self.rows:
            self._build(rows)
        return self.members

    def part(self, rows):
        """_Members of some of the rows of the last of(), for one use."""
        return _Members(self, [self.pos[r] for r in rows])

    def values(self, s, Z, P, mu):
        """Barrier values at iterates Z of the members s (see points), with
        point rows P and barrier weights mu: inf outside the domain."""
        one = Z.ndim == 1
        if self.aug:
            total = Z[-1] if one else Z[..., -1]
        elif one:
            total = Z @ s.H @ Z + s.f @ Z + s.c0
        else:
            total = (((Z[..., None, :] @ s.H) @ Z[..., None])
                     + (s.f[..., None, :] @ Z[..., None]))[..., 0, 0] + s.c0
        if not self.terms:
            return total
        slack = P[..., self.slacks]
        inside = np.minimum.reduce(slack, axis=None) > 0
        if inside:
            logs = np.log(slack)
        else:  # outside: some block's least margin is <= 0
            outside = False
            for block, many in self.terms:
                low = _at(slack, block)
                outside = outside | ((low.min(axis=-1) if many else low) <= 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(slack)
        for block, many in self.terms:
            # a one-term block is its own sum
            term = logs[block] if one else logs[..., block]
            total = total - mu * (np.add.reduce(term, axis=-1) if many
                                  else term)
        return total if inside else np.where(outside, np.inf, total)

    def margins(self, s, Z):
        """Affine margins at iterates Z of the members s (see points)."""
        return s.b - _mv(s.A, Z)

    def points(self, s, Z, mu, margins=None):
        """Point rows at iterates Z (.., w) of the members s, with barrier
        weights mu (and their affine margins, if known): Z is (w,) for a
        single member, (k, w) for several, or (K, k, w) for K trials of
        each of several."""
        P = np.empty(Z.shape[:-1] + (self.width,))
        if self.m:
            P[..., self.s_aff] = (self.margins(s, Z) if margins is None
                                  else margins)
        relax = s.relax
        if self.ms:
            th = np.add(_mv(s.Qm, Z), s.r, out=P[..., self.th])
            thc = th.clip(s.lo, s.hi, out=P[..., self.thc])
            cos_c = np.cos(thc, out=P[..., self.cos])
            sin_c = np.sin(thc, out=P[..., self.sin])
            vals = (s.scale * (cos_c - sin_c * (th - thc))
                    + _mv(s.Lin, Z) + s.lc)
            np.subtract(relax[..., None] if s.several else relax, vals,
                        out=P[..., self.s_grp])
        X = Z[..., :self.d]
        for q in range(self.nq):
            if Z.ndim == 1:
                val = 0.5 * X @ s.qH[q] @ X + s.qw[q] @ X + s.qc[q]
            else:
                Xc = X[..., None]
                val = ((((0.5 * X)[..., None, :] @ s.qH[..., q, :, :]) @ Xc
                        + (s.qw[..., q, None, :] @ Xc))[..., 0, 0]
                       + s.qc[..., q])
            P[..., self.s_quad.start + q] = (
                relax - (val - _at(Z, -1)) if self.aug else relax - val)
        P[..., -1] = self.values(s, Z, P, mu)
        return P

    def newton(self, s, Z, P, mu):
        """(steps, decrements, slopes) of the members s at iterates Z with
        point rows P and barrier weights mu, each system factored on its
        own: Z is (w,) for a single member and (k, w) for several."""
        w, several = Z.shape[-1], s.several
        mu_ = mu[:, None] if several else mu  # against a member's rows
        if self.aug:
            grad, hess = s.grad_t, np.zeros(Z.shape + (w,))
        else:
            grad = 2.0 * _mv(s.H, Z) + s.f
            hess = 2.0 * s.H
        if self.m:
            inv = 1.0 / P[..., self.s_aff]
            grad = grad + _mv(s.AT, mu_ * inv)
            hess += (s.AT * (mu_ * inv ** 2)[..., None, :]) @ s.A
        if self.ms:
            s_grp = P[..., self.s_grp]
            th = P[..., self.th]
            dphi = s.neg_scale * P[..., self.sin]
            curv = np.where((th < s.lo) | (th > s.hi), 0.0,
                            s.neg_scale * P[..., self.cos])
            G = dphi[..., None] * s.Qm + s.Lin
            GT = G.swapaxes(-1, -2)
            grad = grad + _mv(GT, mu_ / s_grp)
            hess += (GT * (mu_ / s_grp ** 2)[..., None, :]) @ G
            hess += (s.QT * (mu_ * curv / s_grp)[..., None, :]) @ s.Qm
        X = Z[..., :self.d]
        for q in range(self.nq):
            gcon = np.empty(Z.shape)
            np.add(_mv(s.qH[..., q, :, :], X), s.qw[..., q, :],
                   out=gcon[..., :self.d])
            if self.aug:
                gcon[..., -1] = -1.0
            sq = _at(P, self.s_quad.start + q)
            if several:
                grad = grad + (mu / sq)[:, None] * gcon
                hess += mu[:, None, None] * (
                    gcon[:, :, None] * gcon[:, None, :]
                    / (sq * sq)[:, None, None]
                    + s.qhess[:, q] / sq[:, None, None])
            else:
                grad = grad + (mu / sq) * gcon
                hess += mu * (gcon[:, None] * gcon / (sq * sq)
                              + s.qhess[q] / sq)
        if several:
            steps = np.empty(grad.shape)
            for j in range(len(steps)):
                steps[j] = _newton_solve(hess[j], grad[j])
            slope = (grad[:, None, :] @ steps[:, :, None])[:, 0, 0]
        else:
            steps = _newton_solve(hess, grad)
            slope = grad @ steps
        # -grad.step, up to the sign of a zero
        return steps, -slope, slope


def _mv(M, Z):
    """M z for each iterate z of Z (the last axis), one product each."""
    return M @ Z if Z.ndim == 1 else (M @ Z[..., None])[..., 0]


def _at(P, i):
    """P[..., i], a scalar when P is one row and i an index."""
    return P[i] if P.ndim == 1 else P[..., i]


class _Members:
    """Some members of a _Stack: its arrays at their positions, with a
    first axis for several members and without one for a single member."""

    def __init__(self, stack, positions):
        self.several = len(positions) > 1
        index = (positions[0] if not self.several
                 else slice(None) if isinstance(positions, range)
                 else np.array(positions))
        for name in stack.arrays:
            setattr(self, name, getattr(stack, name)[index])
        self.AT = self.A.swapaxes(-1, -2)
        if stack.ms:
            self.QT = self.Qm.swapaxes(-1, -2)


class _Batch:
    """Programs solved together: one _Stack per phase and program shape,
    holding the programs that entered that phase."""

    def __init__(self, progs):
        self.progs, self.stacks = list(progs), {}
        self.shapes = [(p.n_vars, p.A_mat.shape[0], len(p._blocks.ridge_at),
                        len(p._blocks.quads)) for p in self.progs]

    def member(self, i, aug, relax=0.0):
        """(stack, row) of program i entering phase I (aug) or phase II."""
        shape = self.shapes[i]
        if (aug,) + shape not in self.stacks:
            self.stacks[(aug,) + shape] = _Stack(
                aug, alone=self.shapes.count(shape) == 1)
        stack = self.stacks[(aug,) + shape]
        return stack, stack.add(self.progs[i], relax)


TRIALS = 5  # line-search trials evaluated together for several members
OUTSIDE = _readonly(np.array([np.inf]))  # a trial rejected by its margins


def _search(stack, s, z, step, mu, base, slope, t, tries):
    """Backtracking line search of one member from step length t, with at
    most tries trials: the accepted (iterate, point row, barrier value), or
    None. A trial whose affine margins are not all positive is OUTSIDE, its
    row holding only the barrier value inf."""
    for _ in range(tries):
        z_new = z + t * step
        if stack.m:
            margins = s.b - s.A @ z_new
            row = (OUTSIDE if np.minimum.reduce(margins) <= 0
                   else stack.points(s, z_new, mu, margins))
        else:
            row = stack.points(s, z_new, mu)
        val = float(row[-1])
        # an infinite barrier value passes only an infinite bound
        if val <= base + ARMIJO_SLOPE * t * slope:
            return z_new, row, val
        t *= BACKTRACK
    return None


def _line_searches(stack, s, rows, Z, steps, mu, base, slope, going):
    """The line search of each of several members whose stage goes on (see
    _search), 80 trials at most; None for the others. Their first TRIALS
    trials are evaluated together."""
    ts = [1.0]
    for _ in range(TRIALS - 1):
        ts.append(ts[-1] * BACKTRACK)
    zs = Z + np.array(ts)[:, None, None] * steps  # trial, member, variable
    points = stack.points(s, zs, mu)
    found = []
    for j, (b, sl) in enumerate(zip(base, slope)):
        if not going[j]:
            found.append(None)
            continue
        for i, t in enumerate(ts):
            val = float(points[i, j, -1])
            if val <= b + ARMIJO_SLOPE * t * sl:  # rows of their own
                found.append((zs[i, j].copy(), points[i, j].copy(), val))
                break
        else:
            found.append(_search(stack, stack.part([rows[j]]), Z[j], steps[j],
                                 mu[j], b, sl, t * BACKTRACK, 80 - TRIALS))
    return found


def _serve_one(stack, req):
    """The answer to a Newton request (stack, row, z, mu, point, base,
    centered), which holds z, its point row (None: not known yet), its
    barrier value at weight mu (None: not known at this weight) and the
    stage's centered test. The answer holds the point row, the Newton
    decrement, and unless the stage ends there, the line search's accepted
    (iterate, point row, barrier value), None when it stalls."""
    _, row, z, mu, point, base, centered = req
    s = stack.of((row,))
    if point is None:
        point = stack.points(s, z, mu)
        base = point[-1]
    step, decrement, slope = stack.newton(s, z, point, mu)
    decrement = float(decrement)
    if centered(decrement):
        return point, decrement, None
    if base is None:
        base = stack.values(s, z, point, mu)
    return point, decrement, _search(stack, s, z, step, mu, float(base),
                                     float(slope), 1.0, 80)


def _serve(stack, reqs):
    """The answers to several Newton requests on one stack (see
    _serve_one), in order, formed together."""
    _, rows, Z, mu, P, base, centered = zip(*reqs)
    P, base = list(P), list(base)
    s = stack.of(rows)
    Z, mu = np.array(Z), np.array(mu)
    missing = [j for j, point in enumerate(P) if point is None]
    if missing:
        fresh = stack.points(stack.part([rows[j] for j in missing]),
                             Z[missing], mu[missing])
        for j, point in zip(missing, fresh):
            P[j], base[j] = point.copy(), point[-1]
    points, P = P, np.array(P)
    steps, decrement, slope = stack.newton(s, Z, P, mu)
    decrement, slope = decrement.tolist(), slope.tolist()
    # the barrier value and the line search serve only a stage that goes on
    going = [not test(dec) for test, dec in zip(centered, decrement)]
    if not any(going):
        return [(point, dec, None) for point, dec in zip(points, decrement)]
    stale = [j for j, value in enumerate(base)
             if going[j] and value is None]
    if stale:
        fresh = stack.values(stack.part([rows[j] for j in stale]),
                             Z[stale], P[stale], mu[stale])
        for j, value in zip(stale, fresh):
            base[j] = value
    found = _line_searches(stack, s, rows, Z, steps, mu,
                           [float(value) if go else np.inf
                            for value, go in zip(base, going)], slope, going)
    return list(zip(points, decrement, found))


def _drive(runs):
    """Run candidate generators in lockstep.

    A generator yields Newton requests (see _serve) and returns its
    result. Each round serves every waiting candidate's one request, those
    on one stack together; a candidate on a stack that is alone serves its
    own requests and yields none. Returns the results and the number of
    rounds.
    """
    results, pending = [None] * len(runs), {}

    def advance(i, answer):
        try:
            pending[i] = runs[i].send(answer)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    rounds = 0
    while pending:
        rounds += 1
        if len(pending) == 1:  # a lone candidate needs no grouping
            (i, req), = pending.items()
            advance(i, _serve_one(req[0], req))
            continue
        served = {}
        for i, req in pending.items():
            served.setdefault(req[0], []).append(i)
        answers = []
        for stack, ids in served.items():
            answers += ([(ids[0], _serve_one(stack, pending[ids[0]]))]
                        if len(ids) == 1 else
                        zip(ids, _serve(stack, [pending[i] for i in ids])))
        for i, answer in answers:
            advance(i, answer)
    return results, rounds


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


def _barrier_stage(work, member, z, point, mu, inner_tol, stop=False):
    """Newton iterations at fixed barrier weight mu on a stack member, until
    the Newton decrement falls to 2 inner_tol (a generator of requests).

    point is z's point row, or None when it is not known yet. Each request
    (yielded, or served at once on a stack that is alone) is answered with
    the point row, the Newton decrement and, unless the stage ends, the
    backtracking line search's accepted trial, whose point row and barrier
    value become the next iterate's. Returns the iterate, its point row
    and how the stage ended: "centered", "stalled" (80 backtracks, no
    Armijo step) or "stopped": with stop, phase I ends the stage as soon as
    strict feasibility shows (t < -STRICT_MARGIN).
    """
    stack, row = member
    base = None  # the barrier value at z, once known at this mu
    prev_decrement = np.inf

    def centered(decrement):
        # rounding floor: stiff barrier directions stop making progress long
        # before the decrement test; bail out once contraction stalls
        return decrement <= 2.0 * inner_tol or (
            decrement < 1e-12 and decrement > 0.3 * prev_decrement)

    while True:
        req = (stack, row, z, mu, point, base, centered)
        point, decrement, found = (_serve_one(stack, req) if stack.alone
                                   else (yield req))
        if centered(decrement):
            return z, point, "centered"
        prev_decrement = decrement
        work.spend()
        if found is None:
            return z, point, "stalled"
        z, point, base = found
        if base == np.inf:  # an OUTSIDE row holds nothing else
            point = None
        if stop and z[-1] < -STRICT_MARGIN:
            return z, point, "stopped"


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
    m = prog.A_mat.shape[0]
    vals = np.empty(prog.n_constraints)
    vals[:m] = -((prog.b_vec + relax) - prog.A_mat @ z)
    vals[m:] = prog._blocks.values(z) - relax
    violation = float(np.max(vals, initial=0.0)) + relax
    gap = mu_last * max(prog.n_constraints, 1)
    if not vals.size:
        return max(float(np.max(np.abs(g0))), gap, violation)

    J = np.empty((vals.size, prog.n_vars))
    J[:m] = prog.A_mat
    J[m:] = prog._blocks.grads(z)
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


def _phase1(batch, i, cfg, work):
    """Phase I of program i of the batch (a generator of requests): see
    phase1."""
    prog = batch.progs[i]
    z = prog.z0_hint.copy()
    viol0 = float(np.max(prog.constraint_values(z))) if prog.n_constraints else -1.0
    if viol0 < -1e-6:
        return z, viol0
    t0 = viol0 + 1.0

    member = batch.member(i, aug=True)
    zt, point = np.concatenate([z, [t0]]), None
    done = False
    m = max(prog.n_constraints, 1)
    for mu in _mu_schedule(prog.n_constraints):
        zt, point, how = yield from _barrier_stage(work, member, zt, point,
                                                   mu, STAGE_TOL, stop=True)
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


def phase1(prog, cfg):
    """Minimize the worst constraint violation t over (z, t).

    Returns (z, t). A strictly feasible hint is returned as it is, with no
    Newton step; otherwise t is either certified (central-path bound) or
    the first strictly negative slack seen. A stalled stage raises
    _Undecided("Stalled").
    """
    (out,), _ = _drive([_phase1(_Batch([prog]), 0, cfg, _Work(cfg))])
    return out


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


def _solve(batch, i, cfg):
    """Phase I then phase II of program i of the batch (a generator of
    requests): see solve."""
    prog = batch.progs[i]
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
        z, t_star = yield from _phase1(batch, i, cfg, work)
    except _Undecided as exc:
        return finish(exc.args[0])
    if t_star > cfg.feas_tol:
        return finish("Infeasible", p1=t_star)

    degenerate = t_star > -STRICT_MARGIN
    relax = (max(t_star, 0.0) + 1e-9) if degenerate else 0.0

    member = batch.member(i, aug=False, relax=relax)
    schedule = _mu_schedule(prog.n_constraints)
    stage_values, point = [], None
    try:
        for stage, mu in enumerate(schedule):
            last = stage == len(schedule) - 1
            z, point, how = yield from _barrier_stage(
                work, member, z, point, mu, INNER_TOL if last else STAGE_TOL)
            if how == "stalled":
                raise _Undecided("Stalled")
            stage_values.append(prog.objective_value(z))
    except _Undecided as exc:
        return finish(exc.args[0], z=z, p1=t_star, degenerate=degenerate)

    kkt = _kkt_residual(prog, z, schedule[-1], relax, cfg)
    out = finish("Optimal", z=z, kkt=kkt, p1=t_star, degenerate=degenerate)
    out.stage_values = tuple(stage_values)
    return out


def solve_many(progs, cfg=SolverConfig()):
    """Solve programs together: phase-I feasibility then phase-II barrier
    minimization for each, their Newton iterations in lockstep.

    Infeasibility is certified by the optimized phase-I slack exceeding the
    feasibility tolerance; an exhausted Newton budget is reported as
    IterLimit and a stalled line search as Stalled, never as infeasibility.
    Each program sees exactly the arithmetic of a batch of one. Returns the
    solutions, in order, and the number of lockstep rounds: programs of one
    shape share them, and a program alone in its shape runs without them
    (a batch of one takes none).
    """
    batch = _Batch(progs)
    return _drive([_solve(batch, i, cfg) for i in range(len(batch.progs))])


def solve(prog, cfg=SolverConfig()):
    """solve_many of one program: its Solution."""
    (sol,), _ = solve_many([prog], cfg)
    return sol


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
