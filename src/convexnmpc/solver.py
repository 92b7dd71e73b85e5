"""Per-scenario convex programs in condensed form, a barrier solver, and
certified bounds that screen infeasible programs before any Newton step.

Predicted states are eliminated through the condensed prediction map
x_hat = S z + offset of a compiled horizon (_Horizon), leaving the
artificial inputs (plus the initial state, when it is left free for
feasibility probing) as the only decision variables z; a program carries
its S and offset. A scenario is a coefficient sequence, one stage set per
step. One log-barrier interior-point method covers all constraint
classes; the QP/QCQP/NLP tag is reporting metadata, not a solver dispatch.

One builder (_program) makes every program, a scenario's (assemble), from
one compiled horizon. The infeasibility bounds are phase-I decisions on
constraints with a start: the t* of a head, a scenario's first k stage
blocks without the terminal set (_head_constraints), bounds the
scenario's. Offline a pair of stage sets is the depth-2 head of the free-x0
horizon-2 program (transitions, in the horizons' LRU). Online one call per
state (cuts) gives each candidate the closed-form bound of its depth-1 head
(one_step) and, as the programs at one state share their cost, whose sublevel
sets {V <= B} are ellipsoids, a kill bound K: for B < K a convex row's tangent
misses {V <= B}, so it has no Optimal solve of value <= B; else phase I on its
rows and the cut V(z) <= B may show it, or with no cut (B = inf) that it has no
Optimal solve at all (dominated). One phase-I routine (_phase1) takes
constraints and ordered starts, for these and for every solve.

The Newton kernel keeps two invariants. Each trial point of the line search
is evaluated once: the accepted trial's margins, sinusoid phase pieces and
barrier value become the next iterate's, so no iterate is evaluated twice
(a new barrier weight needs only the barrier value again).
Curvature is decided once per stage set (StageSet.nonconvex): M'HM is
convex when H is, so a program's nonconvex_data is its solution's
nonconvex_flag.

Assembly keeps a third: blocks are compiled once per horizon. What does not
depend on x0 is built on first use and kept read-only in a small LRU; per
state only the offsets are computed, once, with the expressions of a
from-scratch build, so programs stay bit-identical. A parametric form
b + E x0 is avoided on purpose: one stacked matrix product rounds
differently from the per-row products and would move the last bits. For
the same reason a program's affine values stay one matrix product,
rows @ z - offsets (_values), where Constraints.values takes one dot per
row.

A ridge constraint's cosine phase is rounded two ways, too.
Constraints.curved_values and grads (the phase-I start and end, constraint
values, the KKT residual) take freq * (x.dir) + phase at x = X z + x_off,
evaluated for all of a program's ridges at once but with one product and
one dot per constraint; the barrier's stacked group takes its
Constraints.barrier_phase, (freq * X'dir).z + (freq * (dir.x_off) +
phase). One formula for both moves Newton counts and t*, and closed-loop
values by up to 1e-8 relative, which the stored references do not absorb.

The fourth invariant: programs are solved one at a time, each Newton
system factored with LAPACK.
"""
import threading
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import nnls

from .errors import NoConvergenceError, OutOfRangeError
from .geometry import Ellipsoid, Polytope
from .stagesets import Constraints, _readonly


# ---------------------------------------------------------------------------
# condensed prediction and compiled program blocks
# ---------------------------------------------------------------------------

def _responses(lin, N):
    """(Gamma, Phi): the stacked states x_hat(0..N) are Gamma v + Phi x0."""
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
    return Gamma, np.vstack(powers)


class _Horizon:
    """The programs of one horizon: the parts that do not depend on x0,
    compiled once, and the offsets of the latest state (see at). The states
    x_hat(0..N) are S z + offset, z = (v_0..v_{N-1}) with x0 appended when
    it is free: S is Gamma, or [Gamma Phi] when x0 is free, and the offset
    is Phi x0, or 0 when x0 is free (_Offsets). maps[k] is M of the step map
    z -> (x_hat(k), v_k) = M z + m, and blocks[i][k] is stage set i lifted
    by it (StageSet.lift); each state's offsets shift them by its m."""

    def __init__(self, lin, zsets, terminal, Q, rho, N, free):
        # strong references: no id in the cache key is reused while the
        # entry lives
        self.lin, self.zsets, self.terminal = lin, tuple(zsets), terminal
        self.Q = _readonly(Q.copy())
        Gamma, Phi = _responses(lin, N)
        self.N, self.n, self.Phi = N, Phi.shape[1], _readonly(Phi)
        self.S = _readonly(np.hstack([Gamma, Phi]) if free else Gamma)
        self.n_vars = self.S.shape[1]
        self.maps = [_readonly(np.vstack([self.rows(k), np.eye(
            self.n_vars)[k]])) for k in range(N)]
        self.blocks = [[zs.lift(M) for M in self.maps] for zs in self.zsets]
        H = np.zeros((self.n_vars, self.n_vars))
        self.QS = []
        for k in range(N):
            Sx = self.rows(k)
            self.QS.append(_readonly(Q @ Sx))
            H += Sx.T @ self.QS[-1]
            H[k, k] += rho
        SN = self.rows(N)
        self.PS = _readonly(terminal.P @ SN)
        H += SN.T @ self.PS
        self.H = _readonly(0.5 * (H + H.T))
        # the terminal set at x_hat(N) = SN z, with the offsets of oN = 0
        tset = terminal.tset
        if isinstance(tset, Polytope):
            self.term = Constraints.of(self.n_vars, self.n,
                                       rows=tset.C @ SN, offsets=tset.d)
        elif isinstance(tset, Ellipsoid):
            Hq = 2.0 * (SN.T @ tset.P_shape @ SN)
            self.term = Constraints.of(self.n_vars, self.n,
                                       H=[0.5 * (Hq + Hq.T)],
                                       w=[np.zeros(self.n_vars)],
                                       c0=[-tset.level])
        else:
            raise TypeError("terminal set must be a Polytope or an Ellipsoid")
        if not free:  # for cuts, H = L L': L^-1, L^-1 M_k' per step, and the
            # H^-1 norms of each block's affine rows, (N, rows) per stage set
            self.L_inv = _readonly(np.linalg.inv(np.linalg.cholesky(self.H)))
            self.LM = _readonly(np.stack([self.L_inv @ M.T
                                          for M in self.maps]))
            self.norms = [np.linalg.norm(np.stack(
                [blk.rows for blk in row]) @ self.L_inv.T, axis=2)
                for row in self.blocks]
        self.hints = []  # free x0: from the Chebyshev centre of region i
        for zs in self.zsets if free else ():
            z0 = np.zeros(self.n_vars)
            center, _ = zs.region.chebyshev_center()
            if center is not None:
                z0[N:] = center
            self.hints.append(self.rollout(z0, z0[N:].copy()))
        # a free horizon has one set of offsets, keyed None; a fixed one
        # starts with none (no state's key is None)
        self.latest = (None, _Offsets(self, None) if free else None)

    def rows(self, k):
        """The rows of S that give x_hat(k)."""
        return self.S[k * self.n:(k + 1) * self.n]

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
        for k in range(self.N):
            z0[k] = float(self.terminal.kappa @ x_roll)
            x_roll = self.lin.A_hat @ x_roll + self.lin.b_hat * z0[k]
        return _readonly(z0)


class _Offsets:
    """What the programs at one state x0 (None: free) add to their
    horizon's blocks, the offset of the prediction map first."""

    def __init__(self, hz, x0):
        self.offset = _readonly(np.zeros((hz.N + 1) * hz.n) if x0 is None
                                else hz.Phi @ x0)
        xs = self.offset.reshape(hz.N + 1, hz.n)
        f, c0 = np.zeros(hz.n_vars), 0.0
        self.ms = []  # m of the step map at each k
        for ox, QS in zip(xs, hz.QS):
            f += 2.0 * (ox @ QS)
            c0 += float(ox @ hz.Q @ ox)
            self.ms.append(_readonly(np.concatenate([ox, [0.0]])))
        SN, oN = hz.rows(hz.N), xs[hz.N]
        f += 2.0 * (oN @ hz.PS)
        c0 += float(oN @ hz.terminal.P @ oN)
        tset = hz.terminal.tset
        if isinstance(tset, Polytope):
            self.term = replace(hz.term,
                                offsets=_readonly(tset.d - tset.C @ oN))
        else:
            self.term = replace(
                hz.term, w=_readonly((2.0 * (SN.T @ tset.P_shape @ oN))[None]),
                c0=_readonly(np.array(
                    [float(oN @ tset.P_shape @ oN) - tset.level])))
        self.hint = (None if x0 is None
                     else hz.rollout(np.zeros(hz.n_vars), x0.copy()))
        self.hz, self.f, self.c0 = hz, _readonly(f), c0
        self.steps, self.tables = {}, {}

    def step(self, i, k):
        """The constraints of stage set i at step k."""
        if (i, k) not in self.steps:
            hz = self.hz
            self.steps[(i, k)] = hz.zsets[i].shift(hz.blocks[i][k],
                                                   hz.maps[k], self.ms[k])
        return self.steps[(i, k)]

    def kills(self, tau):
        """(worst, kill) of every stage block, arrays (stage set, step), and
        of the terminal set, once per tau (fixed x0): their largest value at
        z_u = -H^-1 f / 2 (a block's are its stage set's at (x_hat(k), v_k)
        there) and their kill bound (nan for nonconvex data; see cuts)."""
        if tau not in self.tables:
            hz, y = self.hz, self.hz.L_inv @ self.f
            z_u, V_u = -0.5 * (hz.L_inv.T @ y), self.c0 - 0.25 * (y @ y)
            floor = V_u - 1e-9 * (1.0 + abs(V_u)) - tau
            P = np.column_stack([(hz.S @ z_u + self.offset).reshape(
                hz.N + 1, hz.n)[:-1], z_u[:hz.N]])
            worst, kill = [], []
            for zs, norms in zip(hz.zsets, hz.norms):
                g = zs.values_batch(P)
                norms = np.hstack([norms, np.linalg.norm(np.einsum(
                    "kab,krb->kra", hz.LM,
                    zs.constraints.curved_grads_batch(P)), axis=2)])
                worst.append(g.max(axis=1))
                kill.append(np.where(zs.nonconvex, np.nan, floor
                                     + (1.0 - 1e-9) * _reach(g, norms, tau)))
            g = _values(self.term, z_u)
            norms = np.linalg.norm(self.term.grads(z_u) @ hz.L_inv.T, axis=1)
            self.tables[tau] = (np.array(worst), np.array(kill), g.max(
                initial=-np.inf), floor + (1.0 - 1e-9) * _reach(g, norms, tau))
        return self.tables[tau]


_HORIZONS, _HORIZONS_MAX = {}, 32  # least recently used first
_HORIZONS_LOCK = threading.RLock()  # a build may compile a horizon


def _cached(key, build):
    """The LRU entry under key (ids of objects the entry holds)."""
    with _HORIZONS_LOCK:
        entry = _HORIZONS.pop(key, None) or build()
        _HORIZONS[key] = entry
        if len(_HORIZONS) > _HORIZONS_MAX:
            del _HORIZONS[next(iter(_HORIZONS))]
    return entry


def _horizon(lin, zsets, terminal, Q, rho, N, free):
    """The compiled horizon, Q taken as a float matrix and rho as a
    float."""
    Q, rho = np.atleast_2d(np.asarray(Q, dtype=float)), float(rho)
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
    conventions). The constraints cons <= 0 are one Constraints, each form
    in step order, the terminal set's last. The predicted states are
    S z + offset over horizon N (see states and _Horizon).
    """

    n_vars: int
    H: np.ndarray
    f: np.ndarray
    c0: float
    cons: Constraints
    scenario_j: int
    N: int
    S: np.ndarray
    offset: np.ndarray
    pre_violation: float
    z0_hint: np.ndarray
    nonconvex_data: bool

    @property
    def prog_class(self):
        return {"smooth": "NLP", "quadratic": "QCQP",
                "affine": "QP"}[self.cons.kind]

    def states(self, z):
        """The predicted states x_hat(0..N) at z, one per row."""
        return (self.S @ z + self.offset).reshape(self.N + 1, -1)

    def objective_value(self, z):
        return float(z @ self.H @ z + self.f @ z + self.c0)

    def objective_grad(self, z):
        return 2.0 * (self.H @ z) + self.f

    def constraint_values(self, z):
        return _values(self.cons, z)


def _values(cons, z):
    """f(z) of every constraint of cons, the affine rows by one matrix
    product (see the module docstring)."""
    return np.concatenate([cons.rows @ z - cons.offsets,
                           cons.curved_values(z)])


def _worst(cons, z):
    """The largest value of cons at z, -1 without constraints."""
    return float(np.max(_values(cons, z))) if len(cons) else -1.0


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


def assemble(coeffs, x0, lin, zsets, terminal, Q, rho):
    """Build the condensed convex program of one scenario, a coefficient
    sequence (one stage set per step).

    x0=None leaves the initial state free (used by the offline pruning);
    otherwise the program is parameterized by the fixed initial state. The
    program's arrays are read-only: those that do not depend on x0 are
    shared by every program of its horizon. The sequence is checked here;
    _program builds it.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("empty scenario")
    encode(coeffs, len(zsets))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
    return _program(_horizon(lin, zsets, terminal, Q, rho, len(coeffs),
                             x0 is None).at(x0), coeffs)


def _program(st, coeffs):
    """The program of coeffs at the state of the offsets st: its stage
    blocks, the terminal set and the cost, on all the horizon's
    variables."""
    hz = st.hz
    full = Constraints.join([*(st.step(e - 1, k) for k, e in enumerate(
        coeffs)), st.term])
    cons, constant = _steered(full)
    return ConvexProgram(
        n_vars=hz.n_vars, H=hz.H, f=st.f, c0=st.c0, cons=cons,
        scenario_j=encode(coeffs, len(hz.zsets)), N=hz.N, S=hz.S,
        offset=st.offset,
        pre_violation=float(np.max(-full.offsets[constant], initial=-np.inf)),
        z0_hint=st.hint if st.hint is not None else hz.hints[coeffs[0] - 1],
        nonconvex_data=any(hz.zsets[e - 1].nonconvex for e in coeffs))


def _steered(cons):
    """(cons without its constant rows, their mask): rows that no decision
    variable enters (fixed-x0 region rows at k = 0) cannot steer the
    solver, so a program checks them once (pre_violation)."""
    constant = np.max(np.abs(cons.rows), axis=1) < 1e-13
    return replace(cons, rows=_readonly(cons.rows[~constant]),
                   offsets=_readonly(cons.offsets[~constant])), constant


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
RELAX_PAD = 1e-9  # added to the relax of a degenerate program's phase II
HINT_MARGIN = 1e-6  # a start with every constraint below -this skips phase I


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
    """The barrier workset of one program in one phase.

    Three blocks: affine rows A z <= b, the ridge group and the convex
    quadratics. A ridge reads scale*cos~(q.z + r) + lin.z + c <= 0 with
    q = freq * X'dir and r = freq * (dir.x_off) + phase; its curvature term
    is rank-one with weight curv >= 0. In phase I (aug) the iterate carries
    the slack t as a last column, and every constraint f(z) <= 0 becomes
    f(z) - t <= 0. relax shifts each constraint by a nonnegative slack.
    Phase I takes the constraints alone; phase II adds the cost (H, f, c0)
    of the program.

    A point is one row: the margins (positive inside) of the three blocks,
    the ridge phase pieces (th, clipped th, cos, sin) from which the Newton
    step derives slopes and curvatures, and last the barrier value.
    """

    def __init__(self, cons, relax, cost=None):
        d, aug = cons.rows.shape[1], cost is None
        w = d + 1 if aug else d
        m, ms, nq = len(cons.rows), len(cons.scale), len(cons.c0)
        self.aug, self.d, self.m, self.ms, self.nq = aug, d, m, ms, nq
        self.A = np.empty((m, w))
        self.A[:, :d] = cons.rows
        if aug:
            self.A[:, d] = -1.0
        self.AT = self.A.T
        self.relax = np.float64(relax)
        self.b = np.array(cons.offsets + relax)
        if aug:  # phase I minimizes t alone
            self.grad_t = np.zeros(w)
            self.grad_t[d] = 1.0
        else:
            H, f, c0 = cost
            self.H, self.f, self.c0 = np.array(H), np.array(f), np.float64(c0)
        if ms:
            self.Qm, self.Lin = np.zeros((ms, w)), np.zeros((ms, w))
            self.Qm[:, :d] = cons.barrier_phase[0]
            self.Lin[:, :d] = cons.lin
            if aug:
                self.Lin[:, d] = -1.0
            self.QT = self.Qm.T
            self.r = np.array(cons.barrier_phase[1])
            self.lc, self.scale = np.array(cons.c), np.array(cons.scale)
            self.lo, self.hi = np.array(cons.lo), np.array(cons.hi)
            self.neg_scale = -self.scale
        if nq:
            self.qH, self.qw = np.array(cons.H), np.array(cons.w)
            self.qc = np.array(cons.c0)
            # constant Hessians, padded with the zero t row and column once
            self.qhess = np.zeros((nq, w, w))
            self.qhess[:, :d, :d] = self.qH
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

    def values(self, z, P, mu):
        """Barrier value at iterate z with point row P and barrier weight
        mu: inf outside the domain."""
        total = z[-1] if self.aug else z @ self.H @ z + self.f @ z + self.c0
        if not self.terms:
            return total
        slack = P[self.slacks]
        inside = np.minimum.reduce(slack, axis=None) > 0
        if inside:
            logs = np.log(slack)
        else:  # outside: some block's least margin is <= 0
            outside = False
            for block, many in self.terms:
                low = slack[block]
                outside = outside | ((low.min() if many else low) <= 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(slack)
        for block, many in self.terms:
            # a one-term block is its own sum
            term = logs[block]
            total = total - mu * (np.add.reduce(term) if many else term)
        return total if inside else np.where(outside, np.inf, total)

    def points(self, z, mu, margins=None):
        """Point row at iterate z with barrier weight mu (and its affine
        margins, if known)."""
        P = np.empty(self.width)
        if self.m:
            P[self.s_aff] = self.b - self.A @ z if margins is None else margins
        relax = self.relax
        if self.ms:
            th = np.add(self.Qm @ z, self.r, out=P[self.th])
            thc = th.clip(self.lo, self.hi, out=P[self.thc])
            cos_c = np.cos(thc, out=P[self.cos])
            sin_c = np.sin(thc, out=P[self.sin])
            vals = (self.scale * (cos_c - sin_c * (th - thc))
                    + self.Lin @ z + self.lc)
            np.subtract(relax, vals, out=P[self.s_grp])
        X = z[:self.d]
        for q in range(self.nq):
            val = 0.5 * X @ self.qH[q] @ X + self.qw[q] @ X + self.qc[q]
            P[self.s_quad.start + q] = (
                relax - (val - z[-1]) if self.aug else relax - val)
        P[-1] = self.values(z, P, mu)
        return P

    def newton(self, z, P, mu):
        """(step, decrement, slope) at iterate z with point row P and
        barrier weight mu, the system factored with LAPACK."""
        w = len(z)
        if self.aug:
            grad, hess = self.grad_t, np.zeros((w, w))
        else:
            grad = 2.0 * (self.H @ z) + self.f
            hess = 2.0 * self.H
        if self.m:
            inv = 1.0 / P[self.s_aff]
            grad = grad + self.AT @ (mu * inv)
            hess += (self.AT * (mu * inv ** 2)[None, :]) @ self.A
        if self.ms:
            s_grp = P[self.s_grp]
            th = P[self.th]
            dphi = self.neg_scale * P[self.sin]
            curv = np.where((th < self.lo) | (th > self.hi), 0.0,
                            self.neg_scale * P[self.cos])
            G = dphi[:, None] * self.Qm + self.Lin
            GT = G.T
            grad = grad + GT @ (mu / s_grp)
            hess += (GT * (mu / s_grp ** 2)[None, :]) @ G
            hess += (self.QT * (mu * curv / s_grp)[None, :]) @ self.Qm
        X = z[:self.d]
        for q in range(self.nq):
            gcon = np.empty(w)
            np.add(self.qH[q] @ X, self.qw[q], out=gcon[:self.d])
            if self.aug:
                gcon[-1] = -1.0
            sq = P[self.s_quad.start + q]
            grad = grad + (mu / sq) * gcon
            hess += mu * (gcon[:, None] * gcon / (sq * sq)
                          + self.qhess[q] / sq)
        step = _newton_solve(hess, grad)
        slope = grad @ step
        # -grad.step, up to the sign of a zero
        return step, -slope, slope


OUTSIDE = _readonly(np.array([np.inf]))  # a trial rejected by its margins


def _search(stack, z, step, mu, base, slope):
    """Backtracking line search from step length 1, with at most 80
    trials: the accepted (iterate, point row, barrier value), or None. A
    trial whose affine margins are not all positive is OUTSIDE, its row
    holding only the barrier value inf."""
    t = 1.0
    for _ in range(80):
        z_new = z + t * step
        if stack.m:
            margins = stack.b - stack.A @ z_new
            row = (OUTSIDE if np.minimum.reduce(margins) <= 0
                   else stack.points(z_new, mu, margins))
        else:
            row = stack.points(z_new, mu)
        val = float(row[-1])
        # an infinite barrier value passes only an infinite bound
        if val <= base + ARMIJO_SLOPE * t * slope:
            return z_new, row, val
        t *= BACKTRACK
    return None


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


def _barrier_stage(work, stack, z, point, mu, inner_tol, stop=-np.inf):
    """Newton iterations at fixed barrier weight mu on a stack, until the
    Newton decrement falls to 2 inner_tol.

    point is z's point row, or None when it is not known yet. Each step's
    backtracking line search evaluates its trials once, and the accepted
    trial's point row and barrier value become the next iterate's. Returns
    the iterate, its point row and how the stage ended: "centered",
    "stalled" (80 backtracks, no Armijo step) or "stopped": phase I ends
    the stage as soon as its t falls below stop.
    """
    base = None  # the barrier value at z, once known at this mu
    prev_decrement = np.inf
    while True:
        if point is None:
            point = stack.points(z, mu)
            base = point[-1]
        step, decrement, slope = stack.newton(z, point, mu)
        decrement = float(decrement)
        # rounding floor: stiff barrier directions stop making progress long
        # before the decrement test; bail out once contraction stalls
        if decrement <= 2.0 * inner_tol or (
                decrement < 1e-12 and decrement > 0.3 * prev_decrement):
            return z, point, "centered"
        prev_decrement = decrement
        work.spend()
        if base is None:
            base = stack.values(z, point, mu)
        found = _search(stack, z, step, mu, float(base), float(slope))
        if found is None:
            return z, point, "stalled"
        z, point, base = found
        if base == np.inf:  # an OUTSIDE row holds nothing else
            point = None
        if z[-1] < stop:
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
    g0, cons = prog.objective_grad(z), prog.cons
    vals = np.concatenate([-((cons.offsets + relax) - cons.rows @ z),
                           cons.curved_values(z) - relax])
    violation = float(np.max(vals, initial=0.0)) + relax
    gap = mu_last * max(len(cons), 1)
    if not vals.size:
        return max(float(np.max(np.abs(g0))), gap, violation)

    J = cons.grads(z)
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


def _phase1(cons, starts, cfg, work, head=False):
    """Minimize the worst violation t of the constraints cons over (z, t):
    (z, t, low), low the central-path bound t_mu - m*mu on t* at the last
    stage run (-inf when it ends as feasible). A stalled stage raises
    _Undecided("Stalled").

    The first start that passes the hint test is returned itself, with no
    Newton step; with none, phase I runs from the last start. The probe
    rule passes a start with every constraint below -HINT_MARGIN and ends
    at a strictly negative slack. The head rule (transitions, dominated)
    only decides whether a bound can exceed feas_tol, so it ends as
    feasible at a start or t below feas_tol, and it starts at the first
    barrier weight whose gap m*mu is at most the start's violation.
    """
    hint, stop = ((cfg.feas_tol, cfg.feas_tol) if head
                  else (-HINT_MARGIN, -STRICT_MARGIN))
    for z in starts:
        viol0 = _worst(cons, z)
        if viol0 < hint:
            return z, viol0, -np.inf

    stack = _Stack(cons, 0.0)
    zt, point = np.concatenate([z, [viol0 + 1.0]]), None
    done = False
    m = max(len(cons), 1)
    schedule = _mu_schedule(len(cons))
    if head:
        schedule = [mu for mu in schedule if mu * m <= viol0] or schedule[-1:]
    for mu in schedule:
        zt, point, how = _barrier_stage(work, stack, zt, point, mu, STAGE_TOL,
                                        stop)
        if zt[-1] < stop:
            done = True
            break
        if how == "stalled":
            raise _Undecided("Stalled")
        if zt[-1] - mu * m > cfg.feas_tol:
            # central-path certificate: t* >= t_mu - m*mu > feas_tol
            break
    z = zt[:-1]
    t_true = _worst(cons, z)
    if done:
        return z, min(t_true, float(zt[-1])), -np.inf
    return z, t_true, float(zt[-1]) - mu * m


def solve_feasibility(prog, cfg=SolverConfig(), starts=()):
    """Phase-I only: decide feasibility against cfg.feas_tol.

    Returns (feasible, slack, z). Phase I takes the starts, then
    prog.z0_hint (_phase1's probe rule): a start with every constraint
    below -HINT_MARGIN settles the probe as z, with no Newton step. Phase I
    on convex data cannot certify infeasibility while such a point exists;
    on nonconvex data the starts are ignored. z is None when a constant row
    decides. Raises NoConvergenceError when the Newton budget runs out or a
    line search stalls before a decision, so callers never confuse an
    undecided probe with a certified infeasibility.
    """
    if prog.pre_violation > cfg.feas_tol:
        return False, prog.pre_violation, None
    starts = () if prog.nonconvex_data else tuple(starts)
    try:
        z, t_star, _ = _phase1(prog.cons, (*starts, prog.z0_hint), cfg,
                               _Work(cfg))
    except _Undecided as exc:
        raise NoConvergenceError(
            f"feasibility probe ended {exc.args[0]} (budget "
            f"{cfg.max_newton} Newton steps)")
    return t_star <= cfg.feas_tol, t_star, z


def solve(prog, cfg=SolverConfig()):
    """Phase-I feasibility then phase-II barrier minimization of prog: its
    Solution.

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
            v_seq = z[: prog.N].copy()
            x_traj = prog.states(z)
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
        z, t_star, _ = _phase1(prog.cons, (prog.z0_hint,), cfg, work)
    except _Undecided as exc:
        return finish(exc.args[0])
    if t_star > cfg.feas_tol:
        return finish("Infeasible", p1=t_star)

    degenerate = t_star > -STRICT_MARGIN
    relax = (max(t_star, 0.0) + RELAX_PAD) if degenerate else 0.0

    stack = _Stack(prog.cons, relax, (prog.H, prog.f, prog.c0))
    schedule = _mu_schedule(len(prog.cons))
    point = None
    try:
        for stage, mu in enumerate(schedule):
            last = stage == len(schedule) - 1
            z, point, how = _barrier_stage(
                work, stack, z, point, mu, INNER_TOL if last else STAGE_TOL)
            if how == "stalled":
                raise _Undecided("Stalled")
    except _Undecided as exc:
        return finish(exc.args[0], z=z, p1=t_star, degenerate=degenerate)

    kkt = _kkt_residual(prog, z, schedule[-1], relax, cfg)
    return finish("Optimal", z=z, kkt=kkt, p1=t_star, degenerate=degenerate)


# ---------------------------------------------------------------------------
# infeasibility bounds: phase I relaxes every constraint by the same t, so
# the min-max over a head's constraints bounds the t* of every program
# under it; above feas_tol, the program is Infeasible with no Newton step
# ---------------------------------------------------------------------------

def _lowest_max(a, c):
    """min over v of max_k (a_k v + c_k): the largest constant line, or the
    largest crossing of an increasing and a decreasing line, whose abscissa
    minimises the max of the sloped lines, so of all lines too."""
    up, down = a > 0, a < 0
    best = float(np.max(c[~(up | down)], initial=-np.inf))
    if up.any() and down.any():
        ap, cp, aq, cq = a[up, None], c[up, None], a[down], c[down]
        best = max(best, float(np.max((ap * cq - aq * cp) / (ap - aq))))
    return best


def _head_phase1(cons, start, cfg):
    """Phase I of a head's constraints from start under the head rule:
    (low, Newton steps), low None when it is undecided."""
    work = _Work(cfg)
    try:
        low = _phase1(cons, (start,), cfg, work, head=True)[2]
    except _Undecided:
        low = None
    return low, work.steps


def _head_constraints(st, head):
    """The constraints of a head at the state of the offsets st: its stage
    blocks joined, with no constant row; None for nonconvex data."""
    if any(st.hz.zsets[e - 1].nonconvex for e in head):
        return None
    return _steered(Constraints.join(
        [st.step(e - 1, k) for k, e in enumerate(head)]))[0]


def transitions(lin, zsets, terminal, cfg):
    """{(i, j): a lower bound on t* of every free-x0 program with stage
    sets i, j first}, kept in the LRU of compiled horizons per (lin, zsets,
    terminal, cfg). The pair is the head (i, j) of the free-x0 horizon 2
    with Q = I, rho = 1 (the horizon a prune's level-2 probes compile),
    started from its hint for region i. -inf when a start or an iterate
    falls below cfg.feas_tol, when phase I is undecided, or for nonconvex
    data."""
    def build():
        n, s = lin.A_hat.shape[0], len(zsets)
        st = _horizon(lin, zsets, terminal, np.eye(n), 1.0, 2, True).at(None)
        bounds = {}
        for i in range(1, s + 1):
            for j in range(1, s + 1):
                cons = _head_constraints(st, (i, j))
                low = (None if cons is None else
                       _head_phase1(cons, st.hz.hints[i - 1], cfg)[0])
                bounds[(i, j)] = -np.inf if low is None else low
        # strong references: no id in the key is reused while it lives
        return lin, tuple(zsets), terminal, bounds

    key = ("transitions", id(lin), tuple(map(id, zsets)), id(terminal), cfg)
    return _cached(key, build)[-1]


def _lines(st, e1, e2=None):
    """The lines a v0 + c of stage set e1's block at step 0 at the state of
    the offsets st (its values at z = 0 and the v0 column of its gradients,
    as its constraints are affine in v0), then region e2's rows at step 1."""
    z = np.zeros(st.hz.n_vars)
    cons = st.step(e1 - 1, 0)
    a, c = cons.grads(z)[:, 0], cons.values(z)
    if e2 is not None:
        cons = st.step(e2 - 1, 1)
        rows = slice(st.hz.zsets[e2 - 1].region.n_rows)
        a = np.concatenate([a, cons.rows[rows, 0]])
        c = np.concatenate([c, cons.rows[rows] @ z - cons.offsets[rows]])
    return a, c


def one_step(st, e1, e2=None):
    """Bound for every fixed-x0 program at the state of the offsets st
    with stage sets e1, e2 first, from its constraints that depend on v0
    alone (_lines at v0 = 0): stage set e1's, its region rows included,
    and region e2's rows at step 1. Their lowest max, less a rounding
    allowance."""
    a, c = _lines(st, e1, e2)
    return _lowest_max(a, c) - 1e-9 * (1.0 + np.abs(c).max())


def _reach(g, norms, tau):
    """The largest ((g - tau) / norm)^2 over the last axis of rows with
    g > tau, g less its rounding allowance (see cuts); -inf with none."""
    over = g - 1e-9 * (1.0 + np.abs(g)) - tau
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(over > 0, (over / norms) ** 2, -np.inf).max(
            axis=-1, initial=-np.inf)


def cuts(x, seqs, lin, zsets, terminal, Q, rho, cfg):
    """(low, worst, kill) of each fixed-x0 program at state x of the
    coefficient sequences seqs (one horizon): its one_step bound, once per
    distinct first two stage sets (Screened above cfg.feas_tol), then the
    largest of its stage blocks' and its terminal set's (_Offsets.kills) value
    at z_u, the cost's least point, and kill bound K; (0, -inf) while fewer
    than two programs have low <= cfg.feas_tol, as one has nothing to choose or
    cut. For B < K no z with every row within an Optimal solve's relax, tau =
    cfg.feas_tol + RELAX_PAD, has V(z) <= B + tau: the claim of dominated, with
    no Newton step.

    As V(z) = V_u + (z - z_u)'H(z - z_u), a row's tangent at z_u is at
    least g(z_u) - sqrt(B + tau - V_u) ||grad g(z_u)||_{H^-1} on
    {V <= B + tau} (the support function of an ellipsoid; Boyd &
    Vandenberghe, Convex Optimization, 8.4), and a convex row lies on or
    above it: K is the largest V_u - tau + ((g(z_u) - tau) /
    ||grad g(z_u)||_{H^-1})^2 over the rows with g(z_u) > tau, or -inf
    with a nonconvex block, as in dominated. Rounding: g(z_u), the norms,
    z_u and V_u are a few dozen products of numbers of order 1 to 100 on
    the packaged systems, each off by about 1e-13 relative (an error d in
    z_u moves a tangent by grad g.d, as little); g(z_u), V_u and the
    squared quotient are each moved 1e-9 relative against the kill."""
    if not seqs:
        return []
    st = _horizon(lin, zsets, terminal, Q, rho, len(seqs[0]), False).at(x)
    bounds = {head: one_step(st, *head)
              for head in dict.fromkeys(seq[:2] for seq in seqs)}
    low = [bounds[seq[:2]] for seq in seqs]
    if sum(b <= cfg.feas_tol for b in low) < 2:
        return [(b, 0.0, -np.inf) for b in low]
    worst, kill, term_worst, term_kill = st.kills(cfg.feas_tol + RELAX_PAD)
    blocks = (np.array(seqs) - 1, np.arange(st.hz.N))
    kill = np.maximum(kill[blocks].max(axis=1), term_kill)
    return list(zip(low, np.maximum(worst[blocks].max(axis=1),
                                    term_worst).tolist(),
                    np.where(np.isnan(kill), -np.inf, kill).tolist()))


def dominated(prog, bound, cfg):
    """Whether the fixed-x0 program prog is shown to have no Optimal solve
    of value at most bound, and the Newton steps spent, where the kill of
    cuts does not reach (bound >= K, or inf): the head rule's phase I from
    the program's start on its constraints and the objective cut
    V(z) - bound <= 0, or on its constraints alone for bound = inf. Phase I
    relaxes every row and the cut by one t, so t* above feas_tol +
    RELAX_PAD, an Optimal solve's largest relax, leaves no z with every row
    within it and a value at most the bound; with no cut, t* > feas_tol
    leaves solve Infeasible or undecided. Nonconvex data gets no cut."""
    if prog.nonconvex_data:
        return False, 0
    cons = prog.cons
    if bound < np.inf:
        cons = Constraints.join([cons, Constraints.of(
            prog.n_vars, cons.dir.shape[1], H=[2.0 * prog.H], w=[prog.f],
            c0=[prog.c0 - bound])])
    low, steps = _head_phase1(cons, prog.z0_hint, cfg)
    return low is not None and low > cfg.feas_tol + RELAX_PAD, steps
