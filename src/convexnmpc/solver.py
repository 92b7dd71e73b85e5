"""Per-scenario convex programs in condensed form, a barrier solver, and
certified bounds that screen infeasible programs before any Newton step.

Predicted states are eliminated through the condensed prediction map
x_hat = S z + offset of a compiled horizon (_Horizon), leaving the
artificial inputs (plus the initial state, when it is left free for
feasibility probing) as the only decision variables z; a program carries
its S and offset. A scenario is a coefficient sequence, one stage set per
step. One log-barrier interior-point method covers all constraint
classes; the QP/QCQP/NLP tag is reporting metadata, not a solver dispatch.

One builder (_program) makes every program from one compiled horizon: a
scenario's program (assemble), and the phase-I program of a head, a
scenario's first k stage blocks without the terminal set, whose value
bounds the scenario's from below. The infeasibility bounds test heads
under one phase-I rule: offline a pair of stage sets is the depth-2 head
of the free-x0 horizon-2 program (transitions, kept in the horizons' LRU),
online the heads that several candidates share are walked depth by depth
(heads), each start extended by the lines that a step's compiled block
holds (_lines). The same rule with one more row, the objective cut
V(z) <= B, which the programs at one state share as they share their
cost, shows that a program has no Optimal solve of value <= B (dominated).

The Newton kernel keeps two invariants. Each trial point of the line search
is evaluated once: the accepted trial's margins, sinusoid phase pieces and
barrier value become the next iterate's, so no iterate is evaluated twice
(a new barrier weight needs only the barrier value again).
Curvature is decided once per compiled stage block: M'HM is convex when H
is, so a program's nonconvex_data is its solution's nonconvex_flag.

Assembly keeps a third: blocks are compiled once per horizon. What does not
depend on x0 is built on first use and kept read-only in a small LRU; per
state only the offsets are computed, once, with the expressions of a
from-scratch build, so programs stay bit-identical. A parametric form
b + E x0 is avoided on purpose: one stacked matrix product rounds
differently from the per-row products and would move the last bits. For
the same reason a program's affine values stay one matrix product,
rows @ z - offsets, where Constraints.values takes one dot per row.

A ridge constraint's cosine phase is rounded two ways, too.
Constraints.curved_values and grads (the phase-I start and end, constraint
values, the KKT residual) take freq * (x.dir) + phase at x = X z + x_off,
evaluated for all of a program's ridges at once but with one product and
one dot per constraint; the barrier's stacked group takes its
Constraints.barrier_phase, (freq * X'dir).z + (freq * (dir.x_off) +
phase). One formula for both moves Newton counts and t*, and closed-loop
values by up to 1e-8 relative, which the stored references do not absorb.

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


class _StageBlock:
    """Stage set zs at one step, composed with the step map
    z -> (x_hat(k), v_k) = M z + m: its constraints lifted by M, the region
    rows first, then the interval sides, with the offsets of m = 0; and
    at(m) for any m."""

    def __init__(self, zs, M):
        self.zs, self.M = zs, _readonly(M)
        lifted = zs.constraints.lift(M)
        self.cons = replace(
            lifted, rows=_readonly(np.vstack([zs.lifted_C @ M, lifted.rows])),
            offsets=_readonly(np.concatenate([zs.lifted_d, lifted.offsets])))
        self.nonconvex = bool(np.any(
            np.linalg.eigvalsh(zs.constraints.H) < -1e-8))

    def at(self, m):
        """The constraints at m: the stage constraints shifted by m, then
        lifted by M, whose products with rows, X, lin and H are those of
        the lift above (the region rows by one matrix product, the sides
        per row)."""
        cons, zs = self.zs.constraints.shift(m), self.zs
        return replace(
            self.cons, offsets=_readonly(np.concatenate(
                [zs.lifted_d - zs.lifted_C @ m, cons.offsets])),
            x_off=cons.x_off, c=cons.c, c0=cons.c0,
            w=_readonly((self.M.T @ cons.w[:, :, None])[:, :, 0]))


class _Horizon:
    """The programs of one horizon: the parts that do not depend on x0,
    compiled once, and the offsets of the latest state (see at). The states
    x_hat(0..N) are S z + offset, z = (v_0..v_{N-1}) with x0 appended when
    it is free: S is Gamma, or [Gamma Phi] when x0 is free, and the offset
    is Phi x0, or 0 when x0 is free (_Offsets)."""

    def __init__(self, lin, zsets, terminal, Q, rho, N, free):
        # strong references: no id in the cache key is reused while the
        # entry lives
        self.lin, self.zsets, self.terminal = lin, tuple(zsets), terminal
        self.Q = _readonly(Q.copy())
        Gamma, Phi = _responses(lin, N)
        self.N, self.n, self.Phi = N, Phi.shape[1], _readonly(Phi)
        self.S = _readonly(np.hstack([Gamma, Phi]) if free else Gamma)
        self.n_vars = self.S.shape[1]
        self.blocks = [[_StageBlock(zs, self.step_map(k)) for k in range(N)]
                       for zs in self.zsets]
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

    def step_map(self, k):
        """M of the step map z -> (x_hat(k), v_k) = M z + m (_Offsets.ms)."""
        M = np.zeros((self.n + 1, self.n_vars))
        M[:self.n] = self.rows(k)
        M[self.n, k] = 1.0
        return M

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
        self.steps = {}

    def step(self, i, k):
        """(block, constraints) of stage set i at step k."""
        if (i, k) not in self.steps:
            blk = self.hz.blocks[i][k]
            self.steps[(i, k)] = blk, blk.at(self.ms[k])
        return self.steps[(i, k)]


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
    def n_constraints(self):
        return len(self.cons)

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
        cons = self.cons
        return np.concatenate([cons.rows @ z - cons.offsets,
                               cons.curved_values(z)])


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
    _program builds it, as it builds the screens' head programs.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("empty scenario")
    encode(coeffs, len(zsets))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
    return _program(_horizon(lin, zsets, terminal, Q, rho, len(coeffs),
                             x0 is None).at(x0), coeffs)


def _program(st, coeffs, start=None):
    """The program of coeffs at the state of the offsets st.

    Without a start, the scenario's: its stage blocks, the terminal set and
    the cost, on all the horizon's variables. With one, the phase-I program
    of the head coeffs (k steps): its stage blocks alone, on their inputs
    v_0..v_{k-1} and x0 when it is free, with no terminal and zero cost,
    started at start.
    """
    hz, head = st.hz, start is not None
    blks, parts = map(list, zip(*(st.step(e - 1, k)
                                  for k, e in enumerate(coeffs))))
    if not head:
        parts.append(st.term)
        start = st.hint if st.hint is not None else hz.hints[coeffs[0] - 1]
    cons = Constraints.join(parts)
    n_vars, H, f, c0 = hz.n_vars, hz.H, st.f, st.c0
    if head:
        cols = [*range(len(coeffs)), *range(hz.N, n_vars)]
        if len(cols) < n_vars:  # cut the inputs past the head
            cons = replace(cons, rows=cons.rows[:, cols],
                           X=cons.X[:, :, cols], lin=cons.lin[:, cols],
                           H=cons.H[:, cols][:, :, cols], w=cons.w[:, cols])
        n_vars = len(cols)
        H, f, c0 = np.zeros((n_vars, n_vars)), np.zeros(n_vars), 0.0

    # Rows without any decision-variable dependence (fixed-x0 region rows at
    # k = 0) are checked once and removed; they cannot steer the solver.
    constant = np.max(np.abs(cons.rows), axis=1) < 1e-13
    pre_violation = float(np.max(-cons.offsets[constant], initial=-np.inf))
    cons = replace(cons, rows=_readonly(cons.rows[~constant]),
                   offsets=_readonly(cons.offsets[~constant]))

    return ConvexProgram(n_vars=n_vars, H=H, f=f, c0=c0, cons=cons,
                         scenario_j=encode(coeffs, len(hz.zsets)), N=hz.N,
                         S=hz.S, offset=st.offset,
                         pre_violation=pre_violation, z0_hint=start,
                         nonconvex_data=any(blk.nonconvex for blk in blks))


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
        cons = [p.cons for p in progs]
        m, ms, nq = len(cons[0].rows), len(cons[0].scale), len(cons[0].c0)
        self.d, self.m, self.ms, self.nq = d, m, ms, nq
        self.A = np.empty((k, m, w))
        self.A[:, :, :d] = [c.rows for c in cons]
        if aug:
            self.A[:, :, d] = -1.0
        self.relax = np.array(relaxes)
        self.b = np.array([c.offsets + relax for c, relax in
                           zip(cons, relaxes)]).reshape(k, m)
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
            self.Qm[:, :, :d] = [c.barrier_phase[0] for c in cons]
            self.Lin[:, :, :d] = [c.lin for c in cons]
            if aug:
                self.Lin[:, :, d] = -1.0
            self.r = np.array([c.barrier_phase[1] for c in cons])
            for name, attr in (("lc", "c"), ("scale", "scale"), ("lo", "lo"),
                               ("hi", "hi")):
                setattr(self, name, np.array([getattr(c, attr)
                                              for c in cons]))
            self.neg_scale = -self.scale
            self.arrays += ["Qm", "Lin", "r", "lc", "scale", "neg_scale", "lo",
                            "hi"]
        if nq:
            self.qH = np.array([c.H for c in cons])
            self.qw = np.array([c.w for c in cons])
            self.qc = np.array([c.c0 for c in cons])
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
        self.shapes = [(p.n_vars, len(p.cons.rows), len(p.cons.scale),
                        len(p.cons.c0)) for p in self.progs]

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


def _barrier_stage(work, member, z, point, mu, inner_tol, stop=-np.inf):
    """Newton iterations at fixed barrier weight mu on a stack member, until
    the Newton decrement falls to 2 inner_tol (a generator of requests).

    point is z's point row, or None when it is not known yet. Each request
    (yielded, or served at once on a stack that is alone) is answered with
    the point row, the Newton decrement and, unless the stage ends, the
    backtracking line search's accepted trial, whose point row and barrier
    value become the next iterate's. Returns the iterate, its point row
    and how the stage ended: "centered", "stalled" (80 backtracks, no
    Armijo step) or "stopped": phase I ends the stage as soon as its t
    falls below stop.
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
    gap = mu_last * max(prog.n_constraints, 1)
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


def _phase1(batch, i, cfg, work, head=False):
    """Phase I of program i of the batch (a generator of requests): see
    phase1. Returns (z, t, low), low the central-path bound t_mu - m*mu on
    t* at the last stage run (-inf when it ends as feasible).

    The phase I of a head (heads and transitions, the one screen rule)
    only decides whether its bound can exceed feas_tol, so it ends as
    feasible once its start or its t is below feas_tol, and it starts at
    the first barrier weight whose gap m*mu is no larger than the start's
    violation. Any other end leaves low a central-path bound
    taken at a centred stage.
    """
    prog = batch.progs[i]
    z = prog.z0_hint.copy()
    viol0 = float(np.max(prog.constraint_values(z))) if prog.n_constraints else -1.0
    hint, stop = ((cfg.feas_tol, cfg.feas_tol) if head
                  else (-HINT_MARGIN, -STRICT_MARGIN))
    if viol0 < hint:
        return z, viol0, -np.inf
    t0 = viol0 + 1.0

    member = batch.member(i, aug=True)
    zt, point = np.concatenate([z, [t0]]), None
    done = False
    m = max(prog.n_constraints, 1)
    schedule = _mu_schedule(prog.n_constraints)
    if head:
        schedule = [mu for mu in schedule if mu * m <= viol0] or schedule[-1:]
    for mu in schedule:
        zt, point, how = yield from _barrier_stage(work, member, zt, point,
                                                   mu, STAGE_TOL, stop)
        if zt[-1] < stop:
            done = True
            break
        if how == "stalled":
            raise _Undecided("Stalled")
        if zt[-1] - mu * m > cfg.feas_tol:
            # central-path certificate: t* >= t_mu - m*mu > feas_tol
            break
    z = zt[:-1]
    t_true = float(np.max(prog.constraint_values(z))) if prog.n_constraints else -1.0
    if done:
        return z, min(t_true, float(zt[-1])), -np.inf
    return z, t_true, float(zt[-1]) - mu * m


def phase1(prog, cfg):
    """Minimize the worst constraint violation t over (z, t).

    Returns (z, t). A strictly feasible hint is returned as it is, with no
    Newton step; otherwise t is either certified (central-path bound) or
    the first strictly negative slack seen. A stalled stage raises
    _Undecided("Stalled").
    """
    ((z, t, _),), _ = _drive([_phase1(_Batch([prog]), 0, cfg, _Work(cfg))])
    return z, t


def solve_feasibility(prog, cfg=SolverConfig(), starts=()):
    """Phase-I only: decide feasibility against cfg.feas_tol.

    Returns (feasible, slack, z). The starts are tested in order, and the
    first that passes phase I's hint test (every constraint below
    -HINT_MARGIN) settles the probe with no Newton step: it is returned
    itself as z, with its worst constraint value as the slack. Phase I on
    convex data cannot certify infeasibility while such a point exists, so
    the decision is phase I's; on nonconvex data the starts are ignored.
    Otherwise phase I runs from prog.z0_hint, and z is its point (None when
    a constant row decides). Raises NoConvergenceError when the Newton
    budget runs out or a line search stalls before a decision, so callers
    never confuse an undecided probe with a certified infeasibility.
    """
    if prog.pre_violation > cfg.feas_tol:
        return False, prog.pre_violation, None
    for start in () if prog.nonconvex_data else starts:
        worst = float(np.max(prog.constraint_values(start)))
        if worst < -HINT_MARGIN:
            return True, worst, start
    try:
        z, t_star = phase1(prog, cfg)
    except _Undecided as exc:
        raise NoConvergenceError(
            f"feasibility probe ended {exc.args[0]} (budget "
            f"{cfg.max_newton} Newton steps)")
    return t_star <= cfg.feas_tol, t_star, z


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
        z, t_star, _ = yield from _phase1(batch, i, cfg, work)
    except _Undecided as exc:
        return finish(exc.args[0])
    if t_star > cfg.feas_tol:
        return finish("Infeasible", p1=t_star)

    degenerate = t_star > -STRICT_MARGIN
    relax = (max(t_star, 0.0) + RELAX_PAD) if degenerate else 0.0

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
# infeasibility bounds: phase I relaxes every constraint by the same t, so
# the min-max over a head's constraints bounds the t* of every program
# under it; above feas_tol, the program is Infeasible with no Newton step
# ---------------------------------------------------------------------------

def _lowest_max(a, c):
    """min over v of max_k (a_k v + c_k), and a v attaining it: the largest
    constant line, or the largest crossing of an increasing and a
    decreasing line. That crossing's abscissa minimises the max of the
    sloped lines, so of all lines too (v = 0 without a crossing)."""
    up, down = a > 0, a < 0
    best, v = float(np.max(c[~(up | down)], initial=-np.inf)), 0.0
    if up.any() and down.any():
        ap, cp, aq, cq = a[up, None], c[up, None], a[down], c[down]
        cross = (ap * cq - aq * cp) / (ap - aq)
        p, q = np.unravel_index(np.argmax(cross), cross.shape)
        best = max(best, float(cross[p, q]))
        v = float((cq[q] - cp[p, 0]) / (ap[p, 0] - aq[q]))
    return best, v


def _head_phase1(batch, i, cfg):
    """Phase I of head program i of the batch (a generator of requests):
    (z, low, Newton steps), z and low None when it is undecided."""
    work = _Work(cfg)
    try:
        z, _, low = yield from _phase1(batch, i, cfg, work, head=True)
    except _Undecided:
        z = low = None
    return z, low, work.steps


def transitions(lin, zsets, terminal, cfg):
    """{(i, j): a lower bound on t* of every free-x0 program with stage
    sets i, j first}, kept in the LRU of compiled horizons per (lin, zsets,
    terminal, cfg). The pair is the head (i, j) of the free-x0 horizon 2
    with Q = I, rho = 1 (the horizon a prune's level-2 probes compile),
    started from its hint for region i; all pairs run phase I together in
    one lockstep drive. -inf when a start or an iterate falls below
    cfg.feas_tol, when phase I is undecided, or for nonconvex data."""
    def build():
        n, s = lin.A_hat.shape[0], len(zsets)
        st = _horizon(lin, zsets, terminal, np.eye(n), 1.0, 2, True).at(None)
        progs = {(i, j): _program(st, (i, j), st.hz.hints[i - 1])
                 for i in range(1, s + 1) for j in range(1, s + 1)}
        live = [pair for pair, prog in progs.items()
                if not prog.nonconvex_data]
        batch = _Batch([progs[pair] for pair in live])
        results, _ = _drive([_head_phase1(batch, k, cfg)
                             for k in range(len(live))])
        bounds = dict.fromkeys(progs, -np.inf)
        bounds.update((pair, low) for pair, (_, low, _)
                      in zip(live, results) if low is not None)
        # strong references: no id in the key is reused while it lives
        return lin, tuple(zsets), terminal, bounds

    key = ("transitions", id(lin), tuple(map(id, zsets)), id(terminal), cfg)
    return _cached(key, build)[-1]


def _lines(st, e, k, z, nxt=None):
    """The lines a v_k + c of stage set e's block at step k, at the state
    of the offsets st, through z (whose v_k is 0): the block's values at z
    and the v_k column of its gradients, as each of its constraints is
    affine in v_k. With nxt, region nxt's rows at step k + 1 follow."""
    _, cons = st.step(e - 1, k)
    a, c = cons.grads(z)[:, k], cons.values(z)
    if nxt is not None:
        _, cons = st.step(nxt - 1, k + 1)
        rows = slice(st.hz.zsets[nxt - 1].region.n_rows)
        a = np.concatenate([a, cons.rows[rows, k]])
        c = np.concatenate([c, cons.rows[rows] @ z - cons.offsets[rows]])
    return a, c


def one_step(st, e1, e2=None):
    """Bound for every fixed-x0 program at the state of the offsets st
    with stage sets e1, e2 first, from its constraints that depend on v0
    alone (_lines at v0 = 0): stage set e1's, its region rows included,
    and region e2's rows at step 1. Their lowest max, less a rounding
    allowance, and a v0 where it is attained."""
    a, c = _lines(st, e1, 0, np.zeros(st.hz.n_vars), e2)
    low, v0 = _lowest_max(a, c)
    return low - 1e-9 * (1.0 + np.abs(c).max()), v0


def heads(x, seqs, lin, zsets, terminal, Q, rho, cfg):
    """Bounds for the fixed-x0 programs at state x of the coefficient
    sequences seqs (one horizon), walking their heads: a depth-k head
    is the program of a sequence's first k stage blocks, with no
    terminal, on v_0..v_{k-1}, and its t* bounds every program under it.
    Returns (bounds, Newton steps of the head tests); a bound above
    cfg.feas_tol screens its program. No program is changed.

    Depth 1 is one_step per distinct first two stage sets, exact here,
    and its v0 is the point of that head. At depth k = 2, 3, .. each
    convex head that two or more programs share, and whose parent head
    (one depth up) has a point, starts from that point extended by the
    v_{k-1} with the lowest max of stage set e_k's lines at step k - 1
    (_head_program). The heads of one depth run phase I together, in one
    lockstep drive; a start whose worst row is below feas_tol is the
    head's point with no Newton step, as no bound can exceed feas_tol
    then. A head whose central-path bound exceeds feas_tol screens its
    programs; one that phase I leaves undecided screens nothing and ends
    its walk; any other keeps phase I's point.
    """
    if not seqs:
        return [], 0
    N = len(seqs[0])
    st = _horizon(lin, zsets, terminal, Q, rho, N, False).at(x)
    bounds, n_newton = [-np.inf] * len(seqs), 0
    points = {}  # walked head -> its point (v_0..v_{k-1})
    for head, members in _groups(seqs, range(len(seqs)), 2).items():
        low, v0 = one_step(st, *head)
        if low > cfg.feas_tol:
            for i in members:
                bounds[i] = low
        else:
            points[head] = np.array([v0])
    for k in range(2, N):
        up = max(k - 1, 2)  # depth 1 is keyed by two stage sets
        walked = [i for i, seq in enumerate(seqs) if seq[:up] in points]
        tested = [(head, members, _head_program(st, head, points[head[:up]]))
                  for head, members in _groups(seqs, walked, k).items()
                  if len(members) > 1]
        tested = [test for test in tested if not test[2].nonconvex_data]
        batch = _Batch([prog for _, _, prog in tested])
        results, _ = _drive([_head_phase1(batch, i, cfg)
                             for i in range(len(tested))])
        points = {}
        for (head, members, _), (z, low, steps) in zip(tested, results):
            n_newton += steps
            if low is not None and low > cfg.feas_tol:
                for i in members:
                    bounds[i] = low
            elif z is not None:
                points[head] = z
        if not points:
            break
    return bounds, n_newton


def dominated(progs, bound, cfg):
    """Whether each fixed-x0 program is shown to have no Optimal solve of
    value at most bound, and the Newton steps spent: the head rule's
    phase I on the program with one more row, the objective cut
    z'Hz + f.z + c0 - bound <= 0 (all in one lockstep drive). Phase I
    relaxes every row and the cut by one t, so a bound on t* above
    feas_tol + RELAX_PAD leaves no z with every row within an Optimal
    solve's relax (at most feas_tol + RELAX_PAD) and a value at most the
    bound. Nonconvex data gets no cut, as in heads."""
    live = [i for i, prog in enumerate(progs) if not prog.nonconvex_data]
    rows = (Constraints.of(p.n_vars, p.cons.dir.shape[1], H=[2.0 * p.H],
                           w=[p.f], c0=[p.c0 - bound]) for p in progs)
    batch = _Batch([replace(p, cons=Constraints.join([p.cons, row]))
                    for p, row in zip(progs, rows) if not p.nonconvex_data])
    results, _ = _drive([_head_phase1(batch, k, cfg)
                         for k in range(len(live))])
    out = [False] * len(progs)
    for i, (_, low, _) in zip(live, results):
        out[i] = low is not None and low > cfg.feas_tol + RELAX_PAD
    return out, sum(steps for _, _, steps in results)


def _head_program(st, head, parent):
    """Phase-I program of a depth-k head at the state of offsets st,
    started from the parent head's point extended by the v_{k-1} with
    the lowest max of stage set e_k's lines there."""
    z = np.concatenate([parent, np.zeros(st.hz.n_vars - len(parent))])
    _, v = _lowest_max(*_lines(st, head[-1], len(parent), z))
    return _program(st, head, np.append(parent, v))


def _groups(seqs, indices, k):
    """The indices by their sequence's first k coefficients, in order."""
    out = {}
    for i in indices:
        out.setdefault(seqs[i][:k], []).append(i)
    return out
