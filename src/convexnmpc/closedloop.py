"""Online evaluation: scenario sweep per state, receding-horizon simulation,
and state-space grids for plotting.

The simulator always propagates the true nonlinear plant; the linear
prediction model lives only inside the optimal control problems. Ties
between equally optimal scenarios are broken toward the smallest index so
results are independent of solve order. A candidate whose head bound
(solver.heads: the one-step bound, then phase I on the heads it shares
with other candidates) exceeds the feasibility tolerance is Infeasible and
is screened instead of solved. In closed loop, the continuations of the
previous step's sequence are solved first, and a later candidate that an
objective cut shows cannot beat one of them is Dominated and not solved
(evaluate_ocp, solver.dominated).
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleStateError
from .geometry import MEMBERSHIP_TOL
from .linearize import u_of_v
from .model import dynamics_step
from .scenario import decode, filter_for_state, worker_map
# solve is not called here, but perfbench/tracing.py wraps closedloop.solve
from .solver import (SolverConfig, assemble, dominated,  # noqa: F401
                     encode, heads, solve, solve_many)

TIE_TOL = 1e-9
UNDECIDED = ("IterLimit", "Stalled")  # statuses that decide nothing


@dataclass
class MpcStepResult:
    u: float
    v: float
    j_star: int
    V: float
    n_scenarios_solved: int
    per_scenario: list = None
    n_undecided: int = 0
    n_screened: int = 0
    n_newton: int = 0  # Newton steps summed over the solved candidates
    n_rounds: int = 0  # lockstep rounds of their batch (solver.solve_many)
    n_head_newton: int = 0  # Newton steps of the head tests (solver.heads)
    n_dominated: int = 0  # not solved: an earlier lead beats them
    n_cut_newton: int = 0  # Newton steps of the cut tests (solver.dominated)


def _fmt(x):
    return format(float(x), ".17g")


@dataclass
class Trajectory:
    x: np.ndarray       # (steps+1, n) visited states
    u: np.ndarray       # (steps,) applied inputs
    v: np.ndarray       # (steps,) artificial inputs
    V: np.ndarray       # (steps,) optimal values
    j_star: np.ndarray  # (steps,) chosen scenarios

    @property
    def steps(self):
        return self.u.shape[0]

    def to_csv(self):
        n = self.x.shape[1]
        header = ",".join(["k"] + [f"x{i + 1}" for i in range(n)]
                          + ["u", "v", "V", "j_star"])
        lines = [header]
        for k in range(self.steps):
            cells = [str(k)] + [_fmt(c) for c in self.x[k]]
            cells += [_fmt(self.u[k]), _fmt(self.v[k]), _fmt(self.V[k]),
                      str(int(self.j_star[k]))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass
class GridTable:
    points: np.ndarray    # (m, n)
    feasible: np.ndarray  # (m,) 0/1
    u_star: np.ndarray    # (m,) nan when infeasible
    V_star: np.ndarray
    j_star: np.ndarray    # 0 when infeasible
    per_scenario: dict = field(default_factory=dict)

    def to_csv(self):
        n = self.points.shape[1]
        header = ",".join([f"x{i + 1}" for i in range(n)]
                          + ["feasible", "u_star", "V_star", "j_star"])
        extra = sorted(self.per_scenario)
        if extra:
            header += "," + ",".join(f"feas_j{j}" for j in extra)
        lines = [header]
        for m in range(self.points.shape[0]):
            cells = [_fmt(c) for c in self.points[m]]
            cells.append(str(int(self.feasible[m])))
            cells += [_fmt(self.u_star[m]), _fmt(self.V_star[m]),
                      str(int(self.j_star[m]))]
            cells += [str(int(self.per_scenario[j][m])) for j in extra]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def applied_candidate(solutions):
    """Index of the solution that is applied among candidates in ascending
    index order: the best Optimal one, ties within TIE_TOL going to the
    earlier one. None when no solution is Optimal. A None solution (a
    screened candidate) is skipped."""
    best = None
    for i, sol in enumerate(solutions):
        if sol is not None and sol.optimal and (
                best is None or sol.V < solutions[best].V - TIE_TOL):
            best = i
    return best


def evaluate_ocp(x, catalog, spec, lin, zsets, terminal, Q, rho,
                 cfg=None, keep_per_scenario=False, prev=None):
    """Solve every candidate scenario at state x and pick the best.

    Candidates are the catalog scenarios whose first region contains x;
    one whose head bound (solver.heads: the one-step bound per
    distinct first two steps, then one phase I per head that two or more
    candidates share) exceeds cfg.feas_tol is Screened, not solved; the
    others are solved together, in one solve_many batch. The reported input
    is recovered through the linearizing feedback, falling back to u = 0
    where the input gain vanishes. Only Optimal candidates compete (see
    applied_candidate); IterLimit and Stalled ones are undecided.
    n_undecided, n_screened and n_head_newton (the head tests' Newton
    steps) are also in the details of InfeasibleStateError, with
    per_scenario when kept; n_newton and n_rounds show how full the batch's
    lockstep rounds were (a candidate alone in its program shape takes its
    steps outside the rounds).

    With prev, the sequence applied at the previous state, its
    continuations (c[:-1] == prev[1:]), the leads, are solved first. A later
    d is Dominated, not solved, when solver.dominated shows that no Optimal
    solve of d has V <= B_d = min V_c over the Optimal leads c of smaller
    index. The decision cannot change: applied_candidate scans in ascending
    index and replaces its best only when V < V_best - TIE_TOL, so once c
    is scanned, V_best <= V_c + TIE_TOL never rises and a later d with
    V_d >= V_c never becomes best; an earlier one can change the scan.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float)
    candidates = filter_for_state(catalog, spec, x)
    bounds, n_head_newton = heads(x, candidates, lin, zsets, terminal, Q, rho,
                                  cfg)
    statuses = ["Screened" if low > cfg.feas_tol else None for low in bounds]
    progs = {i: assemble(c, x, lin, zsets, terminal, Q, rho)
             for i, c in enumerate(candidates) if statuses[i] is None}
    leads = [i for i in progs
             if prev is not None and candidates[i][:-1] == tuple(prev[1:])]
    solved, n_rounds = solve_many([progs[i] for i in leads], cfg)
    found = dict(zip(leads, solved))
    won = [c for c in leads if found[c].optimal]
    cut = {d: min(found[c].V for c in won if c < d) for d in progs
           if d not in found and won and won[0] < d}
    out, n_cut_newton = dominated([progs[d] for d in cut], list(cut.values()),
                                  cfg)
    for d, gone in zip(cut, out):
        statuses[d] = "Dominated" if gone else None
    rest = [i for i in progs if i not in found and statuses[i] is None]
    solved, rounds = solve_many([progs[i] for i in rest], cfg)
    found.update(zip(rest, solved))
    sols = [found.get(i) for i in range(len(candidates))]
    statuses = [status or sol.status for status, sol in zip(statuses, sols)]
    n_undecided = sum(status in UNDECIDED for status in statuses)
    n_screened = statuses.count("Screened")
    per = ([(encode(c, catalog.s), status, np.nan if s is None else s.V)
            for c, status, s in zip(candidates, statuses, sols)]
           if keep_per_scenario else None)
    best = applied_candidate(sols)
    if best is None:
        raise InfeasibleStateError(
            "no candidate scenario is feasible at the query state",
            details_x=x.tolist(), n_undecided=n_undecided,
            n_screened=n_screened, n_head_newton=n_head_newton,
            per_scenario=per)
    sol = sols[best]
    v0 = float(sol.v_seq[0])
    return MpcStepResult(u=u_of_v(lin, spec, x, v0), v=v0,
                         j_star=sol.scenario_j, V=sol.V,
                         n_scenarios_solved=len(found),
                         per_scenario=per, n_undecided=n_undecided,
                         n_screened=n_screened,
                         n_newton=sum(s.n_newton for s in found.values()),
                         n_rounds=n_rounds + rounds,
                         n_head_newton=n_head_newton,
                         n_dominated=statuses.count("Dominated"),
                         n_cut_newton=n_cut_newton)


def simulate(x0, steps, catalog, spec, lin, zsets, terminal, Q, rho, cfg=None):
    """Receding-horizon run of the true plant from x0.

    Each step passes the sequence it applied to the next evaluate_ocp as
    prev, which leaves every decision as it is (see evaluate_ocp). Raises
    InfeasibleStateError (with the step index and the partial trajectory
    attached) if some visited state has no feasible scenario.
    """
    x = np.asarray(x0, dtype=float)
    xs = [x.copy()]
    us, vs, Vs, js = [], [], [], []
    prev = None
    for k in range(steps):
        try:
            step = evaluate_ocp(x, catalog, spec, lin, zsets, terminal,
                                Q, rho, cfg=cfg, prev=prev)
        except InfeasibleStateError as exc:
            exc.step = k
            exc.partial = Trajectory(x=np.array(xs), u=np.array(us),
                                     v=np.array(vs), V=np.array(Vs),
                                     j_star=np.array(js, dtype=int))
            raise
        prev = decode(step.j_star, catalog.s, catalog.N)
        x = dynamics_step(spec, x, step.u)
        xs.append(x.copy())
        us.append(step.u)
        vs.append(step.v)
        Vs.append(step.V)
        js.append(step.j_star)
    return Trajectory(x=np.array(xs), u=np.array(us), v=np.array(vs),
                      V=np.array(Vs), j_star=np.array(js, dtype=int))


def _grid_point(point, catalog, spec, lin, zsets, terminal, Q, rho, cfg,
                keep_per_scenario):
    if not spec.in_state_set(point, MEMBERSHIP_TOL):
        return (0, np.nan, np.nan, 0, [])
    try:
        step = evaluate_ocp(point, catalog, spec, lin, zsets, terminal, Q,
                            rho, cfg=cfg, keep_per_scenario=keep_per_scenario)
    except InfeasibleStateError:
        return (0, np.nan, np.nan, 0, [])
    per = [(j, status) for j, status, _ in step.per_scenario or []]
    return (1, step.u, step.V, step.j_star, per)


def sample_grid(resolution, catalog, spec, lin, zsets, terminal, Q, rho,
                cfg=None, n_workers=1, keep_per_scenario=False):
    """Uniform grid over the bounding box of the state set.

    Infeasible points are recorded with sentinel values (feasible=0,
    u=V=nan, j=0) rather than skipped, so per-scenario feasible sets can be
    reconstructed from the table.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    cfg = cfg or SolverConfig()
    lo, hi = spec.bounding_box()
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(spec.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])

    args = (catalog, spec, lin, zsets, terminal, Q, rho, cfg,
            keep_per_scenario)
    with worker_map(_grid_point, args, n_workers, chunksize=8) as run:
        rows = run(points)

    feasible, u_star, V_star, j_star, per = zip(*rows)
    optimal = [{j for j, status in p if status == "Optimal"} for p in per]
    per_scenario = {j: np.array([int(j in o) for o in optimal])
                    for j in sorted({j for p in per for j, _ in p})}
    return GridTable(points=points, feasible=np.array(feasible, dtype=int),
                     u_star=np.array(u_star), V_star=np.array(V_star),
                     j_star=np.array(j_star, dtype=int),
                     per_scenario=per_scenario)
