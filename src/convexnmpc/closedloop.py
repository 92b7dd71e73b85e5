"""Online evaluation: scenario sweep per state, receding-horizon simulation,
and state-space grids for plotting.

The simulator always propagates the true nonlinear plant; the linear
prediction model lives only inside the optimal control problems. The
applied scenario is the smallest index within TIE_TOL of the least Optimal
value, whatever the order of the solves. One rule picks the candidates
solved at a state (evaluate_ocp): the one-step screen, then for each
candidate in turn, the incumbent first, at the running bound a closed-form
kill, else a phase-I cut test, else its solve. Every decision, in closed
loop or not, is this cold query, so it depends on the state alone.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleStateError
from .linearize import u_of_v
from .model import dynamics_step
from .scenario import decode, filter_for_state, worker_map
from .solver import (SolverConfig, assemble, cuts, dominated, encode, heads,
                     solve)

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
    n_killed: int = 0  # Dominated in closed form (solver.cuts)
    n_dominated: int = 0  # not solved: a cut test shows they cannot win
    n_cut_newton: int = 0  # Newton steps of solver.dominated, at B = inf too


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
    """Index of the applied solution, the smallest among the Optimal ones
    within TIE_TOL of the least Optimal V, whatever order they were solved
    in; None when none is Optimal. None solutions (not solved) are skipped."""
    optimal = [(i, sol.V) for i, sol in enumerate(solutions)
               if sol is not None and sol.optimal]
    top = min((V for _, V in optimal), default=np.nan) + TIE_TOL
    return next((i for i, V in optimal if V <= top), None)


def evaluate_ocp(x, catalog, spec, lin, zsets, terminal, Q, rho,
                 cfg=None, keep_per_scenario=False):
    """Solve the candidate scenarios at state x and pick the best.

    Candidates are the catalog scenarios whose first region contains x,
    Screened if their one-step bound (solver.heads) exceeds cfg.feas_tol.
    The others are taken in turn, the incumbent (least violated at the
    cost's least point, solver.cuts) first and then in index order, at the
    running bound B: +inf until a solve is Optimal, then min V + TIE_TOL
    over the Optimal solves. One whose kill bound (solver.cuts) exceeds B,
    or with no Optimal solve of V <= B by its cut test (solver.dominated;
    at B = +inf none at all), is Dominated, not solved; the rest are
    solved. As all share their cost, an Optimal solve of a Dominated d has
    V > B_d >= V_min + TIE_TOL (B_d: B at d's turn): d is not applied and
    leaves V_min, so the decision is that of solving all unscreened ones.

    The input is recovered through the linearizing feedback, u = 0 where
    the input gain vanishes. IterLimit and Stalled candidates are
    undecided. The counts (n_undecided, n_screened, n_dominated and of
    them n_killed, n_newton, n_cut_newton) are also in the details of
    InfeasibleStateError, with per_scenario when kept.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float)
    model = (lin, zsets, terminal, Q, rho)
    candidates = filter_for_state(catalog, spec, x)
    statuses = ["Screened" if low > cfg.feas_tol else None
                for low in heads(x, candidates, *model)]
    live = [i for i, status in enumerate(statuses) if status is None]
    cut = dict(zip(live, cuts(x, [candidates[i] for i in live], *model,
                              cfg)))
    first = min(cut, key=lambda i: cut[i][0], default=None)
    sols, bound = [None] * len(candidates), np.inf
    n_killed = n_cut_newton = 0
    for i in sorted(cut, key=lambda i: i != first):
        if bound < cut[i][1]:
            statuses[i] = "Dominated"
            n_killed += 1
            continue
        prog = assemble(candidates[i], x, *model)
        gone, steps = dominated(prog, bound, cfg)
        n_cut_newton += steps
        if gone:
            statuses[i] = "Dominated"
            continue
        sols[i] = solve(prog, cfg)
        if sols[i].optimal:
            bound = min(bound, sols[i].V + TIE_TOL)
    statuses = [status or sol.status for status, sol in zip(statuses, sols)]
    counts = dict(
        n_undecided=sum(status in UNDECIDED for status in statuses),
        n_screened=statuses.count("Screened"),
        n_dominated=statuses.count("Dominated"), n_killed=n_killed,
        n_newton=sum(s.n_newton for s in sols if s is not None),
        n_cut_newton=n_cut_newton)
    per = ([(encode(c, catalog.s), status, np.nan if s is None else s.V)
            for c, status, s in zip(candidates, statuses, sols)]
           if keep_per_scenario else None)
    best = applied_candidate(sols)
    if best is None:
        raise InfeasibleStateError(
            "no candidate scenario is feasible at the query state",
            details_x=x.tolist(), per_scenario=per, **counts)
    sol = sols[best]
    v0 = float(sol.v_seq[0])
    return MpcStepResult(
        u=u_of_v(lin, spec, x, v0), v=v0, j_star=sol.scenario_j, V=sol.V,
        n_scenarios_solved=sum(s is not None for s in sols), per_scenario=per,
        **counts)


def simulate(x0, steps, catalog, spec, lin, zsets, terminal, Q, rho, cfg=None):
    """Receding-horizon run of the true plant from x0.

    Each step is a cold evaluate_ocp at the visited state. Raises
    InfeasibleStateError if some visited state has no feasible scenario:
    its message names the step and the state, and the step index and the
    partial trajectory are attached.
    """
    xs, done = [np.asarray(x0, dtype=float)], []
    for k in range(steps):
        try:
            step = evaluate_ocp(xs[-1], catalog, spec, lin, zsets, terminal,
                                Q, rho, cfg=cfg)
        except InfeasibleStateError as exc:
            exc.step, exc.partial = k, _trajectory(xs, done)
            exc.args = (f"closed-loop step {k}, state {xs[-1].tolist()}: "
                        f"{exc}",)
            raise
        xs.append(dynamics_step(spec, xs[-1], step.u))
        done.append(step)
    return _trajectory(xs, done)


def _trajectory(xs, steps):
    """The Trajectory of the visited states xs and the steps taken."""
    return Trajectory(x=np.array(xs), u=np.array([s.u for s in steps]),
                      v=np.array([s.v for s in steps]),
                      V=np.array([s.V for s in steps]),
                      j_star=np.array([s.j_star for s in steps], dtype=int))


def _grid_point(point, catalog, spec, lin, zsets, terminal, Q, rho, cfg,
                keep_per_scenario):
    try:
        step = evaluate_ocp(point, catalog, spec, lin, zsets, terminal, Q,
                            rho, cfg=cfg, keep_per_scenario=keep_per_scenario)
    except InfeasibleStateError:
        return (0, np.nan, np.nan, 0, [])
    # the table asks whether a Dominated candidate is feasible: solve it
    per = [(j, status if status != "Dominated" else solve(assemble(
        decode(j, catalog.s, catalog.N), point, lin, zsets, terminal, Q,
        rho), cfg).status) for j, status, _ in step.per_scenario or []]
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
