"""Bit-level digests of the solver's programs and results.

Run from the root of a checkout (a minute or two on one core):

    python3 tools/solver_digest.py

Prints sha256[:16] over one float-hex line per result for nine sets:

- probes:   every feasibility probe of an ex2 N=15 prune, taken from the
            levels of the stored catalog: (sequence, feasible, t*);
- programs: every candidate program at the states of the benchmark pools
            (the loop-ex2 starts and the query-ex3 states): the fields the
            solver reads, in a fixed order (see program_lines), then one
            line per ridge and quadratic (see constraint_lines);
- solves:   the solve of each of those programs: status, V, v_seq,
            kkt_residual, phase1_violation, n_newton, nonconvex_flag and
            degenerate;
- decisions: (j*, u, V) of evaluate_ocp at every query-ex3 pool state,
            then of every step of a 25-step simulate from every loop-ex2
            start: what the closed loop applies, screening included;
- screens:  (j, status) of every candidate of evaluate_ocp at every pool
            state, kept per scenario (from the error's details at a state
            with no Optimal candidate): which candidates the online screens
            leave to the solver;
- prune:    the sorted levels and meta["screened"] of fresh ex2 N=15 and
            ex3 N=6 prunes (prune_catalog itself, screen and warm starts
            included);
- stagesets: every stage set of ex1, ex2 and ex3: its sign, kind,
            lifted_C and lifted_d, then one line per constraint;
- geometry: for ex1, ex2 and ex3, every region's bounding box,
            Chebyshev centre and PWA overlap list, and the terminal's
            polytope rows or ellipsoid level; then the PWA piece index at
            every query-ex3 pool state;
- dominance: (j*, n_dominated, n_cut_newton, n_killed) of every step of
            a 25-step simulate from every loop-ex2 start, then of
            evaluate_ocp at every query-ex3 pool state: which candidates
            the objective cuts leave unsolved, the Newton steps of the
            phase-I cut tests and the closed-form kills
            (closedloop.evaluate_ocp, in closed loop and at single
            states).

A constraint's line is its form's class name with its fields, in the
order the program or stage set holds them, as AffineCon{row,offset},
RidgeCon{scale,freq,dir,phase,lo,hi,X,x_off,lin,c} or QuadCon{H,w,c0}:
read from one oracle object per constraint where a checkout has them, and
from the stacked arrays of its Constraints where it has those. So the two
layouts give equal lines for equal constraints.

Two checkouts whose digests agree assemble, solve and decide bit for bit
alike.
The package is imported from this checkout's src/; perfbench/data is only
read. BLAS is held to one thread.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from convexnmpc.cli import RunConfig, build_pipeline  # noqa: E402
from convexnmpc import closedloop  # noqa: E402
from convexnmpc.closedloop import evaluate_ocp, simulate  # noqa: E402
from convexnmpc.errors import InfeasibleStateError  # noqa: E402
from convexnmpc.geometry import Polytope  # noqa: E402
from convexnmpc.model import PwaField  # noqa: E402
from convexnmpc.scenario import (  # noqa: E402
    FeasibleCatalog, filter_for_state, prune_catalog)
from convexnmpc.solver import assemble, solve, solve_feasibility  # noqa: E402
from convexnmpc.stagesets import _overlapping_pieces  # noqa: E402

DATA = ROOT / "perfbench" / "data"
SYSTEMS = ROOT / "src" / "convexnmpc" / "data"
HORIZON = 15
LOOP_STEPS = 25


def hexed(value):
    """Exact text of a scalar, array, tuple or dataclass."""
    if value is None or isinstance(value, (bool, str, np.bool_)):
        return repr(bool(value) if isinstance(value, np.bool_) else value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return (f"{value.shape}[" + ",".join(float(v).hex()
                                            for v in value.ravel()) + "]")
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(hexed(v) for v in value) + ")"
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is None:
        return type(value).__name__
    return (type(value).__name__ + "{"
            + ",".join(f"{k}={hexed(getattr(value, k))}" for k in fields)
            + "}")


FORMS = (("AffineCon", ("row", "offset"), ("rows", "offsets")),
         ("RidgeCon", ("scale", "freq", "dir", "phase", "lo", "hi", "X",
                       "x_off", "lin", "c"), None),
         ("QuadCon", ("H", "w", "c0"), None))


def constraint_lines(cons):
    """The text of each constraint, in order (see the module docstring):
    a tuple holds one oracle per constraint, a Constraints stacks them by
    form."""
    if isinstance(cons, tuple):
        return [hexed(con) for con in cons]
    lines = []
    for name, fields, stacked in FORMS:
        arrays = [getattr(cons, f) for f in stacked or fields]
        lines += [name + "{" + ",".join(f"{f}={hexed(a[k])}"
                                        for f, a in zip(fields, arrays))
                  + "}" for k in range(len(arrays[0]))]
    return lines


PROGRAM_FIELDS = ("n_vars", "H", "f", "c0", "rows", "offsets", "prog_class",
                  "scenario_j", "N", "S", "offset", "pre_violation",
                  "z0_hint", "nonconvex_data")


def program_lines(prog):
    """The fields the solver reads of a program, in the fixed order of
    PROGRAM_FIELDS: its constraints' affine rows and offsets, and N, S and
    offset from its prediction operators where a checkout keeps them in
    one (prog.ops); then one line per ridge and quadratic. So the line
    does not depend on how a checkout lays out its ConvexProgram."""
    cons = prog.cons
    holders = (prog, cons, getattr(prog, "ops", prog))
    first = [next(getattr(h, f) for h in holders if hasattr(h, f))
             for f in PROGRAM_FIELDS]
    return [first] + [[line] for line
                      in constraint_lines(cons)[len(cons.rows):]]


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, *parts):
        self.sha.update((";".join(hexed(p) for p in parts) + "\n").encode())
        self.count += 1

    def __str__(self):
        return f"{self.sha.hexdigest()[:16]} ({self.count} lines)"


def pipeline(system):
    return build_pipeline(RunConfig(
        system=str(SYSTEMS / f"{system}.json"), horizon=HORIZON, q_diag=0.05,
        b0=0.1, c=np.array((5.0, -1.0)), threads=1))


def probe_digest():
    pipe = pipeline("ex2")
    catalog = FeasibleCatalog.load(DATA / "ex2_N15_catalog.json")
    out = Digest()
    for level in range(1, HORIZON + 1):
        tails = catalog.levels[level - 1] if level > 1 else [()]
        for tail in tails:
            for i in range(1, catalog.s + 1):
                seq = (i,) + tuple(tail)
                prog = assemble(seq, None, pipe.lin, pipe.zsets,
                                pipe.terminal, Q=np.eye(pipe.spec.n), rho=1.0)
                feasible, t_star = solve_feasibility(prog,
                                                     pipe.solver_cfg)[:2]
                out.add(seq, feasible, t_star)
    return out


def solution_line(sol):
    return (sol.scenario_j, sol.status, sol.V, sol.v_seq, sol.kkt_residual,
            sol.phase1_violation, sol.n_newton, sol.nonconvex_flag,
            sol.degenerate)


def pool_digests():
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    programs, solves = Digest(), Digest()
    for system, pool in (("ex2", "loop-ex2"), ("ex3", "query-ex3")):
        pipe = pipeline(system)
        catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
        for entry in pools[pool]:
            x = np.array(entry["x0"], dtype=float)
            progs = [assemble(sc, x, pipe.lin, pipe.zsets,
                              pipe.terminal, pipe.Q, pipe.rho)
                     for sc in filter_for_state(catalog, pipe.spec, x)]
            for prog in progs:
                for line in program_lines(prog):
                    programs.add(*line)
                solves.add(*solution_line(solve(prog, pipe.solver_cfg)))
    return programs, solves


def decision_digest():
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    out = Digest()
    for system, pool in (("ex3", "query-ex3"), ("ex2", "loop-ex2")):
        pipe = pipeline(system)
        catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
        args = (catalog, pipe.spec, pipe.lin, pipe.zsets, pipe.terminal,
                pipe.Q, pipe.rho)
        for entry in pools[pool]:
            x = np.array(entry["x0"], dtype=float)
            try:
                if pool == "query-ex3":
                    step = evaluate_ocp(x, *args, cfg=pipe.solver_cfg)
                    out.add(step.j_star, step.u, step.V)
                    continue
                traj = simulate(x, LOOP_STEPS, *args, cfg=pipe.solver_cfg)
            except InfeasibleStateError as exc:
                out.add("infeasible", exc.step)
                continue
            for j, u, V in zip(traj.j_star, traj.u, traj.V):
                out.add(j, u, V)
    return out


def screen_digests():
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    out = Digest()
    for system, pool in (("ex2", "loop-ex2"), ("ex3", "query-ex3")):
        pipe = pipeline(system)
        catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
        args = (catalog, pipe.spec, pipe.lin, pipe.zsets, pipe.terminal,
                pipe.Q, pipe.rho)
        for entry in pools[pool]:
            x = np.array(entry["x0"], dtype=float)
            try:
                step = evaluate_ocp(x, *args, cfg=pipe.solver_cfg,
                                    keep_per_scenario=True)
                per = step.per_scenario
            except InfeasibleStateError as exc:
                per, n_screened = (exc.details.get("per_scenario"),
                                   exc.details["n_screened"])
            if per is None:  # not in the details: the screened count
                out.add("infeasible", n_screened)
            else:
                out.add(*[(j, status) for j, status, _ in per])
    return out


def dominance_digest():
    """Every step of simulate, read by wrapping the closedloop.evaluate_ocp
    it calls (the checkout's own simulate), then every query-ex3 pool
    state; a checkout without one of the three counts reads 0 for it."""
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    out, inner = Digest(), closedloop.evaluate_ocp

    def recorded(*args, **kwargs):
        step = inner(*args, **kwargs)
        out.add(step.j_star, getattr(step, "n_dominated", 0),
                getattr(step, "n_cut_newton", 0), getattr(step, "n_killed", 0))
        return step

    for system, pool in (("ex2", "loop-ex2"), ("ex3", "query-ex3")):
        pipe = pipeline(system)
        catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
        args = (catalog, pipe.spec, pipe.lin, pipe.zsets, pipe.terminal,
                pipe.Q, pipe.rho)
        closedloop.evaluate_ocp = recorded
        try:
            for entry in pools[pool]:
                x = np.array(entry["x0"], dtype=float)
                try:
                    if pool == "loop-ex2":
                        simulate(x, LOOP_STEPS, *args, cfg=pipe.solver_cfg)
                    else:
                        closedloop.evaluate_ocp(x, *args, cfg=pipe.solver_cfg)
                except InfeasibleStateError as exc:
                    out.add("infeasible", getattr(exc, "step", None))
        finally:
            closedloop.evaluate_ocp = inner
    return out


def prune_digest():
    out = Digest()
    for system, N in (("ex2", HORIZON), ("ex3", 6)):
        pipe = pipeline(system)
        catalog = prune_catalog(pipe.spec, pipe.lin, pipe.zsets,
                                pipe.terminal, N, solver_cfg=pipe.solver_cfg)
        for level, seqs in sorted(catalog.levels.items()):
            out.add(system, level, seqs, catalog.meta["screened"][str(level)])
    return out


def stageset_digest():
    out = Digest()
    for system in ("ex1", "ex2", "ex3"):
        for zs in pipeline(system).zsets:
            out.add(system, zs.index, zs.sign_beta_g, zs.kind, zs.lifted_C,
                    zs.lifted_d)
            for line in constraint_lines(zs.constraints):
                out.add(line)
    return out


def geometry_digest():
    out = Digest()
    for system in ("ex1", "ex2", "ex3"):
        pipe = pipeline(system)
        g = pipe.spec.g
        for k, (region, _) in enumerate(pipe.spec.regions, start=1):
            out.add(system, k, *region.bounding_box())
            out.add(system, k, region.chebyshev_center()[0])
            if isinstance(g, PwaField):
                out.add(system, k, _overlapping_pieces(g.pieces, region))
        tset = pipe.terminal.tset
        out.add(system, *((tset.C, tset.d) if isinstance(tset, Polytope)
                          else (tset.level,)))
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    for entry in pools["query-ex3"]:  # g is ex3's, the loop's last system
        out.add(g.piece_index(np.array(entry["x0"], dtype=float)))
    return out


def main():
    print(f"probes    {probe_digest()}", flush=True)
    programs, solves = pool_digests()
    print(f"programs  {programs}")
    print(f"solves    {solves}", flush=True)
    print(f"decisions {decision_digest()}")
    print(f"screens   {screen_digests()}")
    print(f"prune     {prune_digest()}")
    print(f"stagesets {stageset_digest()}")
    print(f"geometry  {geometry_digest()}")
    print(f"dominance {dominance_digest()}")


if __name__ == "__main__":
    main()
