"""Bit-level digests of the solver's programs and results.

Run from the root of a checkout (a minute or two on one core):

    python3 tools/solver_digest.py

Prints sha256[:16] over one float-hex line per result for five sets:

- probes:   every feasibility probe of an ex2 N=15 prune, taken from the
            levels of the stored catalog: (sequence, feasible, t*);
- programs: every candidate program at the states of the benchmark pools
            (the loop-ex2 starts and the query-ex3 states): every array and
            scalar field of the ConvexProgram, constraint oracles included;
- solves:   the solve of each of those programs: status, V, v_seq,
            kkt_residual, phase1_violation, n_newton, nonconvex_flag and
            degenerate;
- decisions: (j*, u, V) of evaluate_ocp at every query-ex3 pool state,
            then of every step of a 25-step simulate from every loop-ex2
            start: what the closed loop applies, screening included;
- batched:  the solves lines again, from one solve_many call per pool
            state over that state's programs; equal to solves when a batch
            does each program's arithmetic exactly.

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
from convexnmpc.closedloop import evaluate_ocp, simulate  # noqa: E402
from convexnmpc.errors import InfeasibleStateError  # noqa: E402
from convexnmpc.scenario import FeasibleCatalog, filter_for_state  # noqa: E402
from convexnmpc.solver import (assemble, solve, solve_feasibility,  # noqa: E402
                               solve_many)

DATA = ROOT / "perfbench" / "data"
SYSTEMS = ROOT / "src" / "convexnmpc" / "data"
HORIZON = 15
LOOP_STEPS = 25


def hexed(value):
    """Exact text of a scalar, array, tuple or constraint oracle."""
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
                prog = assemble(seq, None, pipe.spec, pipe.lin, pipe.zsets,
                                pipe.terminal, Q=np.eye(pipe.spec.n), rho=1.0)
                feasible, t_star = solve_feasibility(prog, pipe.solver_cfg)
                out.add(seq, feasible, t_star)
    return out


def solution_line(sol):
    return (sol.scenario_j, sol.status, sol.V, sol.v_seq, sol.kkt_residual,
            sol.phase1_violation, sol.n_newton, sol.nonconvex_flag,
            sol.degenerate)


def pool_digests():
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    programs, solves, batched = Digest(), Digest(), Digest()
    for system, pool in (("ex2", "loop-ex2"), ("ex3", "query-ex3")):
        pipe = pipeline(system)
        catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
        for entry in pools[pool]:
            x = np.array(entry["x0"], dtype=float)
            progs = [assemble(sc, x, pipe.spec, pipe.lin, pipe.zsets,
                              pipe.terminal, pipe.Q, pipe.rho)
                     for sc in filter_for_state(catalog, pipe.spec, x)]
            for prog in progs:
                programs.add(prog)
                solves.add(*solution_line(solve(prog, pipe.solver_cfg)))
            for sol in solve_many(progs, pipe.solver_cfg)[0]:
                batched.add(*solution_line(sol))
    return programs, solves, batched


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


def main():
    print(f"probes    {probe_digest()}", flush=True)
    programs, solves, batched = pool_digests()
    print(f"programs  {programs}")
    print(f"solves    {solves}", flush=True)
    print(f"decisions {decision_digest()}")
    print(f"batched   {batched}")


if __name__ == "__main__":
    main()
