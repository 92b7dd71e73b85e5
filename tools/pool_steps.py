"""Newton steps and candidate outcomes over the benchmark's stored states.

Run from the root of a checkout (about half a minute on one core):

    python3 tools/pool_steps.py

Evaluates every query-ex3 pool state cold (evaluate_ocp) and runs a
25-step simulate from every loop-ex2 start, with the stored N=15 catalogs
of perfbench/data, which it only reads. For each pool it prints, over the
decisions with an Optimal candidate (winner), those without one (no
winner) and all of them: the number of decisions, the candidates solved,
undecided (IterLimit or Stalled), Dominated and Screened, the Dominated
ones killed in closed form (solver.cuts), the Newton steps of the
candidate solves, and the phase-I cut tests (solver.dominated) with their
Newton steps, split into those at B = +inf (no Optimal solve yet) and
those at a finite B. "first lost" counts the decisions whose first solve
is not the applied candidate; at a decision with no winner, that is every
one with a solve.

It prints counts only, no timings, so two checkouts can be compared on
any host. The counts are read by wrapping the names closedloop calls
(evaluate_ocp, solve, dominated), as the traced benchmark does; no
decision changes. BLAS is held to one thread.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from convexnmpc import closedloop  # noqa: E402
from convexnmpc.cli import RunConfig, build_pipeline  # noqa: E402
from convexnmpc.errors import InfeasibleStateError  # noqa: E402
from convexnmpc.scenario import FeasibleCatalog  # noqa: E402

DATA = ROOT / "perfbench" / "data"
SYSTEMS = ROOT / "src" / "convexnmpc" / "data"
LOOP_STEPS = 25
COLUMNS = ("decisions", "solved", "undecided", "Dominated", "Screened",
           "killed", "solve steps", "inf tests", "inf test steps",
           "B tests", "B test steps", "first lost")


@contextmanager
def recorded(rows):
    """Patch closedloop so that each evaluate_ocp call appends one
    (winner, Counter) row to rows; the call keeps its per-scenario
    statuses, which changes no decision."""
    inner = {name: getattr(closedloop, name)
             for name in ("evaluate_ocp", "solve", "dominated")}
    row, first = Counter(), []

    def solve(*args, **kwargs):
        sol = inner["solve"](*args, **kwargs)
        first.append(sol.scenario_j)
        row["solved"] += 1
        row["solve steps"] += sol.n_newton
        return sol

    def dominated(prog, bound, cfg):
        out = inner["dominated"](prog, bound, cfg)
        at = "inf" if bound == np.inf else "B"
        row[f"{at} tests"] += 1
        row[f"{at} test steps"] += out[1]
        return out

    def evaluate_ocp(*args, **kwargs):
        row.clear()
        first.clear()
        kwargs["keep_per_scenario"] = True
        try:
            step = inner["evaluate_ocp"](*args, **kwargs)
        except InfeasibleStateError as exc:
            details = exc.details
            row["first lost"] = int(bool(first))
            rows.append((False, tally(row, details["per_scenario"],
                                      details["n_killed"])))
            raise
        row["first lost"] = int(first[:1] != [step.j_star])
        rows.append((True, tally(row, step.per_scenario, step.n_killed)))
        return step

    for fn in (evaluate_ocp, solve, dominated):
        setattr(closedloop, fn.__name__, fn)
    try:
        yield
    finally:
        for name, fn in inner.items():
            setattr(closedloop, name, fn)


def tally(row, per, killed):
    statuses = [status for _, status, _ in per]
    return Counter(row, decisions=1, Dominated=statuses.count("Dominated"),
                   Screened=statuses.count("Screened"),
                   undecided=sum(s in closedloop.UNDECIDED for s in statuses),
                   killed=killed)


def pool_rows(system, pool, entries):
    """The rows of every decision of one pool."""
    pipe = build_pipeline(RunConfig(
        system=str(SYSTEMS / f"{system}.json"), horizon=15, q_diag=0.05,
        b0=0.1, c=np.array((5.0, -1.0)), threads=1))
    catalog = FeasibleCatalog.load(DATA / f"{system}_N15_catalog.json")
    args = (catalog, pipe.spec, pipe.lin, pipe.zsets, pipe.terminal, pipe.Q,
            pipe.rho)
    rows = []
    with recorded(rows):
        for entry in entries:
            x = np.array(entry["x0"], dtype=float)
            try:
                if pool == "loop-ex2":
                    closedloop.simulate(x, LOOP_STEPS, *args,
                                        cfg=pipe.solver_cfg)
                else:
                    closedloop.evaluate_ocp(x, *args, cfg=pipe.solver_cfg)
            except InfeasibleStateError:
                pass
    return rows


def main():
    pools = json.loads((DATA / "reference.json").read_text())["pools"]
    width = max(map(len, COLUMNS)) + 1
    for system, pool in (("ex3", "query-ex3"), ("ex2", "loop-ex2")):
        rows = pool_rows(system, pool, pools[pool])
        print(f"{pool:<11}" + "".join(f"{c:>{width}}" for c in COLUMNS))
        for label, keep in (("winner", (True,)), ("no winner", (False,)),
                            ("all", (True, False))):
            total = sum((c for won, c in rows if won in keep), Counter())
            print(f"{label:<11}" + "".join(f"{total[c]:>{width}}"
                                           for c in COLUMNS))
        print(flush=True)


if __name__ == "__main__":
    main()
