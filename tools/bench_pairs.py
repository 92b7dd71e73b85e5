"""Alternating benchmark pairs of two checkouts, metric by metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed0 S

Pair i runs ``python3 <tree>/perfbench/run.py --workload W --seed S+i
--seconds 25 --trace 0`` in both trees, the parent first on even pairs and
the change first on odd ones, so a drift of the host's speed falls on both
sides alike. For each end-to-end metric of this checkout's BENCHMARK.json
it prints the parent's median and quartiles, the change's median, and in
how many pairs the change was better, in the metric's declared direction.

Exits 1 if any run is not correct or has a failed check. The runs write no
bytecode, so nothing is written under either tree, and each run is waited
for (and killed on an interrupt), so no process is left running.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(tree, workload, seed, seconds):
    """The last JSON line of one run of tree's benchmark."""
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["returncode"] = out.returncode
    if out.returncode:
        sys.stderr.write(out.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK.read_text())
    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, seed,
                              declared["run_seconds"])
            good = result["correct"] is True and result["failed"] == 0
            ok &= good
            runs[side].append(result["metrics"])
            print(f"pair {i} seed {seed} {side}: "
                  f"{'correct' if good else 'NOT CORRECT'} (failed "
                  f"{result['failed']})", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}")
    print(f"{'metric':<16}{'parent q1':>12}{'median':>12}{'q3':>12}"
          f"{'change':>12}  better")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        pairs = [(p[name]["value"], c[name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        parent, change = zip(*pairs)
        q1, med, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                       if len(parent) > 1 else parent * 3)
        lower = metric["better"] == "lower"
        better = sum((c < p) if lower else (c > p) for p, c in pairs)
        print(f"{name:<16}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}"
              f"{statistics.median(change):>12.4g}  {better}/{len(pairs)} "
              f"({metric['better']} is better)")
    if not ok:
        print("some run was not correct or had a failed check")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
