"""Benchmark of convexnmpc: offline pruning, closed loop and cold queries.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query-ex3 --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run over a fixed work set, and the spans are written to
``perfbench/out/``. Metric names and units, and their order, are those of
``BENCHMARK.json``. The exit code is 0 only when every result fingerprint
matched (see README.md in this directory).
"""
import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "convexnmpc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no convexnmpc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import convexnmpc
    if Path(convexnmpc.__file__).resolve().parent != SRC / "convexnmpc":
        raise SystemExit(f"run.py: imported convexnmpc from "
                         f"{convexnmpc.__file__}, not from {SRC}")


def run_record(workload, seed, seconds, traced):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(traced), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def main(argv=None, reference=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import harness
    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    traced = bool(args.trace)
    record = run_record(wl.name, args.seed, args.seconds, traced)
    print(json.dumps({"run_record": record}, sort_keys=True), flush=True)
    if reference is None:
        reference = harness.load_json("reference.json")

    with open(BENCHMARK) as fh:
        declared = json.load(fh)["per_layer" if traced else "end_to_end"]

    run = harness.Run(wl, args.seed, args.seconds, traced, reference)
    try:
        values = run.execute()
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise harness.BenchError(f"no value for {', '.join(missing)}")
    except harness.BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    checks = run.checks
    for note in checks.notes:
        print(f"run.py: FAILED {note}", file=sys.stderr)
    info = {"pass_digests": run.pass_digests}
    if traced:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        run.tracer.write(path, {"run_record": record})
        info["spans"] = len(run.tracer.spans)
        info["trace_file"] = str(path.relative_to(ROOT))
    else:
        info.update(run.samples)
    print(json.dumps({"fingerprint_and_samples": info}, sort_keys=True))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
