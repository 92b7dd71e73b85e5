"""Quick self-test of the benchmark harness on ex1 (about half a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

ex1 has one region and a one-scenario catalog that prunes in a tenth of a
second. The test checks that an untraced run emits every end-to-end metric
of BENCHMARK.json with its unit, that a traced run emits every per-layer
metric, that two traced runs give identical counts, and that a tampered
decision or prune fingerprint fails the run.
"""
import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import run


def invoke(trace, reference=None):
    """Run the smoke workload; returns (exit code, result object)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "smoke-ex1", "--seed", "0",
                         "--seconds", "1", "--trace", str(trace)],
                        reference=reference)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    return cond


def main():
    with open(run.BENCHMARK) as fh:
        spec = json.load(fh)
    run._import_program()
    import harness
    reference = harness.load_json("reference.json")
    ok = True

    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    code, result = invoke(0)
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    ok &= expect(code == 0 and result["correct"] and result["failed"] == 0,
                 "untraced run passes its fingerprint checks")
    ok &= expect(got == declared_e2e,
                 "untraced run emits every end-to-end metric with its unit")
    ok &= expect(all(isinstance(m["value"], float) and m["value"] > 0
                     for m in result["metrics"].values()),
                 "every end-to-end value is a positive number")

    code, first = invoke(1)
    got = {n: m["unit"] for n, m in first["metrics"].items()}
    ok &= expect(code == 0 and got == declared_layer,
                 "traced run emits every per-layer metric with its unit")
    _, second = invoke(1)
    counts = [n for n, u in declared_layer.items() if u in ("count", "ratio")
              and n != "trace.overhead_frac"]
    ok &= expect(all(first["metrics"][n] == second["metrics"][n]
                     for n in counts),
                 "two traced runs give identical counts")

    tampered = copy.deepcopy(reference)
    for entry in tampered["pools"]["smoke-ex1"]:
        entry["j"][0] += 1
    code, result = invoke(0, tampered)
    ok &= expect(code != 0 and not result["correct"] and result["failed"] > 0,
                 "a tampered decision fingerprint fails the run")

    tampered = copy.deepcopy(reference)
    tampered["prune"]["ex1"]["levels_digest"]["15"] = "0" * 16
    code, result = invoke(0, tampered)
    ok &= expect(code != 0 and not result["correct"],
                 "a tampered prune fingerprint fails the run")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
