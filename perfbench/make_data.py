"""Regenerate the benchmark's stored inputs and reference fingerprints.

Run from the root of a checkout (about 10 minutes on one core):

    python3 perfbench/make_data.py

It writes, in this order, because each step uses the one before:

- the ex2 and ex3 catalogs at N=15, pruned with the ``convexnmpc repro``
  parameters and saved by ``FeasibleCatalog.save``, plus the prune
  reference (content hash, count at N=15 and the digest of levels 1..k for
  every k) of ex1, ex2 and ex3;
- the pool of each online workload, in ``reference.json``: for loop-ex2,
  the feasible cell centres of a 16x16 grid whose 25-step closed loop falls
  in a bin that a loop pass draws from, with j* and V of every step; for
  each query workload, states drawn uniformly inside every region (in the
  numbers of its strata, times POOL_SCALE), with j* and V of each.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402

run._import_program()

import harness  # noqa: E402
from convexnmpc.closedloop import simulate  # noqa: E402
from convexnmpc.errors import InfeasibleStateError  # noqa: E402
from convexnmpc.model import region_membership  # noqa: E402
from convexnmpc.scenario import prune_catalog  # noqa: E402

LOOP_GRID = 16
POOL_SCALE = 16
POOL_SEED = 0


def write_json(name, obj):
    with open(harness.DATA / name, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def make_catalogs(reference):
    for system in ("ex1", "ex2", "ex3"):
        pipe = harness.build_pipeline(harness.run_config(system))
        catalog = prune_catalog(pipe.spec, pipe.lin, pipe.zsets,
                                pipe.terminal, harness.HORIZON,
                                solver_cfg=pipe.solver_cfg, n_workers=1)
        if system != "ex1":
            catalog.save(harness.DATA / f"{system}_N15_catalog.json")
        reference["prune"][system] = {
            "hash": catalog.content_hash,
            "count": catalog.count(),
            "levels_digest": {
                str(k): harness.levels_digest(catalog.levels, k)
                for k in range(1, harness.HORIZON + 1)},
        }
        print(f"{system}: {catalog.count()} scenarios, "
              f"hash {catalog.content_hash}", file=sys.stderr)


def loop_pool(bench):
    p, wl = bench.pipe, bench.wl
    lo, hi = wl.outer_band
    origin_region = p.spec.regions[0][0]
    pool = []
    centres = -2.0 + (np.arange(LOOP_GRID) + 0.5) * 4.0 / LOOP_GRID
    for a in centres:
        for b in centres:
            x0 = np.array([a, b])
            try:
                traj = simulate(x0, harness.LOOP_STEPS, bench.catalog,
                                p.spec, p.lin, p.zsets, p.terminal, p.Q,
                                p.rho, cfg=p.solver_cfg)
            except InfeasibleStateError:
                continue
            (region,) = region_membership(p.spec, x0)
            outer = sum(not origin_region.contains(x, 1e-8)
                        for x in traj.x[:-1])
            if region in harness.OUTER_SLABS and lo <= outer <= hi:
                pool.append({"x0": x0.tolist(), "region": region,
                             "outer_steps": int(outer),
                             "j": [int(j) for j in traj.j_star],
                             "V": [float(V) for V in traj.V]})
    bins = {(e["region"], e["outer_steps"]) for e in pool}
    if len(bins) != len(harness.OUTER_SLABS) * (hi - lo + 1):
        raise SystemExit(f"{wl.name}: a loop bin has no start")
    return pool


def query_pool(bench):
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for region, ((reg, _), n) in enumerate(
            zip(bench.pipe.spec.regions, bench.wl.strata), start=1):
        lo, hi = reg.bounding_box()
        n *= POOL_SCALE
        while n:
            x = lo + rng.random(lo.shape[0]) * (hi - lo)
            if not reg.contains(x):
                continue
            j, V = bench.decide(x)
            if j == "error":
                raise SystemExit(f"{bench.wl.name}: decision at {x} "
                                 f"raised {V}")
            pool.append({"x0": x.tolist(), "region": region,
                         "j": [j], "V": [V]})
            n -= 1
    return pool


def make_pools(reference):
    for wl in harness.WORKLOADS.values():
        if wl.online == "probes":
            continue
        bench = harness.Run(wl, POOL_SEED, 0, False, reference)
        bench.set_up()
        if bench.catalog is None:
            bench.prune(1)
        make = loop_pool if wl.online == "loop" else query_pool
        reference["pools"][wl.name] = make(bench)
        print(f"{wl.name}: {len(reference['pools'][wl.name])} pool entries",
              file=sys.stderr)


def main():
    harness.DATA.mkdir(exist_ok=True)
    reference = {"prune": {}, "pools": {}}
    make_catalogs(reference)
    make_pools(reference)
    write_json("reference.json", reference)


if __name__ == "__main__":
    main()
