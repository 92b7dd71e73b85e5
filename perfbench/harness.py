"""Workloads, measurement and result fingerprints of the convexnmpc benchmark.

Every workload runs serially in one process: a set-up phase (pipeline plus
the stored catalog, checked against ``catalog_hash``), an offline phase
(``prune_catalog``) and, except on prune-ex2, an online phase
(``evaluate_ocp`` at cold states or ``simulate`` from feasible starts, both
drawn from a stored pool whose decisions are known). Only public entry
points are called.
"""
import hashlib
import json
import math
import resource
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from convexnmpc import closedloop, scenario
from convexnmpc.cli import RunConfig, build_pipeline
from convexnmpc.errors import InfeasibleStateError
from convexnmpc.scenario import FeasibleCatalog, catalog_hash, prune_catalog

from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
DATA = BENCH_DIR / "data"
SYSTEMS = BENCH_DIR.parent / "src" / "convexnmpc" / "data"
HORIZON = 15
LOOP_STEPS = 25
OUTER_SLABS = (2, 3)    # ex2 regions either side of the origin's slab
V_TOL = 1e-9

# The host's cores change speed by up to a quarter within seconds, and CPU
# time drifts with wall time. Measured times are therefore scaled to a
# nominal speed by a fixed calibration kernel run between stretches of
# measured work (see Gauge).
CAL_NOMINAL_S = 0.025   # calibrate() at the nominal speed
CAL_EVERY_S = 0.25      # longest stretch of work between two calibrations
_CAL_M = np.linspace(1.0, 2.0, 400).reshape(20, 20)
_CAL_H = _CAL_M @ _CAL_M.T + 20.0 * np.eye(20)


def calibrate():
    """Seconds taken by a fixed mix of small dense linear algebra, numpy
    reductions and Python loops: the kind of work a Newton step does."""
    t0 = perf_counter()
    z = np.ones(20)
    for _ in range(100):
        L = np.linalg.cholesky(_CAL_H)
        z = z - 0.01 * np.linalg.solve(L @ L.T, _CAL_H @ z - 1.0)
        top = 0.0
        for k in range(60):
            top = max(top, 0.5 * float(np.max(z)) + k)
    return perf_counter() - t0


class Gauge:
    """Measured work, raw and scaled to the nominal host speed.

    Work is cut into stretches of at most CAL_EVERY_S with a calibration
    between stretches, which is not counted as work. A stretch, and every
    decision timed inside it, is scaled by CAL_NOMINAL_S over the geometric
    mean of the calibrations on either side of it.
    """

    def __init__(self):
        self.intervals = []     # (raw, scaled) seconds of each interval
        self.decisions = []     # (raw, scaled) seconds of each decision
        self._pending = []
        self._work = None
        self._cal = calibrate()
        self._start = perf_counter()

    def _cut(self):
        end = perf_counter()
        cal = calibrate()
        scale = CAL_NOMINAL_S / math.sqrt(self._cal * cal)
        if self._work is not None:
            self._work[0] += end - self._start
            self._work[1] += (end - self._start) * scale
        self.decisions += [(t, t * scale) for t in self._pending]
        self._pending = []
        self._cal = cal
        self._start = perf_counter()

    @contextmanager
    def interval(self):
        """Measure the work done inside the block as one interval."""
        self._cut()
        self._work = [0.0, 0.0]
        try:
            yield
        finally:
            self._cut()
            self.intervals.append(tuple(self._work))
            self._work = None

    def decision(self, seconds):
        self._pending.append(seconds)
        if perf_counter() - self._start >= CAL_EVERY_S:
            self._cut()


@contextmanager
def measured(gauge, module, attr):
    """Measure the block as one interval of gauge, timing every call of
    module.attr as a decision; nothing when gauge is None (traced runs)."""
    if gauge is None:
        yield
        return
    inner = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            gauge.decision(perf_counter() - t0)
    setattr(module, attr, timed)
    try:
        with gauge.interval():
            yield
    finally:
        setattr(module, attr, inner)


class BenchError(Exception):
    """The benchmark cannot produce a valid result (bad data or setup)."""


@dataclass(frozen=True)
class Workload:
    name: str
    system: str             # packaged system file stem
    catalog: str            # stored N=15 catalog under data/, or None
    prune_horizon: int      # horizon of the timed prune
    prune_repeats: int      # timed prune runs; prune_s is their median
    setup_repeats: int      # set-ups; setup_s is their median
    online: str             # "probes", "query" or "loop" (see README.md)
    strata: tuple = ()      # query: states of each region in one pass
    outer_band: tuple = ()  # loop: outer-slab steps of a start, lo..hi
    trace_passes: int = 1   # online passes of a traced run
    salt: int = 0           # separates the random streams of workloads


WORKLOADS = {wl.name: wl for wl in (
    # The only full prune: free-x0 phase-I probes, no phase II. Its
    # decisions are the prune's candidate probes. Two prunes, because the
    # median of one spreads too much from run to run on a noisy host.
    Workload("prune-ex2", "ex2", "ex2_N15_catalog.json", 15, 2, 3, "probes",
             salt=1),
    # Correlated consecutive states, so a warm start has something to reuse.
    Workload("loop-ex2", "ex2", "ex2_N15_catalog.json", 5, 7, 3, "loop",
             outer_band=(3, 7), trace_passes=4, salt=2),
    # Independent cold states over the whole state set; mostly Infeasible.
    Workload("query-ex3", "ex3", "ex3_N15_catalog.json", 3, 7, 5, "query",
             strata=(4, 2, 2, 2, 2, 1, 1, 1, 1), trace_passes=4, salt=3),
    # Self-test only: one region, one catalog scenario, prunes in 0.1 s.
    Workload("smoke-ex1", "ex1", None, 15, 1, 1, "query",
             strata=(4,), trace_passes=1, salt=4),
)}


def load_json(name):
    with open(DATA / name) as fh:
        return json.load(fh)


def run_config(system):
    """The reference parameter choices of ``convexnmpc repro``."""
    return RunConfig(system=str(SYSTEMS / f"{system}.json"), horizon=HORIZON,
                     q_diag=0.05, b0=0.1, c=np.array((5.0, -1.0)), threads=1)


def levels_digest(levels, upto):
    """Digest of the sorted feasible sequences of levels 1..upto."""
    body = [sorted(list(seq) for seq in levels[k]) for k in range(1, upto + 1)]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]


def decision_digest(records):
    text = ";".join(f"{j}:{'-' if V is None else format(V, '.6e')}"
                    for j, V in records)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def same_decision(got, want):
    (j, V), (wj, wV) = got, want
    if j != wj or (V is None) != (wV is None):
        return False
    return V is None or abs(V - wV) <= V_TOL * max(1.0, abs(wV))


class Checks:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class Run:
    """One run of one workload: set-up, offline prune, online decisions."""

    def __init__(self, wl, seed, seconds, traced, reference):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.checks = Checks()
        self.tracer = Tracer() if traced else None
        self.rng = np.random.default_rng([seed & 0xFFFFFFFF, wl.salt])
        self.pass_digests = []
        self.samples = {}

    # -- set-up ------------------------------------------------------------

    def set_up(self):
        """Pipeline plus stored catalog, repeated; returns their Gauge."""
        gauge = Gauge()
        for _ in range(self.wl.setup_repeats):
            with gauge.interval(), self._span("setup", op="setup"):
                pipe = build_pipeline(run_config(self.wl.system))
                catalog = None
                if self.wl.catalog:
                    catalog = FeasibleCatalog.load(DATA / self.wl.catalog)
                    expect = catalog_hash(pipe.spec, pipe.lin, pipe.terminal,
                                          pipe.solver_cfg.feas_tol)
                    if catalog.content_hash != expect:
                        raise BenchError(
                            f"{self.wl.catalog}: stored hash "
                            f"{catalog.content_hash}, expected {expect}")
        self.pipe, self.catalog = pipe, catalog
        ref = self.reference["prune"][self.wl.system]
        if catalog is not None and (
                catalog.count() != ref["count"]
                or levels_digest(catalog.levels, HORIZON)
                != ref["levels_digest"][str(HORIZON)]):
            raise BenchError(f"{self.wl.catalog} differs from the reference")
        return gauge

    # -- offline -----------------------------------------------------------

    def prune(self, repeats):
        """Timed prune runs, each checked against the reference levels.
        Every feasibility probe is a decision of the returned Gauge."""
        wl, pipe = self.wl, self.pipe
        ref = self.reference["prune"][wl.system]
        gauge = Gauge() if self.tracer is None else None
        for _ in range(repeats):
            try:
                with measured(gauge, scenario, "solve_feasibility"), \
                        self._span("scenario.prune", op="prune"):
                    catalog = prune_catalog(
                        pipe.spec, pipe.lin, pipe.zsets, pipe.terminal,
                        wl.prune_horizon, solver_cfg=pipe.solver_cfg,
                        n_workers=1, progress=self._level_spans())
            except Exception as exc:  # a failed operation, not a crash
                self.checks.record(False, f"prune raised {exc!r}")
                continue
            n = wl.prune_horizon
            ok = (catalog.content_hash == ref["hash"]
                  and levels_digest(catalog.levels, n)
                  == ref["levels_digest"][str(n)])
            if n == HORIZON:
                ok = ok and catalog.count() == ref["count"]
            self.checks.record(ok, f"prune to N={n} differs from reference")
            if self.catalog is None:
                self.catalog = catalog
        return gauge

    def _fits(self, start, durations):
        """Whether one more unit of work, as long as the last one, is
        expected to end within the time budget."""
        if not durations:
            return True
        return perf_counter() - start + durations[-1] <= self.seconds

    def _level_spans(self):
        """Progress callback that turns prune levels into spans."""
        if self.tracer is None or not self.tracer.installed:
            return None
        tracer = self.tracer
        span = [tracer.begin("scenario.prune.level", level=1)]

        def progress(level, count):
            tracer.end(span[0], survivors=count)
            if level < self.wl.prune_horizon:
                span[0] = tracer.begin("scenario.prune.level",
                                       level=level + 1)
        return progress

    # -- online ------------------------------------------------------------

    def draw(self):
        """Pool entries of one pass, in random order.

        A query pass takes from every region as many states as its stratum
        says, in proportion to the region's area. A loop pass takes one
        start per outer slab, whose closed loops together spend lo + hi of
        their steps outside the slab of the origin. Each bin of the pool is
        walked in a random order and reshuffled when it runs out, so a run
        sees as many distinct entries as it has time for; with fewer
        repeats, the percentiles vary less from seed to seed.
        """
        if self.wl.online == "loop":
            lo, hi = self.wl.outer_band
            k = int(self.rng.integers(lo, hi + 1))
            groups = [((OUTER_SLABS[0], k), 1),
                      ((OUTER_SLABS[1], lo + hi - k), 1)]
        else:
            groups = list(enumerate(self.wl.strata, start=1))
        picks = []
        for key, n in groups:
            queue = self._queues.setdefault(key, [])
            if len(queue) < n:
                queue[:] = self.rng.permutation(self._bins[key]).tolist()
            picks += queue[:n]
            del queue[:n]
        return [self.pool[picks[i]]
                for i in self.rng.permutation(len(picks))]

    def decide(self, x):
        p = self.pipe
        try:
            step = closedloop.evaluate_ocp(
                x, self.catalog, p.spec, p.lin, p.zsets, p.terminal, p.Q,
                p.rho, cfg=p.solver_cfg)
        except InfeasibleStateError:
            return 0, None
        except Exception as exc:  # a failed operation, not a crash
            return "error", repr(exc)
        return int(step.j_star), float(step.V)

    def run_trajectory(self, x0):
        p = self.pipe
        try:
            with self._span("closedloop.simulate", op="trajectory"):
                traj = closedloop.simulate(
                    x0, LOOP_STEPS, self.catalog, p.spec, p.lin, p.zsets,
                    p.terminal, p.Q, p.rho, cfg=p.solver_cfg)
        except Exception as exc:  # a failed operation, not a crash
            return [("error", repr(exc))] * LOOP_STEPS
        return [(int(j), float(V)) for j, V in zip(traj.j_star, traj.V)]

    def passes(self):
        """Endless sequence of (reference records, pool entries) pairs."""
        while True:
            entries = self.draw()
            yield ([(j, V) for e in entries for j, V in zip(e["j"], e["V"])],
                   entries)

    def run_pass(self, entries):
        if self.wl.online == "loop":
            return [rec for e in entries
                    for rec in self.run_trajectory(np.array(e["x0"]))]
        return [self.decide(np.array(e["x0"])) for e in entries]

    def check_pass(self, records, want):
        for got, expected in zip(records, want):
            if got[0] == "error":
                self.checks.record(False, f"decision raised {got[1]}")
            else:
                self.checks.record(same_decision(got, expected),
                                   f"decision {got} != reference {expected}")
        if all(r[0] != "error" for r in records):
            self.pass_digests.append(decision_digest(records))

    def online_untraced(self):
        """Whole passes while the next is expected to end within the time
        budget; every evaluate_ocp call is a decision of the Gauge."""
        gauge = Gauge()
        done = []
        start = perf_counter()
        for want, work in self.passes():
            t0 = perf_counter()
            with measured(gauge, closedloop, "evaluate_ocp"):
                records = self.run_pass(work)
            done.append(perf_counter() - t0)
            self.check_pass(records, want)
            if not self._fits(start, done):
                break
        return gauge

    def run_both_ways(self, work):
        """Run work() untraced, then traced; returns both times and the
        traced result."""
        self.tracer.uninstall()
        t0 = perf_counter()
        work()
        plain = perf_counter() - t0
        self.tracer.install()
        t0 = perf_counter()
        result = work()
        return plain, perf_counter() - t0, result

    def online_traced(self):
        """A fixed number of passes, each run untraced and then traced;
        returns the summed (untraced, traced) times."""
        passes = self.passes()
        plain = traced = 0.0
        for _ in range(self.wl.trace_passes):
            want, work = next(passes)
            t_plain, t_traced, records = self.run_both_ways(
                lambda: self.run_pass(work))
            plain += t_plain
            traced += t_traced
            self.check_pass(records, want)
        return plain, traced

    # -- run ---------------------------------------------------------------

    def prepare_online(self):
        if self.catalog is None:
            raise BenchError("no catalog to decide with")
        self.pool = self.reference["pools"][self.wl.name]
        self._bins = {}
        self._queues = {}
        for i, e in enumerate(self.pool):
            key = ((e["region"], e["outer_steps"])
                   if self.wl.online == "loop" else e["region"])
            self._bins.setdefault(key, []).append(i)

    def _span(self, name, op=None):
        if self.tracer is None or not self.tracer.installed:
            return nullcontext()
        return self.tracer.span(name, op=op)

    def execute(self):
        if self.tracer is None:
            return self._execute_untraced()
        self.tracer.install()
        try:
            self.set_up()
            if self.wl.online == "probes":
                plain, traced, _ = self.run_both_ways(lambda: self.prune(1))
            else:
                self.prune(self.wl.prune_repeats)
                self.prepare_online()
                plain, traced = self.online_traced()
        finally:
            self.tracer.uninstall()
        return layer_metrics(self.tracer.spans, (traced - plain) / plain)

    def _execute_untraced(self):
        setup = self.set_up()
        prunes = self.prune(self.wl.prune_repeats)
        if not prunes.intervals:
            raise BenchError("no prune run completed")
        if self.wl.online == "probes":
            decisions = prunes
        else:
            self.prepare_online()
            decisions = self.online_untraced()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def summary(i):
            """Metrics from the raw (i=0) or the scaled (i=1) times."""
            ms = np.array([d[i] for d in decisions.decisions]) * 1e3
            p50, p90 = np.percentile(ms, [50, 90])
            return {
                "setup_s": statistics.median(t[i] for t in setup.intervals),
                "prune_s": statistics.median(t[i] for t in prunes.intervals),
                "decide_ms_p50": float(p50),
                "decide_ms_p90": float(p90),
                "decides_per_s": len(ms) / sum(
                    t[i] for t in decisions.intervals),
                "peak_rss_mb": rss,
            }
        self.samples = {"decisions": len(decisions.decisions),
                        "setups": len(setup.intervals),
                        "prunes": len(prunes.intervals), "raw": summary(0)}
        return summary(1)
