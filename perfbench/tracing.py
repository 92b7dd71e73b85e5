"""Span tracing for the traced benchmark run, and the per-layer metrics.

The traced run wraps the public names that one convexnmpc module imports
from another (see ``WRAPPED``), so every call across a layer boundary
records a span: name, start, end, parent span and operation id. All spans
of one operation (one setup, one prune run or one decision) share the
operation id. Spans stay in memory and are written out when the run ends.
Counts are derived from the same spans, so they are measured where the
work happens and repeat exactly for a fixed amount of work.
"""
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from convexnmpc import cli, closedloop, scenario
from convexnmpc.errors import InfeasibleStateError

MAX_LEVEL = 15

# (module, attribute, span name, starts a new operation)
WRAPPED = (
    (cli, "load_system", "model.load", False),
    (cli, "build_linearization", "linearize.build", False),
    (cli, "build_stage_sets", "stagesets.build", False),
    (cli, "build_terminal", "terminal.build", False),
    (scenario, "assemble", "solver.assemble_probe", False),
    (scenario, "solve_feasibility", "solver.feas_probe", False),
    (closedloop, "evaluate_ocp", "closedloop.evaluate", True),
    (closedloop, "filter_for_state", "scenario.filter", False),
    (closedloop, "assemble", "solver.assemble", False),
    (closedloop, "solve", "solver.solve", False),
)

class Tracer:
    """In-memory span recorder; wraps module attributes while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, op, attrs]
        self._stack = []
        self._op = None
        self._n_ops = 0
        self._saved = []

    def begin(self, name, op=None, **attrs):
        if op is not None:
            self._n_ops += 1
            op = f"{op}-{self._n_ops}"
        else:
            op = self._op
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, op, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._op = op
        return idx

    def end(self, idx, **attrs):
        """Close span idx and any span still open inside it (left open
        when an exception cut a prune level short)."""
        now = perf_counter()
        while self._stack and self._stack[-1] != idx:
            self.spans[self._stack.pop()][2] = now
        self._stack.pop()
        self.spans[idx][2] = now
        self.spans[idx][5].update(attrs)
        self._op = self.spans[self._stack[-1]][4] if self._stack else None

    @contextmanager
    def span(self, name, op=None, **attrs):
        idx = self.begin(name, op=op, **attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    @property
    def installed(self):
        return bool(self._saved)

    def install(self):
        for module, attr, name, new_op in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, new_op))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrapper(self, fn, name, new_op):
        def traced(*args, **kwargs):
            idx = self.begin(name, op="decision" if new_op else None)
            attrs = {}
            try:
                result = fn(*args, **kwargs)
            except InfeasibleStateError:
                attrs["infeasible"] = True
                raise
            finally:
                self.end(idx, **attrs)
            self.spans[idx][5].update(_annotate(name, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op}
                row.update(attrs)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _annotate(name, result):
    if name == "solver.solve":
        return {"status": result.status, "newton": int(result.n_newton)}
    if name == "scenario.filter":
        return {"candidates": len(result)}
    if name == "solver.feas_probe":
        return {"feasible": bool(result[0])}
    return {}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, overhead_frac):
    """Per-layer metric values of a traced run, keyed by name.

    Setup and prune times are per setup or per prune run (median over the
    run's repetitions); prune counts are per prune run; the online counts
    and times are totals over the run's fixed decision set.
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = defaultdict(float)
    for s, d in zip(spans, dur):
        if s[3] is not None:
            child_time[s[3]] += d

    def per_op(kind, name):
        """Median over operations of the given kind of the summed span time."""
        totals = defaultdict(float)
        for s, d in zip(spans, dur):
            if s[0] == name and s[4] and s[4].startswith(kind + "-"):
                totals[s[4]] += d
        ops = {s[4] for s in spans if s[4] and s[4].startswith(kind + "-")}
        return _median([totals[op] for op in sorted(ops)])

    def online(name):
        return [(i, s, d) for i, (s, d) in enumerate(zip(spans, dur))
                if s[0] == name and s[4] and s[4].startswith("decision-")]

    out = {
        "model.load_s": per_op("setup", "model.load"),
        "linearize.build_s": per_op("setup", "linearize.build"),
        "stagesets.build_s": per_op("setup", "stagesets.build"),
        "terminal.build_s": per_op("setup", "terminal.build"),
        "solver.feas_probe_s": per_op("prune", "solver.feas_probe"),
    }

    # prune counts from the first prune run; every repetition is identical
    prune_ops = sorted({s[4] for s in spans
                        if s[4] and s[4].startswith("prune-")},
                       key=lambda op: int(op.split("-")[1]))
    first = prune_ops[0] if prune_ops else None
    level_times = defaultdict(list)
    survivors = 0
    for s, d in zip(spans, dur):
        if s[0] == "scenario.prune.level":
            level_times[s[5]["level"]].append(d)
            if s[4] == first:
                survivors += s[5]["survivors"]
    for k in range(1, MAX_LEVEL + 1):
        out[f"scenario.prune.level_s.{k}"] = _median(level_times[k])
    candidates = sum(1 for s in spans
                     if s[0] == "solver.assemble_probe" and s[4] == first)
    out["scenario.prune.candidates"] = candidates
    out["scenario.prune.survivors"] = survivors
    out["scenario.prune.survival_ratio"] = (survivors / candidates
                                            if candidates else 0.0)
    out["solver.feas_probe_calls"] = sum(
        1 for s in spans if s[0] == "solver.feas_probe" and s[4] == first)

    evaluations = online("closedloop.evaluate")
    filters = online("scenario.filter")
    solves = online("solver.solve")
    n_dec = len(evaluations)
    by_status = defaultdict(list)
    for _, s, d in solves:
        by_status[s[5]["status"]].append((s[5]["newton"], d))
    out["closedloop.decisions"] = n_dec
    out["scenario.candidates_per_decision"] = (
        sum(s[5]["candidates"] for _, s, _ in filters) / n_dec if n_dec else 0.0)
    out["scenario.filter_s"] = sum(d for _, _, d in filters)
    out["solver.assemble_s"] = sum(d for _, _, d in online("solver.assemble"))
    out["solver.solve_s"] = sum(d for _, _, d in solves)
    out["solver.solve_calls"] = len(solves)
    out["solver.solve_optimal_s"] = sum(d for _, d in by_status["Optimal"])
    out["solver.solve_infeasible_s"] = sum(
        d for _, d in by_status["Infeasible"])
    out["solver.optimal_ratio"] = (len(by_status["Optimal"]) / len(solves)
                                   if solves else 0.0)
    out["solver.undecided"] = len(by_status["IterLimit"])
    out["solver.newton_steps"] = sum(s[5]["newton"] for _, s, _ in solves)
    out["solver.newton_p50_optimal"] = _median(
        [n for n, _ in by_status["Optimal"]])
    out["solver.newton_p50_infeasible"] = _median(
        [n for n, _ in by_status["Infeasible"]])
    out["closedloop.evaluate_self_s"] = sum(
        d - child_time[i] for i, _, d in evaluations)
    out["trace.overhead_frac"] = overhead_frac
    return out
