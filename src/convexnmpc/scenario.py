"""Scenario indexing, tree pruning, and per-state filtering.

A scenario is a coefficient sequence, a tuple of one stage set per
prediction step, indexed by the base-s expansion
j = 1 + sum_k (eps_k - 1) s^k (encode, decode). Offline pruning walks
horizons 1..N, keeping only coefficient sequences whose subproblem admits
some initial state; extending a sequence prepends a fresh first step, so an
infeasible tail can never become feasible again and the catalog is closed
under suffixes. Extensions that the transition bound of their first two
steps proves infeasible (solver.transitions) are never probed. Every
survivor keeps a witness, a point where its free-x0 program is strictly
feasible, and the catalog stores them. A probe tests two starts from the
witnesses of the level below (starts): its tail's extended by a first step,
then its prefix's with the terminal controller's input appended as a last
step; the first that passes phase I's hint test settles the probe with no
Newton step. Any other probe runs phase I from its cold hint, so the
catalog does not depend on the witnesses.
"""
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import NoConvergenceError, OutOfRangeError, SchemaError
from .geometry import MEMBERSHIP_TOL, Ellipsoid, Polytope
from .model import EPS_G, region_membership, system_to_dict
from .solver import (SolverConfig, assemble, encode, solve_feasibility,
                     transitions)


def decode(j, s, N):
    """Coefficient sequence of scenario j over horizon N."""
    if not 1 <= j <= s ** N:
        raise OutOfRangeError(f"scenario index {j} outside 1..{s}^{N}")
    rem = j - 1
    coeffs = []
    for _ in range(N):
        coeffs.append(rem % s + 1)
        rem //= s
    return tuple(coeffs)


def catalog_hash(spec, lin, terminal, feas_tol):
    """Content hash binding a catalog to the data it was pruned against."""
    tset = terminal.tset
    if isinstance(tset, Polytope):
        tdata = {"kind": "polytope", "C": tset.C.tolist(), "d": tset.d.tolist()}
    elif isinstance(tset, Ellipsoid):
        tdata = {"kind": "ellipsoid", "P": tset.P_shape.tolist(),
                 "level": tset.level}
    else:
        raise TypeError("unknown terminal set type")
    payload = {
        "system": system_to_dict(spec),
        "lin": lin.to_dict(),
        "terminal": tdata,
        "feas_tol": feas_tol,
        "eps_g": EPS_G,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# the keys of a catalog file and their types (meta and witnesses may be
# left out)
_FIELDS = {"s": int, "N": int, "tol": (int, float), "terminal_kind": str,
           "hash": str, "levels": dict, "meta": dict, "witnesses": dict}


@dataclass
class FeasibleCatalog:
    """Per-horizon feasible coefficient sequences plus provenance metadata.

    witnesses holds, per level, a strictly feasible point (v, x0) of each
    survivor's free-x0 program that has one ({sequence: point}); it is
    outside content_hash, and a file without witnesses loads with none.
    """

    s: int
    N: int
    levels: dict
    feas_tol: float
    terminal_kind: str
    content_hash: str
    meta: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def sequences(self, horizon=None):
        horizon = self.N if horizon is None else horizon
        return self.levels[horizon]

    def count(self, horizon=None):
        return len(self.sequences(horizon))

    def cut(self, horizon):
        """Levels 1..horizon, with their witnesses and meta counts."""
        def upto(by_level):
            return {k: v for k, v in by_level.items() if int(k) <= horizon}
        return replace(self, N=horizon, levels=upto(self.levels),
                       witnesses=upto(self.witnesses),
                       meta={key: upto(v) if isinstance(v, dict) else v
                             for key, v in self.meta.items()})

    def suffix_closed(self):
        """Check the defining closure: dropping the first step of any stored
        sequence lands on a stored shorter sequence."""
        for ln, seqs in self.levels.items():
            if ln == 1:
                continue
            below = set(self.levels.get(ln - 1, ()))
            if any(seq[1:] not in below for seq in seqs):
                return False
        return True

    def to_dict(self):
        return {
            "s": self.s,
            "N": self.N,
            "tol": self.feas_tol,
            "terminal_kind": self.terminal_kind,
            "hash": self.content_hash,
            "meta": self.meta,
            "levels": {str(k): [list(seq) for seq in v]
                       for k, v in sorted(self.levels.items())},
            # aligned with levels, null for a survivor without a witness
            "witnesses": {str(k): [None if w.get(seq) is None
                                   else w[seq].tolist()
                                   for seq in self.levels[k]]
                          for k, w in sorted(self.witnesses.items())},
        }

    @classmethod
    def from_dict(cls, obj):
        """The catalog of a parsed catalog file; SchemaError for a missing
        key, a value of the wrong type, a level of 1..N that is missing or
        holds a sequence that is not k entries in 1..s, a witness list of
        another length than its level's, or meta counts ("screened",
        "warm", "appended") that do not map levels to counts >= 0. The
        parsed lists are checked as they are, with no array built."""
        if not isinstance(obj, dict):
            raise SchemaError("a catalog file holds one JSON object")
        obj = {"meta": {}, "witnesses": {}, **obj}
        for key, kind in _FIELDS.items():
            if key not in obj:
                raise SchemaError(f"catalog file has no {key!r}")
            if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
                raise SchemaError(f"catalog {key!r} has the wrong type")
        s, N, stored = obj["s"], obj["N"], obj["levels"]
        if s < 1 or N < 1:
            raise SchemaError("catalog 's' and 'N' must be >= 1")
        if set(stored) != {str(k) for k in range(1, N + 1)}:
            raise SchemaError(f"catalog levels must be 1..{N}")
        levels = {}
        for k in range(1, N + 1):
            seqs = stored[str(k)]
            ok = type(seqs) is list and all(
                type(seq) is list and len(seq) == k for seq in seqs)
            flat = list(chain.from_iterable(seqs)) if ok else []
            if (not ok or not set(map(type, flat)) <= {int}
                    or flat and not 1 <= min(flat) <= max(flat) <= s):
                raise SchemaError(f"catalog level {k} must hold sequences "
                                  f"of {k} entries in 1..{s}")
            levels[k] = tuple(map(tuple, seqs))
        witnesses = {}
        for key, ws in obj["witnesses"].items():
            if key not in stored or type(ws) is not list or len(ws) != len(
                    stored[key]) or not all(w is None or type(w) is list and (
                        set(map(type, w)) <= {int, float}) for w in ws):
                raise SchemaError(f"catalog witnesses {key!r} must list a "
                                  "point or null per sequence of the level")
            witnesses[int(key)] = {seq: np.array(w, dtype=float)
                                   for seq, w in zip(levels[int(key)], ws)
                                   if w is not None}
        for key in ("screened", "warm", "appended"):
            counts = obj["meta"].get(key, {})
            if type(counts) is not dict or not all(
                    level in stored and type(n) is int and n >= 0
                    for level, n in counts.items()):
                raise SchemaError(f"catalog meta {key!r} must map levels "
                                  "to counts >= 0")
        return cls(s=s, N=N, levels=levels, feas_tol=float(obj["tol"]),
                   terminal_kind=obj["terminal_kind"],
                   content_hash=obj["hash"], meta=obj["meta"],
                   witnesses=witnesses)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# module-level worker state so work items pickle cheaply
_WORKER = {}


def _worker_init(fn, args):
    _WORKER["call"] = fn, args


def _worker_call(item):
    fn, args = _WORKER["call"]
    return fn(item, *args)


@contextmanager
def worker_map(fn, args, n_workers, chunksize):
    """items -> [fn(item, *args)], over one pool of n_workers processes that
    each hold a copy of args, or in this process when n_workers is 1."""
    if n_workers <= 1:
        yield lambda items: [fn(item, *args) for item in items]
        return
    with ProcessPoolExecutor(max_workers=n_workers, initializer=_worker_init,
                             initargs=(fn, args)) as pool:
        yield lambda items: list(pool.map(_worker_call, items,
                                          chunksize=chunksize))


WITNESS_GRID = np.arange(1, 8) / 8.0  # interior points of a v0 interval


def _extend(zs, back, witness):
    """A start for the free-x0 program of (zs.index,) + tail from a witness
    (v_tail, x1) of the tail's: (v0, v_tail, x0(v0)), where x0(v0) =
    A_hat^-1 x1 - (A_hat^-1 b_hat) v0 steps to x1 (back holds the two
    factors, None for singular A_hat), so the tail's constraints see their
    witness again. v0 is the point of a fixed grid inside the interval that
    region zs's rows allow along that line with the lowest worst value of
    zs's constraints. None without a witness or back, or without interval."""
    if witness is None or back is None:
        return None
    inv, q = back
    n = q.size
    p = inv @ witness[-n:]
    a, c = -(zs.region.C @ q), zs.region.C @ p - zs.region.d
    lo = np.max(-c[a < 0] / a[a < 0], initial=-np.inf)
    hi = np.min(-c[a > 0] / a[a > 0], initial=np.inf)
    if not (lo < hi and np.isfinite(hi - lo)):
        return None
    v = lo + (hi - lo) * WITNESS_GRID
    Z = np.column_stack([p - v[:, None] * q, v])
    worst = np.max(np.column_stack(
        [zs.constraints.values_batch(Z), Z @ zs.lifted_C.T - zs.lifted_d]),
        axis=1)
    k = int(np.argmin(worst))
    return np.concatenate([v[k:k + 1], witness[:-n], Z[k, :n]])


def starts(coeffs, below, lin, zsets, back, kappa):
    """Starts for the free-x0 program of coeffs from the witnesses (v, x0)
    of the level below ({sequence: witness}), by name in the order a probe
    tests them: "extended", its tail's witness extended by a first step
    (_extend, with back as there); "appended", its prefix's witness with
    the terminal controller's input kappa x appended as a last step: the
    prefix's last state x lies in the terminal set, which that input keeps
    invariant. A start without its witness is left out."""
    out = {"extended": _extend(zsets[coeffs[0] - 1], back,
                               below.get(coeffs[1:]))}
    prefix = below.get(coeffs[:-1])
    if prefix is not None:
        n = lin.A_hat.shape[0]
        x = prefix[-n:]
        for v in prefix[:-n]:
            x = lin.A_hat @ x + lin.b_hat * v
        out["appended"] = np.concatenate(
            [prefix[:-n], [float(kappa @ x)], prefix[-n:]])
    return {name: z for name, z in out.items() if z is not None}


def _candidate_feasible(item, spec, lin, zsets, terminal, cfg):
    """Probe of one (coeffs, starts) item, starts by name (see starts):
    (feasible, witness, the name of the start that settled it or None);
    the witness is the probe's point when strictly feasible."""
    coeffs, starts = item
    prog = assemble(coeffs, None, lin, zsets, terminal,
                    Q=np.eye(spec.n), rho=1.0)
    try:
        feasible, slack, z = solve_feasibility(prog, cfg,
                                               tuple(starts.values()))
    except NoConvergenceError as exc:
        exc.details["sequence"] = list(coeffs)
        raise
    return (feasible, z if slack < 0 else None,
            next((name for name, start in starts.items() if z is start),
                 None))


def prune_catalog(spec, lin, zsets, terminal, N, solver_cfg=None,
                  n_workers=1, resume=None, progress=None):
    """Iterative-deepening scenario pruning up to horizon N.

    Level 1 keeps every region whose stage set can reach the terminal set in
    one step from some free initial state. Each further level prepends every
    region index i to each survivor whose transition bound from i to its
    first step is at most feas_tol, and re-probes feasibility with the
    initial state free over the new first region; meta["screened"] counts
    the others per level. A probe tests up to two starts built from the
    witnesses of the level below (starts): its tail's extended by a
    first step, then its prefix's with the terminal controller's input
    appended. meta["warm"] counts per level the probes a start settled with
    no Newton step, meta["appended"] those the appended start settled; the
    catalog's witnesses are its survivors' strictly feasible points.
    resume, a stored catalog, supplies its levels up to N with their
    witnesses, which warm the first new level, and their counts; a
    witness of level k that is not k + n entries is a SchemaError.
    One process pool serves every level.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    cfg = solver_cfg or SolverConfig()
    s = spec.n_regions
    resume = resume.cut(N) if resume else None
    levels = dict(resume.levels) if resume else {}
    witnesses = dict(resume.witnesses) if resume else {}
    for k, ws in witnesses.items():
        if any(len(w) != k + spec.n for w in ws.values()):
            raise SchemaError(f"catalog witnesses of level {k} must have "
                              f"{k + spec.n} entries")
    meta = resume.meta if resume else {}
    screened, warm, appended = (dict(meta.get(key, {}))
                                for key in ("screened", "warm", "appended"))
    start = max(levels) + 1 if levels else 1
    pairs = (transitions(lin, zsets, terminal, cfg) if N >= max(start, 2)
             else None)
    try:  # for _extend
        inv = np.linalg.inv(lin.A_hat)
        back = inv, inv @ lin.b_hat
    except np.linalg.LinAlgError:
        back = None
    with worker_map(_candidate_feasible, (spec, lin, zsets, terminal, cfg),
                    n_workers, chunksize=4) as check_all:
        for level in range(start, N + 1):
            if level == 1:
                cands = [(i,) for i in range(1, s + 1)]
            else:
                cands = [(i,) + tail for tail in levels[level - 1]
                         for i in range(1, s + 1)]
            kept = [c for c in cands
                    if len(c) == 1 or pairs[c[:2]] <= cfg.feas_tol]
            screened[str(level)] = len(cands) - len(kept)
            below = witnesses.get(level - 1, {})
            items = [(c, starts(c, below, lin, zsets, back, terminal.kappa))
                     for c in kept]
            probes = check_all(items)
            by = [name for _, _, name in probes]
            warm[str(level)] = sum(name is not None for name in by)
            appended[str(level)] = by.count("appended")
            survivors = [c for c, (ok, _, _) in zip(kept, probes) if ok]
            survivors.sort(key=lambda c: encode(c, s))
            levels[level] = tuple(survivors)
            witnesses[level] = {c: z for c, (ok, z, _) in zip(kept, probes)
                                if ok and z is not None}
            if progress is not None:
                progress(level, len(survivors))

    return FeasibleCatalog(
        s=s, N=N, levels=levels, feas_tol=cfg.feas_tol,
        terminal_kind="polytope" if isinstance(terminal.tset, Polytope)
        else "ellipsoid",
        content_hash=catalog_hash(spec, lin, terminal, cfg.feas_tol),
        meta={"n_workers": int(n_workers), "screened": screened,
              "warm": warm, "appended": appended},
        witnesses=witnesses,
    )


def filter_for_state(catalog, spec, x, tol=MEMBERSHIP_TOL):
    """The coefficient sequences of the catalog's horizon whose first region
    contains x, ascending by scenario index (encode)."""
    members = region_membership(spec, x, tol)
    return sorted((c for c in catalog.sequences() if c[0] in members),
                  key=lambda c: encode(c, catalog.s))
