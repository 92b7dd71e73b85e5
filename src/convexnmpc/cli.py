"""Command-line entry point orchestrating the full pipeline.

Subcommands: validate, linearize, stagesets, terminal, prune, solve,
simulate, grid, repro. Exit codes: 0 success, 1 validation or assumption
failure, 2 solver failure, 3 I/O, schema, or catalog-consistency error.
Errors are mirrored as one-line JSON on stderr for machine consumption.
"""
import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .closedloop import (UNDECIDED, _fmt, applied_candidate, sample_grid,
                         simulate)
from .errors import (CatalogMismatchError, InfeasibleStateError,
                     SchemaError, ToolkitError)
from .linearize import (bound_interval, build_linearization,
                        compute_output_vector, u_of_v)
from .model import load_system, validate_assumption1
from .scenario import (FeasibleCatalog, catalog_hash, decode,
                       filter_for_state, prune_catalog)
from .solver import SolverConfig, assemble, solve
from .stagesets import build_stage_sets
from .terminal import build_terminal, verify_terminal_axioms

PAPER_DEFS = {"b0": 0.1, "c": (5.0, -1.0), "q_diag": 0.05, "horizon": 15}


def _parse_vec(text, flag, n=None):
    """Comma-separated finite numbers, n of them when n is given."""
    try:
        vec = np.array([float(t) for t in text.split(",")])
    except ValueError:
        vec = None
    if vec is None or not np.isfinite(vec).all():
        raise SchemaError(f"{flag} must be comma-separated numbers: {text!r}")
    _check_length(vec, n, flag)
    return vec


def _check_length(vec, n, flag):
    if n is not None and vec is not None and vec.size != n:
        raise SchemaError(f"{flag} must have {n} entries, got {vec.size}")


def _at_least(value, least, flag):
    if value < least:
        raise SchemaError(f"{flag} must be >= {least}, got {value}")


@dataclass
class RunConfig:
    """Everything a pipeline run needs. Each flag of a pipeline subcommand
    fills the field named by its dest; a flag left out keeps the default."""

    system: str
    horizon: int = PAPER_DEFS["horizon"]
    q_diag: float = PAPER_DEFS["q_diag"]
    rho: float = None          # None: 0.1 b0^2 / beta^2
    b0: float = PAPER_DEFS["b0"]
    c: np.ndarray = None       # None: solve for beta_target
    beta_target: float = 1.0
    a: np.ndarray = None       # None: characteristic polynomial
    feas_tol: float = SolverConfig.feas_tol
    kkt_tol: float = SolverConfig.kkt_tol
    terminal_kind: str = "auto"
    catalog: str = None
    out: str = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _at_least(self.horizon, 1, "horizon")
        for name in ("feas_tol", "kkt_tol", "rho"):  # rho None: derived
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SchemaError(f"{name} must be positive")
        if self.q_diag < 0:
            raise SchemaError("state weight must be PSD")
        for name in ("b0", "beta_target"):
            if getattr(self, name) == 0:
                raise SchemaError(f"{name} must be nonzero")
        _at_least(self.threads, 1, "thread count (--threads or NMPC_THREADS)")


def config_from_args(args):
    """The RunConfig of the flags the subcommand has. Where --threads exists
    and is not given, NMPC_THREADS sets it, else the core count."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    if "threads" in given and given["threads"] is None:
        text = os.environ.get("NMPC_THREADS") or str(os.cpu_count() or 1)
        try:
            given["threads"] = int(text)
        except ValueError:
            raise SchemaError(f"NMPC_THREADS must be an integer: {text!r}")
    return RunConfig(**given)


@dataclass
class Pipeline:
    spec: object
    lin: object
    zsets: list
    terminal: object
    Q: np.ndarray
    rho: float
    solver_cfg: SolverConfig
    cfg: RunConfig


def _linearization(cfg):
    """The system and its exact linearization."""
    spec = load_system(cfg.system)
    _check_length(cfg.c, spec.n, "--c")
    _check_length(cfg.a, spec.n, "--a")
    c = cfg.c
    if c is None:
        c = compute_output_vector(spec.A, spec.b, cfg.beta_target)
    return spec, build_linearization(spec, c, b0=cfg.b0, a=cfg.a)


def build_pipeline(cfg, need_terminal=True):
    spec, lin = _linearization(cfg)
    zsets = build_stage_sets(spec, lin, seed=cfg.seed)
    Q = cfg.q_diag * np.eye(spec.n)
    rho = cfg.rho if cfg.rho is not None else 0.1 * cfg.b0 ** 2 / lin.beta ** 2
    solver_cfg = SolverConfig(feas_tol=cfg.feas_tol, kkt_tol=cfg.kkt_tol)
    term = None
    if need_terminal:
        term = build_terminal(spec, lin, zsets, Q, rho,
                              kind=cfg.terminal_kind, seed=cfg.seed)
    return Pipeline(spec=spec, lin=lin, zsets=zsets, terminal=term, Q=Q,
                    rho=rho, solver_cfg=solver_cfg, cfg=cfg)


def _emit(text, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, path=None):
    _emit(json.dumps(obj, sort_keys=True, indent=1) + "\n", path)


def _matching_catalog(pipe, path):
    """The catalog at path, checked against the pipeline's data."""
    catalog = FeasibleCatalog.load(path)
    expect = catalog_hash(pipe.spec, pipe.lin, pipe.terminal,
                          pipe.solver_cfg.feas_tol)
    if catalog.content_hash != expect:
        raise CatalogMismatchError(
            "catalog was pruned against different data "
            f"(stored {catalog.content_hash}, expected {expect})")
    return catalog


def _load_catalog_checked(pipe):
    """The matching catalog cut to the requested horizon, so that every
    command reads the scenarios of that level."""
    path = pipe.cfg.catalog
    if not path:
        raise SchemaError("a catalog file is required (--catalog)")
    catalog = _matching_catalog(pipe, path)
    horizon = pipe.cfg.horizon
    if catalog.N < horizon:
        raise SchemaError(
            f"catalog horizon {catalog.N} is shorter than requested "
            f"{horizon}")
    return catalog.cut(horizon)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    cfg = config_from_args(args)
    spec = load_system(cfg.system)
    _at_least(args.samples, 1, "--samples")
    report = validate_assumption1(spec, n_samples=args.samples, seed=cfg.seed)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_linearize(args):
    cfg = config_from_args(args)
    _, lin = _linearization(cfg)
    _dump_json(lin.to_dict(), cfg.out)
    return 0


def cmd_stagesets(args):
    cfg = config_from_args(args)
    _at_least(args.resolution, 1, "--resolution")
    pipe = build_pipeline(cfg, need_terminal=False)
    lines = []
    n = pipe.spec.n
    header = ",".join(["i"] + [f"x{k + 1}" for k in range(n)]
                      + ["u_i_lo", "u_i_hi"])
    for zs in pipe.zsets:
        lines.append(f"# Z_{zs.index} class={zs.kind} "
                     f"sign={zs.sign_beta_g:+d}")
    lines.append(header)
    for zs in pipe.zsets:
        lo, hi = zs.region.bounding_box()
        axes = [np.linspace(lo[k], hi[k], args.resolution) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        for x in np.column_stack([m.ravel() for m in mesh]):
            if not zs.region.contains(x, 1e-9):
                continue
            blo, bhi = bound_interval(pipe.lin, pipe.spec, x)
            lines.append(",".join([str(zs.index)] + [_fmt(v) for v in x]
                                  + [_fmt(blo), _fmt(bhi)]))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_terminal(args):
    cfg = config_from_args(args)
    _at_least(args.samples, 1, "--samples")
    pipe = build_pipeline(cfg)
    term = pipe.terminal
    out = {"P": term.P.tolist(), "kappa": term.kappa.tolist(),
           "kind": term.kind}
    if term.kind == "polytope":
        out["C"] = term.tset.C.tolist()
        out["d"] = term.tset.d.tolist()
    else:
        out["shape"] = term.tset.P_shape.tolist()
        out["level"] = term.tset.level
    if args.check_axioms:
        rep = verify_terminal_axioms(term, pipe.zsets, pipe.Q, pipe.rho,
                                     n_samples=args.samples, seed=cfg.seed)
        out["axioms"] = rep.to_dict()
    _dump_json(out, cfg.out)
    return 0


def _default_catalog_path(cfg):
    stem = os.path.splitext(os.path.basename(cfg.system))[0]
    return cfg.catalog or f"{stem}.catalog.json"


def cmd_prune(args):
    cfg = config_from_args(args)
    pipe = build_pipeline(cfg)
    path = _default_catalog_path(cfg)
    resumed = None
    if args.resume and os.path.exists(path):
        resumed = _matching_catalog(pipe, path)
    catalog = prune_catalog(
        pipe.spec, pipe.lin, pipe.zsets, pipe.terminal, cfg.horizon,
        solver_cfg=pipe.solver_cfg, n_workers=cfg.threads, resume=resumed,
        progress=lambda lvl, cnt: print(f"level {lvl}: {cnt} feasible",
                                        file=sys.stderr))
    levels, meta = catalog.levels, catalog.meta
    probed = [lvl for lvl in levels if resumed is None
              or lvl not in resumed.levels]  # the levels this run probed
    screened, warm, appended = (sum(meta[key][str(lvl)] for lvl in probed)
                                for key in ("screened", "warm", "appended"))
    cands = sum(catalog.s * len(levels.get(lvl - 1, ((),))) for lvl in probed)
    print(f"{cands - screened} probes, {warm} settled by a witness "
          f"({warm - appended} extended, {appended} appended); {screened} "
          f"candidates screened", file=sys.stderr)
    catalog.save(path)
    print(f"catalog with {catalog.count()} feasible scenarios at horizon "
          f"{catalog.N} written to {path}")
    return 0


def _solution_dict(pipe, x, sol):
    out = {"j": sol.scenario_j, "status": sol.status,
           "class": sol.prog_class, "nonconvex": sol.nonconvex_flag}
    if sol.optimal:
        v_seq = [float(v) for v in sol.v_seq]
        u_seq = [u_of_v(pipe.lin, pipe.spec, xs, v)
                 for xs, v in zip(sol.x_traj[:-1], v_seq)]
        out.update({"V": sol.V, "v_seq": v_seq, "u_seq": u_seq,
                    "kkt_residual": sol.kkt_residual})
    else:
        out["phase1_violation"] = sol.phase1_violation
    return out


def cmd_solve(args):
    cfg = config_from_args(args)
    pipe = build_pipeline(cfg)
    x = _parse_vec(args.x0, "--x0", pipe.spec.n)
    catalog = _load_catalog_checked(pipe)
    if args.scenario is not None:
        cands = [decode(args.scenario, catalog.s, catalog.N)]
    else:
        cands = filter_for_state(catalog, pipe.spec, x)
    if not cands:
        raise InfeasibleStateError(
            "no catalog scenario starts in a region containing the query "
            "state", details_x=x.tolist())
    sols = [solve(assemble(c, x, pipe.lin, pipe.zsets, pipe.terminal,
                           pipe.Q, pipe.rho), pipe.solver_cfg)
            for c in cands]
    results = [_solution_dict(pipe, x, sol) for sol in sols]
    # the candidate evaluate_ocp applies, or the first when none is Optimal
    shown = results[applied_candidate(sols) or 0]
    _dump_json(results if args.all_feasible else shown, cfg.out)
    n_undecided = sum(sol.status in UNDECIDED for sol in sols)
    n_newton = sum(sol.n_newton for sol in sols)
    print(f"undecided candidates (IterLimit or Stalled): {n_undecided}; "
          f"Newton steps: {n_newton}", file=sys.stderr)
    return 0 if any(sol.optimal for sol in sols) else 2


def cmd_simulate(args):
    cfg = config_from_args(args)
    _at_least(args.steps, 0, "--steps")
    pipe = build_pipeline(cfg)
    x0 = _parse_vec(args.x0, "--x0", pipe.spec.n)
    catalog = _load_catalog_checked(pipe)
    traj = simulate(x0, args.steps, catalog, pipe.spec,
                    pipe.lin, pipe.zsets, pipe.terminal, pipe.Q, pipe.rho,
                    cfg=pipe.solver_cfg)
    _emit(traj.to_csv(), cfg.out)
    return 0


def cmd_grid(args):
    cfg = config_from_args(args)
    _at_least(args.resolution, 2, "--resolution")
    pipe = build_pipeline(cfg)
    catalog = _load_catalog_checked(pipe)
    table = sample_grid(args.resolution, catalog, pipe.spec, pipe.lin,
                        pipe.zsets, pipe.terminal, pipe.Q, pipe.rho,
                        cfg=pipe.solver_cfg, n_workers=cfg.threads,
                        keep_per_scenario=args.per_scenario)
    _emit(table.to_csv(), cfg.out)
    return 0


# reported reference values for the shipped example systems
_REPRO_REFERENCE = {
    "beta": 0.024,
    "b_hat": (0.0416667, 0.2083333),
    "rho": 1.7361,
    "counts": {"ex1": 1, "ex2": 31, "ex3": 217},
}


def _packaged_system(name):
    ref = resources.files("convexnmpc").joinpath(f"data/{name}.json")
    return str(ref)


def cmd_repro(args):
    name = args.example
    system = args.system or _packaged_system(name)
    cfg = RunConfig(system=system, horizon=args.horizon,
                    c=np.array(PAPER_DEFS["c"]), threads=args.threads)
    pipe = build_pipeline(cfg)
    rows = []

    def row(name, computed, reference, marker):
        rows.append((name, computed, reference, marker))

    lin = pipe.lin
    row("beta", _fmt(lin.beta), "0.024",
        "PASS" if abs(lin.beta - _REPRO_REFERENCE["beta"]) <= 1e-12 else "FAIL")
    bh_ok = np.all(np.abs(lin.b_hat - np.array(_REPRO_REFERENCE["b_hat"]))
                   <= 1e-6)
    row("b_hat", "(" + ", ".join(_fmt(v) for v in lin.b_hat) + ")",
        "(0.0416667, 0.2083333)", "PASS" if bh_ok else "FAIL")
    row("A_hat = A", _fmt(float(np.max(np.abs(lin.A_hat - pipe.spec.A)))),
        "0 (1e-10)",
        "PASS" if np.max(np.abs(lin.A_hat - pipe.spec.A)) <= 1e-10 else "FAIL")
    row("alpha", _fmt(float(np.max(np.abs(lin.alpha)))), "0 (1e-10)",
        "PASS" if np.max(np.abs(lin.alpha)) <= 1e-10 else "FAIL")
    row("rho", _fmt(pipe.rho), "1.7361",
        "PASS" if abs(pipe.rho - _REPRO_REFERENCE["rho"]) <= 1e-3 else "FAIL")

    catalog = prune_catalog(pipe.spec, pipe.lin, pipe.zsets, pipe.terminal,
                            cfg.horizon, solver_cfg=pipe.solver_cfg,
                            n_workers=cfg.threads)
    count = catalog.count()
    ref_count = _REPRO_REFERENCE["counts"][name]
    if cfg.horizon != PAPER_DEFS["horizon"]:
        marker = "N-A"
    elif name == "ex1":
        marker = "PASS" if count == 1 else "FAIL"
    elif name == "ex2":
        marker = ("PASS" if count == ref_count
                  else "INFO" if 25 <= count <= 40 else "FAIL")
    else:
        # the shipped gain surface is a stand-in; the reference count is not
        # reproducible from the available definitions
        marker = "N-A"
    row("feasible scenarios", str(count), str(ref_count), marker)

    w0 = max(len(r[0]) for r in rows + [("quantity",)])
    w1 = max(len(r[1]) for r in rows + [(None, "computed")])
    w2 = max(len(r[2]) for r in rows + [(None, None, "reference")])
    print(f"{'quantity':<{w0}}  {'computed':>{w1}}  {'reference':>{w2}}  mark")
    for r in rows:
        print(f"{r[0]:<{w0}}  {r[1]:>{w1}}  {r[2]:>{w2}}  {r[3]}")
    if args.catalog:
        catalog.save(args.catalog)
        print(f"catalog written to {args.catalog}")
    return 0 if all(r[3] != "FAIL" for r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the flags of the pipeline subcommands; each one's dest (argparse's, or
# the one given) is the RunConfig field it fills
_FLAGS = {
    "--c": dict(type=lambda text: _parse_vec(text, "--c"),
                help="output vector, comma-separated (default: solved from "
                     "--beta-target)"),
    "--beta-target": dict(type=float),
    "--b0": dict(type=float),
    "--a": dict(type=lambda text: None if text == "charpoly"
                else _parse_vec(text, "--a"),
                help="feedback coefficients, comma-separated or 'charpoly' "
                     "(default)"),
    "--q": dict(dest="q_diag", type=float, help="state weight Q = q*I"),
    "--rho": dict(type=float, help="input weight (default 0.1 b0^2/beta^2)"),
    "--terminal": dict(dest="terminal_kind",
                       choices=("auto", "polytope", "ellipsoid")),
    "--feas-tol": dict(type=float),
    "--kkt-tol": dict(type=float),
    "--seed": dict(type=int),
    "--threads": dict(type=int, default=None, help="worker processes "
                      "(default: NMPC_THREADS or all cores)"),
    "--out": dict(help="output file (default stdout)"),
    "--horizon": dict(type=int),
    "--catalog": {},
}
_LINEARIZATION = "--c --beta-target --b0 --a"
_TERMINAL = _LINEARIZATION + " --q --rho --terminal --seed"
_CATALOG = _TERMINAL + " --feas-tol --horizon --catalog"


def _add_pipeline(sub, name, flags, help):
    """A subcommand on a system file that takes the given _FLAGS."""
    p = sub.add_parser(name, help=help)
    p.add_argument("system", help="system description JSON file")
    for flag in flags.split():
        p.add_argument(flag, **{"default": argparse.SUPPRESS, **_FLAGS[flag]})
    return p


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are SchemaErrors (exit 3)."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def make_parser():
    parser = _Parser(
        prog="convexnmpc",
        description="Convex scenario reformulation of NMPC for input-affine "
                    "systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_pipeline(sub, "validate", "--seed",
                      help="check the system-class assumptions")
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_validate)

    p = _add_pipeline(sub, "linearize", _LINEARIZATION + " --out",
                      help="print the exact linearization")
    p.set_defaults(func=cmd_linearize)

    p = _add_pipeline(sub, "stagesets", _LINEARIZATION + " --seed --out",
                      help="emit stage-set classes and bounds")
    p.add_argument("--resolution", type=int, default=11)
    p.set_defaults(func=cmd_stagesets)

    p = _add_pipeline(sub, "terminal", _TERMINAL + " --out",
                      help="compute terminal ingredients")
    p.add_argument("--check-axioms", action="store_true")
    p.add_argument("--samples", type=int, default=2000,
                   help="shell samples of an ellipsoid terminal's "
                        "admissibility check (a polytope is checked at its "
                        "vertices)")
    p.set_defaults(func=cmd_terminal)

    p = _add_pipeline(sub, "prune", _CATALOG + " --threads",
                      help="offline scenario-tree pruning")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_prune)

    p = _add_pipeline(sub, "solve", _CATALOG + " --kkt-tol --out",
                      help="solve the subproblems at one state")
    p.add_argument("--x0", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scenario", type=int, default=None)
    group.add_argument("--all-feasible", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = _add_pipeline(sub, "simulate", _CATALOG + " --out",
                      help="closed-loop run of the true plant")
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = _add_pipeline(sub, "grid", _CATALOG + " --threads --out",
                      help="sample the state space to CSV")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--per-scenario", action="store_true")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("repro",
                       help="run a shipped example and compare to the "
                            "reference values")
    p.add_argument("example", choices=("ex1", "ex2", "ex3"))
    p.add_argument("--system", default=None,
                   help="override the packaged system file")
    p.add_argument("--horizon", type=int, default=PAPER_DEFS["horizon"])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--catalog", default=None,
                   help="also save the pruned catalog")
    p.set_defaults(func=cmd_repro)

    return parser


def run(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ToolkitError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": "IO", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "SCHEMA", "message": str(exc)}),
              file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
