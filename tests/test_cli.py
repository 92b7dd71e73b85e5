import argparse
import json
import time

import numpy as np
import pytest

import convexnmpc as cn
from convexnmpc.cli import make_parser, run
from convexnmpc.model import system_to_dict
from conftest import PACKAGED
from helpers import toy_spec

EX1 = str(PACKAGED / "ex1.json")
EX2 = str(PACKAGED / "ex2.json")
EX3 = str(PACKAGED / "ex3.json")
LINFLAGS = ["--c", "5,-1", "--b0", "0.1"]


def test_validate_clean_system_exits_zero(capsys):
    assert run(["validate", EX2]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_validate_flags_bad_curvature(capsys):
    assert run(["validate", EX1]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "convexity" in out


def test_missing_file_is_io_error(capsys):
    assert run(["validate", "no/such/file.json"]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "IO"


def test_malformed_json_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "SCHEMA"


def test_unbounded_region_is_schema_error(tmp_path, capsys):
    # region 1 of ex2 replaced by the strip -x1 <= 2, |x2| <= 2: its
    # inscribed radius is 2, but it has no bounding box
    system = json.loads((PACKAGED / "ex2.json").read_text())
    system["regions"][0].update(C=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                d=[2.0, 2.0, 2.0])
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(system))
    assert run(["validate", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SCHEMA", "message": "region 1 is unbounded"}


def test_linearize_reference_values(capsys):
    assert run(["linearize", EX2, *LINFLAGS]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["beta"] - 0.024) < 1e-12
    assert set(out) >= {"c", "T", "a", "b0", "alpha", "beta", "A_hat",
                        "b_hat"}


def test_linearize_byte_identical_reruns(capsys):
    run(["linearize", EX2, *LINFLAGS])
    first = capsys.readouterr().out
    run(["linearize", EX2, *LINFLAGS])
    assert capsys.readouterr().out == first


def test_stagesets_csv(capsys):
    assert run(["stagesets", EX2, *LINFLAGS, "--resolution", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    meta = [l for l in out if l.startswith("#")]
    assert len(meta) == 3
    assert "class=smooth" in meta[0] and "sign=+1" in meta[0]
    header = [l for l in out if l.startswith("i,")][0]
    assert header == "i,x1,x2,u_i_lo,u_i_hi"
    rows = [l for l in out if l and not l.startswith(("#", "i,"))]
    assert all(len(r.split(",")) == 5 for r in rows)


def test_terminal_with_axioms(capsys):
    assert run(["terminal", EX3, *LINFLAGS, "--check-axioms",
                "--samples", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "polytope"
    assert out["axioms"]["ok"] is True


def test_terminal_samples_set_only_an_ellipsoid_shell(capsys):
    checked = {}
    for system in (EX2, EX3):
        for samples in (200, 2000):
            assert run(["terminal", system, *LINFLAGS, "--check-axioms",
                        "--samples", str(samples)]) == 0
            out = json.loads(capsys.readouterr().out)
            checked[out["kind"], samples] = out["axioms"]["n_checked"]
    # an ellipsoid's admissibility is sampled on its shell, a polytope's
    # read at its vertices (ex3's terminal has 6)
    assert checked == {("ellipsoid", 200): 200, ("ellipsoid", 2000): 2000,
                       ("polytope", 200): 6, ("polytope", 2000): 6}
    with pytest.raises(SystemExit):
        run(["terminal", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("--samples SAMPLES shell samples of an ellipsoid terminal's "
            "admissibility check (a polytope is checked at its vertices)"
            in text)


def test_ellipsoid_terminal_with_axioms(capsys):
    assert run(["terminal", EX2, *LINFLAGS, "--check-axioms",
                "--samples", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "ellipsoid"
    assert float.hex(out["level"]) == "0x1.d5112ff828274p-3"
    axioms = out["axioms"]
    assert axioms["ok"] is True and axioms["n_checked"] == 200
    # invariance and decrease are matrix tests: --samples does not move them
    assert axioms["worst_invariance"] < -0.038
    assert 0.0 <= axioms["worst_decrease"] <= 1e-11


def test_prune_solve_simulate_grid_pipeline(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "2",
                "--catalog", cat, "--threads", "1"]) == 0
    capsys.readouterr()

    stored = json.loads(open(cat).read())
    assert stored["s"] == 3 and stored["N"] == 2
    assert set(stored["levels"]) == {"1", "2"}

    assert run(["solve", EX2, *LINFLAGS, "--horizon", "2", "--catalog", cat,
                "--x0", "0,0"]) == 0
    captured = capsys.readouterr()
    sol = json.loads(captured.out)
    assert sol["status"] == "Optimal" and abs(sol["V"]) < 1e-9
    assert "undecided candidates (IterLimit or Stalled): 0" in captured.err
    # the rollout hint is optimal at the origin
    assert "Newton steps: 0\n" in captured.err
    assert sol["j"] == 1 and sol["class"] == "NLP"

    assert run(["solve", EX2, *LINFLAGS, "--horizon", "2", "--catalog", cat,
                "--x0", "0.1,0.1", "--all-feasible"]) == 0
    sols = json.loads(capsys.readouterr().out)
    assert isinstance(sols, list) and sols

    csv_path = str(tmp_path / "traj.csv")
    assert run(["simulate", EX2, *LINFLAGS, "--horizon", "2",
                "--catalog", cat, "--x0", "0.2,0.2", "--steps", "3",
                "--out", csv_path]) == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "k,x1,x2,u,v,V,j_star"
    assert len(lines) == 4

    grid_path = str(tmp_path / "grid.csv")
    assert run(["grid", EX2, *LINFLAGS, "--horizon", "2", "--catalog", cat,
                "--resolution", "3", "--out", grid_path,
                "--threads", "1"]) == 0
    lines = open(grid_path).read().strip().splitlines()
    assert lines[0].startswith("x1,x2,feasible,u_star,V_star,j_star")
    assert len(lines) == 10


def test_catalog_hash_mismatch_aborts(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "2",
                "--catalog", cat, "--threads", "1"]) == 0
    capsys.readouterr()
    # different b0 changes the linearization, so the stored catalog no
    # longer matches and the run must abort instead of recomputing
    code = run(["solve", EX2, "--c", "5,-1", "--b0", "0.2", "--horizon", "2",
                "--catalog", cat, "--x0", "0,0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CATALOG_HASH_MISMATCH"


def test_prune_resume_refuses_foreign_catalog(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "1",
                "--catalog", cat, "--threads", "1"]) == 0
    capsys.readouterr()
    code = run(["prune", EX2, "--c", "5,-1", "--b0", "0.2", "--horizon", "2",
                "--catalog", cat, "--resume", "--threads", "1"])
    assert code == 3


def test_prune_resume_extends(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "1",
                "--catalog", cat, "--threads", "1"]) == 0
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "3",
                "--catalog", cat, "--resume", "--threads", "1"]) == 0
    capsys.readouterr()
    stored = json.loads(open(cat).read())
    assert set(stored["levels"]) == {"1", "2", "3"}


def test_prune_resume_to_a_shorter_horizon(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "4",
                "--catalog", cat, "--threads", "1"]) == 0
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "2",
                "--catalog", cat, "--resume", "--threads", "1"]) == 0
    capsys.readouterr()
    stored = json.loads(open(cat).read())
    assert stored["N"] == 2
    assert set(stored["levels"]) == set(stored["witnesses"]) == {"1", "2"}
    for key in ("screened", "warm", "appended"):
        assert set(stored["meta"][key]) == {"1", "2"}


def test_resume_summary_counts_only_this_runs_probes(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    args = ["prune", EX2, *LINFLAGS, "--catalog", cat, "--threads", "1"]
    assert run([*args, "--horizon", "4"]) == 0
    # levels 1-4 are stored: a resume to horizon 2 probes nothing
    assert run([*args, "--horizon", "2", "--resume"]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "0 probes, 0 settled by a witness (0 extended, 0 appended); "
        "0 candidates screened")
    # levels 1-2 are stored: a resume to horizon 5 probes levels 3-5, the
    # counts of a straight horizon-5 prune (35 probes) less those of 1-2
    assert run([*args, "--horizon", "5", "--resume"]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "27 probes, 27 settled by a witness (21 extended, 6 appended); "
        "36 candidates screened")


def test_prune_resume_keeps_level_counts(tmp_path, capsys):
    straight, resumed = (str(tmp_path / f"{name}.json")
                         for name in ("straight", "resumed"))
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "5",
                "--catalog", straight, "--threads", "1"]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "35 probes, 32 settled by a witness (24 extended, 8 appended); "
        "40 candidates screened")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "3",
                "--catalog", resumed, "--threads", "1"]) == 0
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "5",
                "--catalog", resumed, "--resume", "--threads", "1"]) == 0
    capsys.readouterr()
    want, got = (json.loads(open(path).read())
                 for path in (straight, resumed))
    assert got["levels"] == want["levels"]
    assert got["meta"]["screened"] == want["meta"]["screened"]
    # the file carries the level-3 witnesses: level 4 starts as it would
    assert got["meta"]["warm"] == want["meta"]["warm"]
    assert got["meta"]["appended"] == want["meta"]["appended"]
    assert got["witnesses"] == want["witnesses"]


# edits of a stored ex2 N=2 catalog that a resumed prune must refuse: a
# level-2 witness of another length than 2 + n, counts that are no map
RESUME_MALFORMED = {
    "witnesses-empty": lambda obj: {**obj, "witnesses": {
        **obj["witnesses"], "2": [[] for _ in obj["witnesses"]["2"]]}},
    "meta-count-int": lambda obj: {**obj, "meta": {"screened": 5}},
    "meta-count-negative": lambda obj: {**obj, "meta": {
        **obj["meta"], "warm": {"1": -1}}},
    "meta-count-past-N": lambda obj: {**obj, "meta": {
        **obj["meta"], "appended": {"3": 0}}},
}


@pytest.mark.parametrize("edit", RESUME_MALFORMED.values(),
                         ids=RESUME_MALFORMED.keys())
def test_resume_from_malformed_catalog_is_schema_error(tmp_path, capsys,
                                                       edit):
    cat = tmp_path / "cat.json"
    args = ["prune", EX2, *LINFLAGS, "--catalog", str(cat), "--threads", "1"]
    assert run([*args, "--horizon", "2"]) == 0
    obj = json.loads(cat.read_text())
    assert obj["witnesses"]["2"] and all(obj["witnesses"]["2"])
    cat.write_text(json.dumps(edit(obj)))
    capsys.readouterr()
    assert run([*args, "--horizon", "3", "--resume"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SCHEMA" and err["message"]


def test_infeasible_solve_exit_code(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    run(["prune", EX2, *LINFLAGS, "--horizon", "1", "--catalog", cat,
         "--threads", "1"])
    capsys.readouterr()
    code = run(["simulate", EX2, *LINFLAGS, "--horizon", "1",
                "--catalog", cat, "--x0", "1.95,1.95", "--steps", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "INFEASIBLE_STATE"
    # the message says where the closed loop failed: at step 0, from x0
    assert err["message"].startswith("closed-loop step 0, state [1.95, 1.95]")


def test_zero_state_weight_has_no_terminal_level(capsys):
    # q = 0 gives a Riccati cost P = 0, whose sublevel sets are unbounded
    assert run(["terminal", EX2, "--c", "5,-1", "--q", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NO_POSITIVE_LEVEL"
    assert "not positive definite" in err["message"]


def test_zero_state_weight_polytope_terminal_is_refused(capsys):
    # q = 0 gives P = 0 and kappa = 0, so the closed loop is A_hat itself,
    # with an eigenvalue of modulus 1.1: no finite determination
    t0 = time.perf_counter()
    assert run(["terminal", EX3, "--c", "5,-1", "--q", "0"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NO_FINITE_DETERMINATION"
    assert "spectral radius 1.1" in err["message"]


def test_solve_specific_scenario(tmp_path, capsys):
    cat = str(tmp_path / "cat.json")
    run(["prune", EX2, *LINFLAGS, "--horizon", "2", "--catalog", cat,
         "--threads", "1"])
    capsys.readouterr()
    assert run(["solve", EX2, *LINFLAGS, "--horizon", "2", "--catalog", cat,
                "--x0", "0,0", "--scenario", "1"]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["j"] == 1 and sol["status"] == "Optimal"


def test_threads_fallback_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NMPC_THREADS", "1")
    cat = str(tmp_path / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "1",
                "--catalog", cat]) == 0
    capsys.readouterr()
    stored = json.loads(open(cat).read())
    assert stored["meta"]["n_workers"] == 1


def test_repro_ex1_short_horizon(capsys):
    assert run(["repro", "ex1", "--horizon", "3", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "beta" in out and "PASS" in out
    # counts are not comparable away from the reference horizon
    assert "N-A" in out


@pytest.fixture(scope="module")
def ex2_catalog_n3_file(tmp_path_factory):
    cat = str(tmp_path_factory.mktemp("catalog") / "cat.json")
    assert run(["prune", EX2, *LINFLAGS, "--horizon", "3",
                "--catalog", cat, "--threads", "1"]) == 0
    return cat


def test_solve_prints_the_applied_candidate(ex2_catalog_n3_file, capsys):
    # candidates j = 2 and 5 are Infeasible here; j = 14 is applied
    args = ["solve", EX2, *LINFLAGS, "--horizon", "3",
            "--catalog", ex2_catalog_n3_file, "--x0=-0.9,0.8"]
    capsys.readouterr()
    assert run(args) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["j"] == 14 and sol["status"] == "Optimal"
    assert run(args + ["--all-feasible"]) == 0
    sols = json.loads(capsys.readouterr().out)
    assert [(s["j"], s["status"]) for s in sols] == [
        (2, "Infeasible"), (5, "Infeasible"), (14, "Optimal")]


def test_solve_outside_every_region(ex2_catalog_n3_file, capsys):
    capsys.readouterr()
    assert run(["solve", EX2, *LINFLAGS, "--horizon", "3",
                "--catalog", ex2_catalog_n3_file, "--x0=5,5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "INFEASIBLE_STATE"


def test_every_command_reads_the_requested_horizon(ex2_catalog_n3_file,
                                                   capsys):
    # an N=3 catalog read at horizons 2 and 3: solve, simulate and grid
    # each use the level of the horizon asked for
    base = [EX2, *LINFLAGS, "--catalog", ex2_catalog_n3_file]
    out = {}
    for horizon in ("2", "3"):
        argv = [*base, "--horizon", horizon]
        capsys.readouterr()
        assert run(["solve", *argv, "--x0", "0.5,0.1"]) == 0
        V = json.loads(capsys.readouterr().out)["V"]
        assert run(["simulate", *argv, "--x0", "0.5,0.1",
                    "--steps", "2"]) == 0
        traj = capsys.readouterr().out.splitlines()
        assert run(["grid", *argv, "--resolution", "9",
                    "--threads", "1"]) == 0
        out[horizon] = V, traj, capsys.readouterr().out
        # the first closed-loop step applies what solve reports
        assert traj[0] == "k,x1,x2,u,v,V,j_star"
        assert float(traj[1].split(",")[5]) == V
    assert out["2"][0] != out["3"][0]
    assert out["2"][1] != out["3"][1]
    assert out["2"][2] != out["3"][2]


@pytest.mark.parametrize("argv, nmpc_threads", [
    (["linearize", EX2, "--c", "5,x"], "1"),
    (["linearize", EX2, "--c", "5,-1,3"], "1"),
    (["linearize", EX2, *LINFLAGS, "--a", "1"], "1"),
    (["prune", EX2, *LINFLAGS, "--horizon", "1", "--catalog", "NEW",
      "--threads", "-2"], "1"),
    (["prune", EX2, *LINFLAGS, "--horizon", "1", "--catalog", "NEW"], "abc"),
    (["validate", EX2, "--samples", "0"], "1"),
    (["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG",
      "--x0=0.1"], "1"),
    (["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG",
      "--x0=a,b"], "1"),
    (["simulate", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG",
      "--x0", "0,0", "--steps", "-1"], "1"),
    (["grid", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG",
      "--resolution", "1"], "1"),
    # errors of the argument parser itself
    (["prune", EX2, *LINFLAGS, "--horizon", "1", "--catalog", "NEW",
      "--threads", "abc"], "1"),
    (["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG"],
     "1"),
    # flags that these subcommands took and ignored: --out wrote no file
    (["validate", EX2, "--out", "OUT"], "1"),
    (["prune", EX2, *LINFLAGS, "--horizon", "1", "--catalog", "NEW",
      "--out", "OUT"], "1"),
    (["validate", EX2, "--q", "1"], "1"),
    (["simulate", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG",
      "--x0", "0.2,0.2", "--steps", "1", "--kkt-tol", "1e-8"], "1"),
    # values the pipeline cannot take: they failed with a traceback
    (["terminal", EX2, "--c", "5,-1", "--rho", "0"], "1"),
    (["terminal", EX2, "--c", "5,-1", "--rho", "-1"], "1"),
    (["terminal", EX2, "--c", "5,-1", "--b0", "0"], "1"),
    (["linearize", EX2, "--beta-target", "0"], "1"),
], ids=["c-not-numeric", "c-length", "a-length", "threads-negative",
        "env-threads-not-integer", "samples-zero", "x0-length",
        "x0-not-numeric", "steps-negative", "resolution-one",
        "threads-not-integer", "x0-missing", "validate-out", "prune-out",
        "validate-q", "simulate-kkt-tol", "rho-zero", "rho-negative",
        "b0-zero", "beta-target-zero"])
def test_bad_input_is_schema_error(ex2_catalog_n3_file, tmp_path, monkeypatch,
                                   capsys, argv, nmpc_threads):
    monkeypatch.setenv("NMPC_THREADS", nmpc_threads)
    paths = {"CATALOG": ex2_catalog_n3_file, "NEW": str(tmp_path / "new"),
             "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in argv]
    capsys.readouterr()
    assert run(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SCHEMA"
    assert not any(tmp_path.iterdir())


def _with(key, value):
    return lambda obj: {**obj, key: value}


def _with_level(key, seqs):
    return lambda obj: {**obj, "levels": {**obj["levels"], key: seqs}}


# edits of a stored N=3 catalog (ex2, 3 regions) that make it malformed
MALFORMED = {
    "file-list": lambda obj: [obj],
    "no-levels": lambda obj: {k: v for k, v in obj.items() if k != "levels"},
    "no-s": lambda obj: {k: v for k, v in obj.items() if k != "s"},
    "N-text": _with("N", "3"),
    "s-bool": _with("s", True),
    "tol-null": _with("tol", None),
    "levels-list": _with("levels", [[[1]]]),
    "level-text": _with_level("1", "1"),
    "entry-float": _with_level("3", [[1, 1, 1.0]]),
    "entry-text": _with_level("3", [[1, 1, "a"]]),
    "entry-zero": _with_level("2", [[0, 1]]),
    "entry-above-s": _with_level("2", [[1, 4]]),
    "short-sequence": _with_level("3", [[1, 1]]),
    "level-missing": lambda obj: {**obj, "levels": {
        k: v for k, v in obj["levels"].items() if k != "2"}},
    "level-past-N": _with_level("4", []),
    "witnesses-short": lambda obj: {**obj, "witnesses": {
        **obj["witnesses"], "3": obj["witnesses"]["3"][:-1]}},
    "witnesses-text": _with("witnesses", {"3": "no"}),
    "witness-text": lambda obj: {**obj, "witnesses": {
        "1": ["no"] * len(obj["levels"]["1"])}},
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_catalog_is_schema_error(ex2_catalog_n3_file, tmp_path,
                                           capsys, edit):
    obj = json.loads(open(ex2_catalog_n3_file).read())
    assert len(obj["witnesses"]["3"]) == len(obj["levels"]["3"]) > 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(obj)))
    capsys.readouterr()
    assert run(["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog",
                str(path), "--x0", "0.5,0.1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SCHEMA" and err["message"]
    assert run(["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog",
                ex2_catalog_n3_file, "--x0", "0.5,0.1"]) == 0


_LIN = {"--c", "--beta-target", "--b0", "--a"}
_TERMINAL = _LIN | {"--q", "--rho", "--terminal", "--seed"}
# each subcommand's options: exactly the flags its command reads
OPTIONS = {
    "validate": {"--seed", "--samples"},
    "linearize": _LIN | {"--out"},
    "stagesets": _LIN | {"--seed", "--out", "--resolution"},
    "terminal": _TERMINAL | {"--out", "--check-axioms", "--samples"},
    "prune": _TERMINAL | {"--feas-tol", "--threads", "--horizon", "--catalog",
                          "--resume"},
    "solve": _TERMINAL | {"--feas-tol", "--kkt-tol", "--out", "--horizon",
                          "--catalog", "--x0", "--scenario", "--all-feasible"},
    "simulate": _TERMINAL | {"--feas-tol", "--out", "--horizon", "--catalog",
                             "--x0", "--steps"},
    "grid": _TERMINAL | {"--feas-tol", "--threads", "--out", "--horizon",
                         "--catalog", "--resolution", "--per-scenario"},
    "repro": {"--system", "--horizon", "--threads", "--catalog"},
}
# the flags most pipeline subcommands share: a subcommand takes only those
# its command reads, and any other is an unknown flag
COMMON = _TERMINAL | {"--feas-tol", "--kkt-tol", "--threads", "--out"}


def _subcommand_options():
    sub = next(action for action in make_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {opt for action in p._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_only_the_flags_it_reads():
    options = _subcommand_options()
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 87


def test_flags_a_subcommand_does_not_read_are_unknown(capsys):
    # every dropped pair, with the subcommand's required flags given
    required = {"solve": ["--x0", "0,0"], "simulate": ["--x0", "0,0"],
                "grid": ["--resolution", "3"]}
    dropped = [(name, flag) for name, opts in OPTIONS.items()
               if name != "repro" for flag in sorted(COMMON - opts)]
    assert len(dropped) == 33
    for name, flag in dropped:
        capsys.readouterr()
        assert run([name, EX2, *required.get(name, []), flag, "1"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SCHEMA"
        assert f"unrecognized arguments: {flag} 1" in err["message"]


def test_linearize_builds_no_stage_sets(tmp_path, capsys):
    # the gain changes sign inside the region: no stage set exists, but the
    # linearization does
    g = cn.Quadratic(-np.eye(2), np.zeros(2), 0.5)
    spec = toy_spec(np.array([[0.9, 0.1], [0.0, 0.8]]), [0.1, 0.2], g=g,
                    sign=1)
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(system_to_dict(spec)))
    flags = ["--beta-target", "1", "--b0", "1"]
    assert run(["stagesets", str(path), *flags]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "SIGN_AMBIGUOUS"
    assert run(["linearize", str(path), *flags]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == pytest.approx(1.0)
