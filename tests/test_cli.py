import json

import pytest

from convexnmpc.cli import run
from conftest import PACKAGED

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
    # the rollout hint is optimal at the origin, and a candidate alone in
    # its program shape takes no lockstep round
    assert "Newton steps: 0 in 0 lockstep rounds" in captured.err
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


@pytest.mark.parametrize("argv, nmpc_threads", [
    (["linearize", EX2, "--c", "5,x"], "1"),
    (["linearize", EX2, "--c", "5,-1,3"], "1"),
    (["linearize", EX2, *LINFLAGS, "--a", "1"], "1"),
    (["linearize", EX2, *LINFLAGS, "--threads", "-2"], "1"),
    (["linearize", EX2, *LINFLAGS], "abc"),
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
    (["linearize", EX2, *LINFLAGS, "--threads", "abc"], "1"),
    (["solve", EX2, *LINFLAGS, "--horizon", "3", "--catalog", "CATALOG"],
     "1"),
], ids=["c-not-numeric", "c-length", "a-length", "threads-negative",
        "env-threads-not-integer", "samples-zero", "x0-length",
        "x0-not-numeric", "steps-negative", "resolution-one",
        "threads-not-integer", "x0-missing"])
def test_bad_input_is_schema_error(ex2_catalog_n3_file, monkeypatch, capsys,
                                   argv, nmpc_threads):
    monkeypatch.setenv("NMPC_THREADS", nmpc_threads)
    argv = [ex2_catalog_n3_file if arg == "CATALOG" else arg for arg in argv]
    capsys.readouterr()
    assert run(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SCHEMA"
