"""Prune probes started from the witnesses of the level below.

A probe tests two starts, its tail's witness extended by a first step and
its prefix's witness with the terminal controller's input appended; the
first with every constraint below -1e-6 settles it with no Newton step, and
with neither it runs phase I from its cold hint. Catalogs must equal those
of cold probes level for level, every kept witness must be strictly
feasible by the plain constraint oracles, nonconvex data must take the cold
path, and the catalog file must carry the witnesses to a resumed prune.
Under the probes, phase I takes constraints and ordered starts: the first
start that passes its rule's hint test is its point, as it is.
"""
import pathlib

import numpy as np
import pytest

import convexnmpc as cn
import convexnmpc.scenario as scenario_module
import convexnmpc.solver as solver_module
from convexnmpc.stagesets import Constraints


def _prune(data, N, **kwargs):
    return cn.prune_catalog(data["spec"], data["lin"], data["zsets"],
                            data["terminal"], N, **kwargs)


def _program(data, coeffs):
    return cn.assemble(coeffs, None, data["lin"],
                       data["zsets"], data["terminal"],
                       Q=np.eye(data["spec"].n), rho=1.0)


def _cold(monkeypatch):
    """Give every probe no start: both start sources off."""
    monkeypatch.setattr(scenario_module, "starts", lambda *args: {})


@pytest.mark.parametrize("name, N", [("ex1", 15), ("ex2", 6), ("ex3", 4)])
def test_prune_equals_cold_prune(request, monkeypatch, name, N):
    data = request.getfixturevalue(name)
    warm = _prune(data, N)
    _cold(monkeypatch)
    cold = _prune(data, N)
    assert warm.levels == cold.levels
    assert warm.meta["screened"] == cold.meta["screened"]
    assert set(cold.meta["warm"].values()) == {0}
    assert set(cold.meta["appended"].values()) == {0}
    assert warm.meta["warm"]["1"] == 0
    settled = sum(warm.meta["warm"].values())
    if name == "ex1":  # nonconvex data: every probe is cold
        assert settled == 0
    else:
        assert settled > 0


@pytest.mark.parametrize("name, N", [("ex2", 15), ("ex3", 4)])
def test_every_witness_is_strictly_feasible(request, monkeypatch, name, N):
    data = request.getfixturevalue(name)
    probe, probes = scenario_module._candidate_feasible, {}

    def recording(item, *args):
        probes[item[0]] = out = probe(item, *args)
        return out

    monkeypatch.setattr(scenario_module, "_candidate_feasible", recording)
    catalog = _prune(data, N)
    survivors = [seq for seqs in catalog.levels.values() for seq in seqs]
    for seq in survivors:
        feasible, witness, start = probes[seq]
        assert feasible
        worst = np.max(_program(data, seq).constraint_values(witness))
        assert worst < (-1e-6 if start is not None else 0.0)
    starts = [out[2] for out in probes.values() if out[2] is not None]
    assert len(starts) == sum(catalog.meta["warm"].values())
    assert starts.count("appended") == sum(catalog.meta["appended"].values())


def test_ex2_n15_counts(ex2_catalog_n15):
    catalog = ex2_catalog_n15
    levels, meta = catalog.levels, catalog.meta
    probes = sum(catalog.s * len(levels.get(k - 1, ((),))) for k in levels)
    probes -= sum(meta["screened"].values())
    assert probes == 255
    assert meta["warm"] == {"1": 0, "2": 5, "3": 7, "4": 9, "5": 11, "6": 13,
                            "7": 15, "8": 17, "9": 19, "10": 21, "11": 21,
                            "12": 25, "13": 25, "14": 27, "15": 29}
    assert meta["appended"] == {"1": 0, "2": 2, "3": 2, "4": 2, "5": 2,
                                "6": 2, "7": 2, "8": 2, "9": 2, "10": 2,
                                "11": 2, "12": 4, "13": 4, "14": 6, "15": 8}
    assert sum(meta["warm"].values()) - sum(meta["appended"].values()) == 202
    assert probes - sum(meta["warm"].values()) == 11  # phase-I probes


def test_start_that_fails_the_test_is_cold(ex2):
    prog = _program(ex2, (2, 1, 1))
    cold = cn.solve_feasibility(prog)
    failing = np.full(prog.n_vars, 10.0)
    for starts in ((failing,), (failing, failing.copy()), ()):
        got = cn.solve_feasibility(prog, starts=starts)
        assert got[:2] == cold[:2]
        assert np.array_equal(got[2], cold[2])


def test_first_passing_start_settles(ex2):
    prog = _program(ex2, (2, 1, 1))
    feasible = cn.solve_feasibility(prog)[2].copy()
    assert np.max(prog.constraint_values(feasible)) < -1e-6
    failing = np.full(prog.n_vars, 10.0)
    got = cn.solve_feasibility(prog, starts=(failing, feasible))
    assert got[0] and got[2] is feasible
    assert got[1] == float(np.max(prog.constraint_values(feasible)))


def _phase1(cons, starts, head=False):
    """(z, t, low, Newton steps) of phase I on cons from the starts."""
    cfg = cn.SolverConfig()
    work = solver_module._Work(cfg)
    z, t, low = solver_module._phase1(cons, starts, cfg, work, head=head)
    return z, t, low, work.steps


def test_phase1_tries_its_starts_in_order(ex2):
    prog = _program(ex2, (2, 1, 1))
    feasible = cn.solve_feasibility(prog)[2].copy()
    other = feasible.copy()
    failing = np.full(prog.n_vars, 10.0)
    # the first passing start comes back as that object, with no step
    for head in (False, True):
        z, t, low, steps = _phase1(prog.cons, (failing, feasible, other),
                                   head)
        assert z is feasible and steps == 0 and low == -np.inf
        assert t == float(np.max(prog.constraint_values(feasible)))
    # with none passing, phase I runs from the last start alone
    hint = prog.z0_hint
    alone = _phase1(prog.cons, (hint,))
    assert alone[3] > 0
    got = _phase1(prog.cons, (failing, failing.copy(), hint))
    assert got[0].tobytes() == alone[0].tobytes()
    assert got[1:] == alone[1:]


def test_head_and_probe_hint_rules_differ():
    # every row of z below feas_tol but its worst above -HINT_MARGIN
    cons = Constraints.of(2, 1, rows=np.eye(2), offsets=np.zeros(2))
    z = np.array([-1e-8, -0.5])
    worst = float(np.max(cons.rows @ z - cons.offsets))
    assert -solver_module.HINT_MARGIN <= worst < cn.SolverConfig().feas_tol
    got, t, _, steps = _phase1(cons, (z,), head=True)
    assert got is z and t == worst and steps == 0
    got, t, _, steps = _phase1(cons, (z,))
    assert got is not z and steps > 0
    assert t < -solver_module.STRICT_MARGIN


def test_nonconvex_program_ignores_a_feasible_start(ex1):
    prog = _program(ex1, (1, 1, 1))
    assert prog.nonconvex_data
    cold = cn.solve_feasibility(prog)
    start = cold[2].copy()
    assert np.max(prog.constraint_values(start)) < -1e-6
    got = cn.solve_feasibility(prog, starts=(start,))
    assert got[2] is not start
    assert got[:2] == cold[:2]
    assert np.array_equal(got[2], cold[2])


def test_singular_a_hat_takes_the_cold_path(monkeypatch):
    # x1+ = x2, x2+ = u: A_hat = A has no inverse
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    C = np.vstack([np.eye(2), -np.eye(2)])
    spec = cn.SystemSpec(A=A, b=np.array([0.0, 1.0]),
                         g=cn.Affine(np.zeros(2), 1.0),
                         regions=((cn.Polytope(C, np.ones(4)), 1),
                                  (cn.Polytope(C, [3.0, 1.0, -1.0, 1.0]), 1)),
                         u_lo=-1.0, u_hi=1.0)
    lin = cn.build_linearization(spec, np.array([1.0, 0.0]), b0=1.0)
    zsets = cn.build_stage_sets(spec, lin)
    term = cn.build_terminal(spec, lin, zsets, 0.5 * np.eye(2), 1.0,
                             kind="ellipsoid")
    made, starts = [], scenario_module.starts

    def recorded(*args):
        made.append(starts(*args))
        return made[-1]

    monkeypatch.setattr(scenario_module, "starts", recorded)
    catalog = cn.prune_catalog(spec, lin, zsets, term, 3)
    assert catalog.count(3) > 0
    # no probe gets an extended start; the appended one needs no inverse
    assert not any("extended" in out for out in made)
    assert any("appended" in out for out in made)
    assert catalog.meta["warm"] == catalog.meta["appended"]
    _cold(monkeypatch)
    cold = cn.prune_catalog(spec, lin, zsets, term, 3)
    assert catalog.levels == cold.levels
    assert catalog.meta["screened"] == cold.meta["screened"]


def test_witnesses_round_trip_the_file(ex2, tmp_path):
    catalog = _prune(ex2, 5)
    assert catalog.witnesses.keys() == catalog.levels.keys()
    path = tmp_path / "cat.json"
    catalog.save(path)
    loaded = cn.FeasibleCatalog.load(path)
    assert loaded.levels == catalog.levels
    assert loaded.witnesses.keys() == catalog.witnesses.keys()
    for level, witnesses in catalog.witnesses.items():
        assert loaded.witnesses[level].keys() == witnesses.keys()
        for seq, w in witnesses.items():
            assert loaded.witnesses[level][seq].tobytes() == w.tobytes()
    assert loaded.to_dict() == catalog.to_dict()


def test_file_without_witnesses_loads():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "data"
    for name, count in (("ex2", 31), ("ex3", 221)):
        catalog = cn.FeasibleCatalog.load(path / f"{name}_N15_catalog.json")
        assert catalog.count() == count
        assert catalog.witnesses == {}
        assert catalog.to_dict()["witnesses"] == {}
