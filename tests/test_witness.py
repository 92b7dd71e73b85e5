"""Prune probes started from their tails' witnesses.

A probe whose start (the tail's witness extended by one step) has every
constraint below -1e-6 is settled with no Newton step; any other runs phase
I from its cold hint. Catalogs must equal those of cold probes level for
level, every kept witness must be strictly feasible by the plain constraint
oracles, and nonconvex data or a singular A_hat must take the cold path.
"""
import numpy as np
import pytest

import convexnmpc as cn
import convexnmpc.scenario as scenario_module
import convexnmpc.solver as solver_module


def _prune(data, N, **kwargs):
    return cn.prune_catalog(data["spec"], data["lin"], data["zsets"],
                            data["terminal"], N, **kwargs)


def _program(data, coeffs):
    return cn.assemble(coeffs, None, data["spec"], data["lin"],
                       data["zsets"], data["terminal"],
                       Q=np.eye(data["spec"].n), rho=1.0)


@pytest.mark.parametrize("name, N", [("ex1", 15), ("ex2", 6), ("ex3", 4)])
def test_prune_equals_cold_prune(request, monkeypatch, name, N):
    data = request.getfixturevalue(name)
    warm = _prune(data, N)
    monkeypatch.setattr(solver_module.Screen, "extend",
                        lambda self, i, witness: None)
    cold = _prune(data, N)
    assert warm.levels == cold.levels
    assert warm.meta["screened"] == cold.meta["screened"]
    assert set(cold.meta["warm"].values()) == {0}
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
        feasible, witness, settled = probes[seq]
        assert feasible
        worst = np.max(_program(data, seq).constraint_values(witness))
        assert worst < (-1e-6 if settled else 0.0)
    settled = sum(out[2] for out in probes.values())
    assert settled == sum(catalog.meta["warm"].values())


def test_ex2_n15_counts(ex2_catalog_n15):
    catalog = ex2_catalog_n15
    levels, meta = catalog.levels, catalog.meta
    probes = sum(catalog.s * len(levels.get(k - 1, ((),))) for k in levels)
    probes -= sum(meta["screened"].values())
    assert probes == 255
    assert meta["warm"] == {"1": 0, "2": 3, "3": 5, "4": 7, "5": 9, "6": 11,
                            "7": 13, "8": 15, "9": 17, "10": 19, "11": 19,
                            "12": 21, "13": 21, "14": 21, "15": 21}
    assert probes - sum(meta["warm"].values()) == 53  # phase-I probes


def test_start_that_fails_the_test_is_cold(ex2):
    prog = _program(ex2, (2, 1, 1))
    cold = cn.solve_feasibility(prog)
    for start in (np.full(prog.n_vars, 10.0), None):
        got = cn.solve_feasibility(prog, start=start)
        assert got[:2] == cold[:2]
        assert np.array_equal(got[2], cold[2])


def test_nonconvex_program_ignores_a_feasible_start(ex1):
    prog = _program(ex1, (1, 1, 1))
    assert prog.nonconvex_data
    cold = cn.solve_feasibility(prog)
    start = cold[2].copy()
    assert np.max(prog.constraint_values(start)) < -1e-6
    got = cn.solve_feasibility(prog, start=start)
    assert got[2] is not start
    assert got[:2] == cold[:2]
    assert np.array_equal(got[2], cold[2])


def test_singular_a_hat_takes_the_cold_path():
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
    screen = solver_module.infeasibility_screen(lin, zsets)
    assert screen.extend(1, np.zeros(3)) is None
    catalog = cn.prune_catalog(spec, lin, zsets, term, 3)
    assert catalog.count(3) > 0
    assert set(catalog.meta["warm"].values()) == {0}
