import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import convexnmpc as cn

PACKAGED = pathlib.Path(cn.__file__).parent / "data"

PAPER_C = np.array([5.0, -1.0])
PAPER_B0 = 0.1
Q_DIAG = 0.05


def _pipeline(name):
    spec = cn.load_system(PACKAGED / f"{name}.json")
    lin = cn.build_linearization(spec, PAPER_C, b0=PAPER_B0)
    zsets = cn.build_stage_sets(spec, lin)
    Q = Q_DIAG * np.eye(spec.n)
    rho = 0.1 * PAPER_B0 ** 2 / lin.beta ** 2
    term = cn.build_terminal(spec, lin, zsets, Q, rho)
    return dict(spec=spec, lin=lin, zsets=zsets, Q=Q, rho=rho, terminal=term)


@pytest.fixture(scope="session")
def ex1():
    return _pipeline("ex1")


@pytest.fixture(scope="session")
def ex2():
    return _pipeline("ex2")


@pytest.fixture(scope="session")
def ex3():
    return _pipeline("ex3")


@pytest.fixture(scope="session")
def ex2_catalog_n3(ex2):
    return cn.prune_catalog(ex2["spec"], ex2["lin"], ex2["zsets"],
                            ex2["terminal"], 3)


@pytest.fixture(scope="session")
def ex2_catalog_n15(ex2):
    return cn.prune_catalog(ex2["spec"], ex2["lin"], ex2["zsets"],
                            ex2["terminal"], 15)


@pytest.fixture(scope="session")
def ex3_catalog_n15(ex3):
    return cn.prune_catalog(ex3["spec"], ex3["lin"], ex3["zsets"],
                            ex3["terminal"], 15)
