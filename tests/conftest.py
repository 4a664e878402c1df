"""Shared fixtures: the reference interaction and the three canonical solves."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import latgas as lg

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# even without a database hypothesis caches the constants of the source files
# in its home directory, by default ./.hypothesis; keep that out of the tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "latgas-hypothesis")

RHO = 0.23
LAM = 7.0
XI_CURVE = LAM * RHO * RHO


@pytest.fixture(scope="session")
def pot_a2():
    return lg.Potential.power_plateau(0.5, 10.0)


@pytest.fixture(scope="session")
def kernel256(pot_a2):
    return lg.cell_kernel(pot_a2, 256)


@pytest.fixture(scope="session")
def solve_on_curve(pot_a2, kernel256):
    return lg.solve_entropy(pot_a2, XI_CURVE, RHO, m=256, kernel=kernel256)


@pytest.fixture(scope="session")
def solve_below(pot_a2, kernel256):
    return lg.solve_entropy(pot_a2, XI_CURVE - 0.02, RHO, m=256, kernel=kernel256)


@pytest.fixture(scope="session")
def solve_above(pot_a2, kernel256):
    return lg.solve_entropy(pot_a2, XI_CURVE + 0.02, RHO, m=256, kernel=kernel256)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240214)
