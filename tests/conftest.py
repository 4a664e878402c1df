"""Shared fixtures and helpers: the reference interaction, the three canonical
solves, a strategy of potentials and a traced-memory probe."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
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

# all three potential kinds, tabulated knots on a 1/64 grid
POTENTIALS = st.one_of(
    st.builds(lg.Potential.power_plateau, st.floats(0.01, 0.99), st.floats(0.01, 100.0)),
    st.builds(lg.Potential.constant, st.floats(-100.0, 100.0)),
    st.builds(lg.Potential.tabulated,
              st.lists(st.integers(0, 64), min_size=2, max_size=6, unique=True).flatmap(
                  lambda ks: st.lists(st.floats(-10.0, 10.0), min_size=len(ks),
                                      max_size=len(ks)).map(
                      lambda vs: [(k / 64, v) for k, v in zip(sorted(ks), vs)]))),
)


def traced_peak_mb(fn) -> float:
    """The peak of the memory fn() holds while it runs, in MB, as tracemalloc traces it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


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
