"""Finite lattice occupancy configurations and their densities.

A configuration assigns 0/1 occupancy to a chain of n sites, the lattice
(1/n) Z rescaled into the unit interval.  The module evaluates the
pair-energy density (ordered pairs, diagonal included through psi at distance
zero), the particle density, the step-function occupancy profile, and the
worst-case Riemann gap between the lattice energy sum and the continuum
kernel quadratic form.  The energy is the Toeplitz form of xi, with the
lattice row :func:`potential.pair_row` in place of the kernel row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import OccupancyProfile, block_average, make_profile
from .potential import Potential, kernel_row, lag_sums, pair_row

@dataclass(frozen=True, eq=False)
class LatticeConfig:
    """Occupancy bits on a chain of n sites."""

    n: int
    occupancy: np.ndarray


def make_config(n: int, occupancy) -> LatticeConfig:
    if n < 1:
        raise ValueError("the number of sites must be positive")
    values = np.asarray(occupancy).ravel()
    if values.size != n:
        raise ValueError(f"occupancy length {values.size} does not match n = {n}")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("occupancy values must be 0 or 1")
    occ = values.astype(np.uint8)
    occ.flags.writeable = False
    return LatticeConfig(n=n, occupancy=occ)


def particle_density(cfg: LatticeConfig) -> float:
    """Fraction of occupied sites (exact count divided as float)."""
    return float(int(cfg.occupancy.sum())) / float(cfg.n)


def energy_density(cfg: LatticeConfig, pot: Potential) -> float:
    """Pair energy density n^-2 sum_{I,J} eta(I) eta(J) psi(|I-J|/n).

    Both ordered pairs are counted and the diagonal I = J enters through
    psi at distance zero; |I-J| is the torus distance.  The
    double sum is a sum over site offsets k of the number of occupied pairs
    k apart (:func:`lag_sums`) times :func:`pair_row`.  The counts are
    integers, so rounding them makes them exact.
    """
    n = cfg.n
    counts = np.rint(lag_sums(cfg.occupancy))
    return float(counts @ pair_row(pot, n)) / (n * n)


def profile(cfg: LatticeConfig, m: int) -> OccupancyProfile:
    """Block-average the 0/1 step profile onto m cells.

    m must divide n or n must divide m; with m = n the raw bits come back.
    """
    return make_profile(block_average(cfg.occupancy, m))


def riemann_discrepancy(n: int, pot: Potential) -> float:
    """Worst-case gap between lattice pair sums and cell-pair integrals.

    Returns sum_{I,J} |n^-2 psi(|I-J|/n) - integral over cell_I x cell_J|,
    which bounds |E_n(eta) - xi(f^eta)| uniformly over configurations.
    Both tables are circulant in the site offset k, so the double sum is the
    quadratic form of the row |pair_row - kernel_row| at the all-ones vector,
    whose pair sums count how often each offset occurs: n times.  The work
    is O(n), so n has no cap.
    """
    gap = np.abs(pair_row(pot, n) - kernel_row(pot, n))
    return float(np.full(n, float(n)) @ gap) / (n * n)
