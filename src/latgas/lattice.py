"""Finite lattice occupancy configurations and their densities.

A configuration assigns 0/1 occupancy to the n^d sites of the rescaled cubic
lattice inside the unit cube.  The module evaluates the pair-energy density
(ordered pairs, diagonal included through psi at distance zero), the particle
density, the step-function occupancy profile, and the worst-case Riemann gap
between the lattice energy sum and the continuum kernel quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import OccupancyProfile, block_average, make_profile
from .potential import Potential, eval_psi, kernel_row, pair_row

SITE_CAP = 1 << 26


@dataclass(frozen=True, eq=False)
class LatticeConfig:
    """Occupancy bits on the n^d lattice, flattened in row-major site order."""

    d: int
    n: int
    occupancy: np.ndarray


def make_config(d: int, n: int, occupancy) -> LatticeConfig:
    if d < 1 or n < 1:
        raise ValueError("dimension and side length must be positive")
    sites = n ** d
    if sites > SITE_CAP:
        raise ValueError(f"n^d = {sites} exceeds the configured cap {SITE_CAP}")
    occ = np.asarray(occupancy).astype(np.uint8).ravel()
    if occ.size != sites:
        raise ValueError(f"occupancy length {occ.size} does not match n^d = {sites}")
    if np.any(occ > 1):
        raise ValueError("occupancy entries must be 0 or 1")
    occ.flags.writeable = False
    return LatticeConfig(d=d, n=n, occupancy=occ)


def particle_density(cfg: LatticeConfig) -> float:
    """Fraction of occupied sites (exact count divided as float)."""
    return float(int(cfg.occupancy.sum())) / float(cfg.n ** cfg.d)


def energy_density(cfg: LatticeConfig, pot: Potential, chunk: int = 2048) -> float:
    """Pair energy density n^(-2d) sum_{I,J} eta(I) eta(J) psi(|I-J|/n).

    Both ordered pairs are counted and the diagonal I = J enters through
    psi at distance zero.  Distances are Euclidean, or torus distances
    (per-coordinate minimum image) when the potential is periodic.
    """
    if pot.d != cfg.d:
        raise ValueError("potential dimension does not match the configuration")
    occ = np.flatnonzero(cfg.occupancy)
    if occ.size == 0:
        return 0.0
    coords = np.column_stack(np.unravel_index(occ, (cfg.n,) * cfg.d)).astype(float)
    total = 0.0
    for start in range(0, coords.shape[0], chunk):
        blk = coords[start:start + chunk]
        diff = np.abs(blk[:, None, :] - coords[None, :, :])
        if pot.periodic:
            diff = np.minimum(diff, cfg.n - diff)
        dist = np.sqrt((diff * diff).sum(axis=2)) / cfg.n
        total += float(np.sum(eval_psi(pot, dist)))
    return total / float(cfg.n) ** (2 * cfg.d)


def profile(cfg: LatticeConfig, m: int, periodic: bool = True) -> OccupancyProfile:
    """Block-average the 0/1 step profile onto m cells (d = 1 only).

    m must divide n or n must divide m; with m = n the raw bits come back.
    """
    if cfg.d != 1:
        raise ValueError("profiles are one dimensional")
    return make_profile(block_average(cfg.occupancy, m), periodic=periodic)


def riemann_discrepancy(n: int, pot: Potential) -> float:
    """Worst-case gap between lattice pair sums and cell-pair integrals.

    Returns sum_{I,J} |n^-2 psi(|I-J|/n) - integral over cell_I x cell_J|,
    which bounds |E_n(eta) - xi(f^eta)| uniformly over configurations.
    Both tables are Toeplitz in the site offset k, so the double sum is a
    weighted sum over offsets of |pair_row - kernel_row|: every offset
    occurs n times when periodic; with free boundaries k = 0 occurs n times
    and k > 0 occurs 2 (n - k) times.
    """
    if n > 4096:
        raise ValueError("n capped at 4096")
    gap = np.abs(pair_row(pot, n) - kernel_row(pot, n))
    if pot.periodic:
        weights = np.full(n, float(n))
    else:
        weights = 2.0 * (n - np.arange(n, dtype=float))
        weights[0] = n
    return float(weights @ gap) / (n * n)


# --- text round trip ------------------------------------------------------

def config_to_text(cfg: LatticeConfig) -> str:
    """Header line "d n" followed by the 0/1 site string."""
    bits = "".join("1" if b else "0" for b in cfg.occupancy)
    return f"{cfg.d} {cfg.n}\n{bits}\n"


def config_from_text(text: str) -> LatticeConfig:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected a header line and a bit string")
    d, n = (int(tok) for tok in lines[0].split())
    bits = [int(ch) for ch in lines[1]]
    return make_config(d, n, bits)
