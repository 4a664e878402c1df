"""Continuum functionals on discretized occupancy profiles.

Profiles are piecewise-constant functions on a uniform grid of [0, 1] with
values in [0, 1]; the functionals are the shifted binary entropy rate
H(f) = mean(hbin(f_i)), the kernel quadratic form xi(f) = f.K.f / m^2 and
the particle density N(f) = mean(f), together with their gradients.  xi is
the lattice energy's form: the kernel row dotted with the pair sums of f.
A profile has no boundary flag; the boundary belongs to the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import matmul_toeplitz

from .potential import KernelMatrix, lag_sums

LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class OccupancyProfile:
    """Occupancy density sampled on m uniform cells of [0, 1]."""

    m: int
    values: np.ndarray


def make_profile(values) -> OccupancyProfile:
    """Validate and freeze a profile; values must lie in [0, 1], m >= 2."""
    vals = np.asarray(values, dtype=float).copy()
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("a profile needs at least two cells")
    if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN fails both comparisons
        raise ValueError("profile values must lie in [0, 1]")
    vals.flags.writeable = False
    return OccupancyProfile(m=vals.size, values=vals)


def constant_profile(m: int, value: float) -> OccupancyProfile:
    return make_profile(np.full(m, float(value)))


def indicator_profile(m: int, intervals) -> OccupancyProfile:
    """Cell-averaged indicator of a union of intervals of [0, 1].

    Edge cells that straddle an interval boundary get the overlap fraction,
    so the profile mean equals the total interval length exactly.
    """
    vals = np.zeros(m)
    edges = np.arange(m + 1) / m
    for a, b in intervals:
        lo = np.maximum(edges[:-1], a)
        hi = np.minimum(edges[1:], b)
        vals += m * np.maximum(hi - lo, 0.0)
    return make_profile(np.clip(vals, 0.0, 1.0))


def hbin(t):
    """Shifted binary entropy t log t + (1-t) log(1-t) + log 2.

    Uses the limit convention 0 log 0 = 0 and returns +inf outside [0, 1].
    Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.full(arr.shape, np.inf)
    ok = (arr >= 0.0) & (arr <= 1.0)
    a = arr[ok]
    with np.errstate(divide="ignore", invalid="ignore"):
        xlx = np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)
        ylx = np.where(a < 1.0, (1.0 - a) * np.log(np.where(a < 1.0, 1.0 - a, 1.0)), 0.0)
    out[ok] = xlx + ylx + LOG2
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(t))


def hbin_prime(t):
    """Derivative log(t / (1 - t)) of hbin on (0, 1)."""
    arr = np.asarray(t, dtype=float)
    return np.log(arr) - np.log1p(-arr)


def entropy_H(f: OccupancyProfile) -> float:
    """Grid entropy rate (1/m) sum hbin(f_i); +inf if any value escapes [0, 1]."""
    return float(np.mean(hbin(f.values)))


def xi(f: OccupancyProfile, K: KernelMatrix) -> float:
    """Kernel quadratic form (1/m^2) f.K.f, from the kernel row."""
    _check_sizes(f, K)
    return float(lag_sums(f.values) @ K.row) / (f.m * f.m)


def density_N(f: OccupancyProfile) -> float:
    """Mean occupancy."""
    return float(f.values.mean())


def apply_kernel(K: KernelMatrix, f: OccupancyProfile) -> np.ndarray:
    """The smoothed field (1/m) K f, i.e. the kernel operator applied to f.

    The table is the symmetric Toeplitz matrix of the row, so the product is
    an FFT convolution with the row and no m x m table is built.
    """
    _check_sizes(f, K)
    return matmul_toeplitz((K.row, K.row), f.values) / f.m


def gradients(f: OccupancyProfile, K: KernelMatrix):
    """Gradients of entropy_H and xi with respect to the cell values.

    Requires an interior profile (values strictly inside (0, 1)); boundary
    values make the entropy gradient blow up and raise a ValueError.
    """
    _check_sizes(f, K)
    v = f.values
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError("entropy gradient undefined at boundary values 0/1")
    grad_h = hbin_prime(v) / f.m
    grad_xi = 2.0 * apply_kernel(K, f) / f.m
    return grad_h, grad_xi


def block_average(values: np.ndarray, m_new: int) -> np.ndarray:
    """Block-average (or repeat) a cell vector onto m_new cells.

    The grids must be nested: one size must divide the other.
    """
    if m_new < 1:
        raise ValueError(f"a grid needs at least one cell, got {m_new}")
    vals = np.asarray(values, dtype=float)
    m = vals.size
    if m_new == m:
        return vals.copy()
    if m_new < m and m % m_new == 0:
        return vals.reshape(m_new, -1).mean(axis=1)
    if m_new > m and m_new % m == 0:
        return np.repeat(vals, m_new // m)
    raise ValueError(f"grids {m} and {m_new} are not nested")


def _check_sizes(f: OccupancyProfile, K: KernelMatrix):
    if f.m != K.m:
        raise ValueError(f"profile grid {f.m} does not match kernel grid {K.m}")


# --- CSV records ------------------------------------------------------------

FLOAT_FORMAT = ".12g"  # every float a record or a CLI line shows


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row: floats at 12 significant
    digits, booleans as true/false, ints and strings unchanged."""
    lines = [header] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):  # numpy's float64 too
        return format(v, FLOAT_FORMAT)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def profile_to_csv(f: OccupancyProfile) -> str:
    """CSV text with columns cell_center,value."""
    centers = (np.arange(f.m) + 0.5) / f.m
    return csv_text("cell_center,value", zip(centers.tolist(), f.values.tolist()))


def profile_from_csv(text: str) -> OccupancyProfile:
    """Read profile_to_csv's text back; row i must be centred on cell i of m."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0].strip() != "cell_center,value":
        raise ValueError("profile CSV must start with a cell_center,value header")
    cells = [ln.partition(",") for ln in rows[1:]]
    m = len(cells)
    for i, (center, _, _) in enumerate(cells):
        if not abs(float(center) - (i + 0.5) / m) <= 0.25 / m:  # NaN fails too
            raise ValueError(f"row {i + 1}: cell_center {center} is off cell {i + 1} of {m}")
    return make_profile([float(value) for _, _, value in cells])
