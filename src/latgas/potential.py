"""Pair interaction potentials and their cell-averaged kernel matrices.

The package is one dimensional: a potential psi maps the pair distance t in
[0, 1] of the unit interval to an interaction strength.  Three kinds are
supported:

* ``power_plateau`` -- t**(-r) on (0, 1/4), a flat plateau M from 1/4 on,
  with psi(0) = 0 so that a site does not interact with itself.
* ``constant`` -- psi == J everywhere, including t = 0 (mean-field limit).
* ``tabulated`` -- linear interpolation through user-supplied (t, value)
  knots, clamped at the ends.

Boundaries are periodic: every potential is evaluated at the torus
distance, psi(t) = psi(1 - t), so only its values on [0, 1/2] are read: a
tabulated potential counts knots past t = 1/2 only through the segment that
crosses 1/2, and psi(t) for t > 1/2 is the interpolant at 1 - t.  Every pair
table is the symmetric circulant matrix of one stored offset row:
:func:`kernel_row` holds the cell-pair averages of psi that every continuum
functional is built on, :func:`pair_row` the values of psi at the lattice
site offsets.  A quadratic form of a table is its row dotted with the cyclic
pair sums :func:`lag_sums` of the vector and a product with the table is an
FFT Toeplitz product of the row, so no m x m table is stored; the solver
works on the half-size blocks of :attr:`KernelMatrix.folded` and picks its
seeds from the eigenvalues :attr:`KernelMatrix.spectrum`.  The integrated interaction (the
double integral of psi(|x - y|) over the unit square) and the kernel row
come from closed-form antiderivatives of the power-law, plateau and linear
segments, so neither carries quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

POWER_PLATEAU = "power_plateau"
CONSTANT = "constant"
TABULATED = "tabulated"

_KINDS = (POWER_PLATEAU, CONSTANT, TABULATED)

# piecewise breakpoints of the power-law/plateau profile
_CORE_END = 0.25
_HALF = 0.5


@dataclass(frozen=True)
class Potential:
    """A pair interaction with its parameters."""

    kind: str
    r: float | None = None
    M: float | None = None
    J: float | None = None
    samples: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == POWER_PLATEAU:
            if self.r is None or not 0.0 < self.r < 1.0:
                raise ValueError("power-law exponent r must lie in (0, 1)")
            if self.M is None or not 0.0 < self.M < math.inf:
                raise ValueError("plateau height M must be positive and finite")
        elif self.kind == CONSTANT:
            if self.J is None or not math.isfinite(self.J):
                raise ValueError("constant potential needs a finite J")
        else:
            if len(self.samples) < 2:
                raise ValueError("tabulated potential needs at least two knots")
            if not all(math.isfinite(x) for knot in self.samples for x in knot):
                raise ValueError("tabulated knots must be finite")
            ts = [t for t, _ in self.samples]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("tabulated knots must be strictly increasing")
            if ts[0] < 0.0 or ts[-1] > 1.0 + 1e-12:
                raise ValueError("tabulated knots must lie in [0, 1]")

    @classmethod
    def power_plateau(cls, r: float, M: float) -> "Potential":
        return cls(kind=POWER_PLATEAU, r=float(r), M=float(M))

    @classmethod
    def constant(cls, J: float) -> "Potential":
        return cls(kind=CONSTANT, J=float(J))

    @classmethod
    def tabulated(cls, samples) -> "Potential":
        """Linear interpolation through (t, value) knots in [0, 1], clamped at the ends.

        Only the interpolant on [0, 1/2] is read, at the torus distance: with
        knots (0, 1) and (1, 3), psi(0.9) = psi(0.1) = 1.2, and a knot past 1/2
        counts only through the segment that crosses 1/2.  Symmetric tables,
        with a knot at t = 1 mirroring the one at 0, read as written.
        """
        knots = tuple((float(t), float(v)) for t, v in samples)
        return cls(kind=TABULATED, samples=knots)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Cell-pair averaged interaction table on the uniform m-grid of [0, 1].

    row[k] equals m^2 times the integral of psi(|x - y|) over cell_0 x cell_k
    (:func:`kernel_row`).  The table is the symmetric circulant matrix of the
    row and is never stored: callers that need it dense build toeplitz(row).
    spectrum holds the eigenvalues of the scaled table and folded its two
    half-size blocks on profiles even and odd under the reflection
    i <-> m-1-i, each built on first use.
    """

    m: int
    row: np.ndarray

    @cached_property
    def spectrum(self) -> np.ndarray:
        """lambda_k = Re rfft(row)[k] / m for k = 0 .. m//2, read-only.

        The circulant table is diagonal in the Fourier basis, so lambda_k is the
        eigenvalue of (1/m) K on the modes cos and sin(2 pi k x); lambda_0 is the
        grid's integrated interaction, the energy of the constant profile is
        lambda_0 rho^2.  An eigenvalue within rounding of zero, |lambda_k| <=
        1e-12 mean|row|, is stored as 0.0: it has no sign.
        """
        lam = np.fft.rfft(self.row).real / self.m
        # the rfft rounds lambda_k by about eps log2(m) mean|row|; such noise has no sign
        lam[np.abs(lam) <= 1e-12 * np.abs(self.row).mean()] = 0.0
        lam.flags.writeable = False
        return lam

    @cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T + P, T - P, w) of the table on the first h = ceil(m/2) cells, read-only.

        T = toeplitz(row[:h]) pairs cell i with cell j and P[i, j] = row[|i + j + 1 - m|]
        with its mirror m-1-j, so an even f acts as (T + P) f[:h] and an odd one as
        (T - P) f[:n] on the n = m - h cells with a mirror.  w is each half cell's
        multiplicity: 2, but 1 for an odd m's centre cell, which is its own mirror
        (its column of P is dropped).
        """
        h = (self.m + 1) // 2
        i = np.arange(h)
        P = self.row[np.abs(i[:, None] + i + 1 - self.m)]
        P[:, self.m - h:] = 0.0
        T, n = toeplitz(self.row[:h]), self.m - h
        even = T + P
        T -= P  # in place: three h x h arrays at the peak, not four
        blocks = (even, T[:n, :n], np.where(i < n, 2.0, 1.0))
        for b in blocks:
            b.flags.writeable = False
        return blocks


def eval_psi(pot: Potential, t):
    """Evaluate psi at distance(s) t; accepts scalars or arrays.

    The argument is folded to the torus distance, t -> 1 - t for t > 1/2,
    before the piecewise rule is applied.  Distances outside [0, 1] raise a
    ValueError.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("distance outside the potential domain [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    arr = np.where(arr > _HALF, 1.0 - arr, arr)
    if pot.kind == CONSTANT:
        out = np.full(arr.shape, float(pot.J))
    elif pot.kind == POWER_PLATEAU:
        out = np.full(arr.shape, float(pot.M))
        core = (arr > 0.0) & (arr < _CORE_END)
        out[core] = arr[core] ** (-pot.r)
        out[arr == 0.0] = 0.0
    else:
        ts = np.array([s[0] for s in pot.samples])
        vs = np.array([s[1] for s in pot.samples])
        out = np.interp(arr, ts, vs)
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(t))


def integrated_interaction(pot: Potential) -> float:
    """Double integral of psi(|x - y|) over the unit square of pairs (x, y).

    This is the exact moment int_0^1 psi (the row integral is shift
    invariant; 2 * 4**(r-1) / (1-r) + M / 2 for the power-law/plateau
    interaction), summed segment by segment without quadrature.
    """
    return _psi_weighted(_segments(pot), 0.0, 1.0, 1.0, 0.0)


def _segments(pot: Potential):
    """Piecewise description of the folded potential on [0, 1].

    Each entry is (lo, hi, tag, payload); tags are "power" (t**-r from the
    left edge) and "mirror" (t**-r from the right edge), whose payload is r,
    "const" and "linear" ((t0, v0, slope) for tabulated pieces).
    """
    if pot.kind == CONSTANT:
        return [(0.0, 1.0, "const", float(pot.J))]
    if pot.kind == POWER_PLATEAU:
        return [
            (0.0, _CORE_END, "power", pot.r),
            (_CORE_END, 1.0 - _CORE_END, "const", float(pot.M)),
            (1.0 - _CORE_END, 1.0, "mirror", pot.r),
        ]
    # tabulated: linear pieces between consecutive knots of the folded profile
    inner = {t for t, _ in pot.samples if 0.0 < t < 1.0}
    knots = sorted({0.0, _HALF, 1.0} | inner | {1.0 - t for t in inner})
    segs = []
    for a, b in zip(knots, knots[1:]):
        va = eval_psi(pot, a)
        vb = eval_psi(pot, b)
        slope = (vb - va) / (b - a)
        segs.append((a, b, "linear", (a, va, slope)))
    return segs


def _power_moment(lo: float, hi: float, r: float, c0: float, c1: float) -> float:
    """Exact integral of t**(-r) * (c0 + c1 t) over [lo, hi], lo >= 0."""
    p1 = (hi ** (1.0 - r) - lo ** (1.0 - r)) / (1.0 - r)
    p2 = (hi ** (2.0 - r) - lo ** (2.0 - r)) / (2.0 - r)
    return c0 * p1 + c1 * p2


def _psi_weighted(segs, a: float, b: float, c0: float, c1: float) -> float:
    """Exact integral of psi_folded(t) * (c0 + c1 t) over [a, b] in [0, 1] from _segments."""
    total = 0.0
    for lo, hi, tag, payload in segs:
        left = max(a, lo)
        right = min(b, hi)
        if right <= left:
            continue
        if tag == "const":
            total += payload * (c0 * (right - left) + 0.5 * c1 * (right * right - left * left))
        elif tag == "power":
            total += _power_moment(left, right, payload, c0, c1)
        elif tag == "mirror":
            # substitute s = 1 - t: weight becomes (c0 + c1) - c1 s
            total += _power_moment(1.0 - right, 1.0 - left, payload, c0 + c1, -c1)
        else:
            t0, v0, slope = payload
            # product of two linear factors: Simpson is exact
            def g(t):
                return (v0 + slope * (t - t0)) * (c0 + c1 * t)
            mid = 0.5 * (left + right)
            total += (right - left) / 6.0 * (g(left) + 4.0 * g(mid) + g(right))
    return total


def kernel_row(pot: Potential, m: int) -> np.ndarray:
    """Offset row of the m-cell kernel: entry k averages psi over cell pairs k apart.

    Entry k is m^2 times the integral of psi(|x - y|) over cell_0 x cell_k.
    The mirrored offsets m - k are copied bitwise from k, so the circulant
    matrix of the row is exactly symmetric.
    """
    if m < 2:
        raise ValueError(f"a pair table needs at least two cells, got {m}")
    h = 1.0 / m
    segs = _segments(pot)
    ent = np.empty(m)
    ent[0] = 2.0 * m * m * _psi_weighted(segs, 0.0, h, h, -1.0)
    for k in range(1, m // 2 + 1):
        lo, mid, hi = (k - 1) * h, k * h, (k + 1) * h
        up = _psi_weighted(segs, lo, mid, -lo, 1.0)
        down = _psi_weighted(segs, mid, hi, hi, -1.0)
        ent[k] = m * m * (up + down)
    for k in range(1, (m + 1) // 2):
        ent[m - k] = ent[k]
    return ent


def pair_row(pot: Potential, n: int) -> np.ndarray:
    """psi at the n lattice site offsets on the torus: psi(min(k, n-k)/n)."""
    k = np.arange(n, dtype=float)
    return eval_psi(pot, np.minimum(k, n - k) / n)


def cell_kernel(pot: Potential, m: int) -> KernelMatrix:
    """The m-cell kernel of the continuum functionals, stored as its row."""
    row = kernel_row(pot, m)
    row.flags.writeable = False
    return KernelMatrix(m=m, row=row)


def lag_sums(values) -> np.ndarray:
    """Entry k sums v_i v_{i+k} over i, indices mod n, so that v.T.v =
    lag_sums(v) @ row for the symmetric circulant table T of a row.

    The sums are the cyclic autocorrelation of v, by FFT."""
    n = np.size(values)
    spec = np.fft.rfft(values)
    return np.fft.irfft(spec * np.conj(spec), n)

