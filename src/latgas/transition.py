"""Feasibility probes, kink-bound constants, and transition-curve scans.

The entropy surface S(xi, rho) has a first-order kink along the curve
xi = lambda * rho^2 where the constant profile is the optimizer.  This
module holds the paper's three closed-form test profiles (feasibility_probe),
computes the convexity-gap constant c of the shifted binary entropy and the
spectral radius sigma of the scaled kernel, and scans S across the curve to
verify the slope bound c / sigma.  The kernel spectrum lambda_k decides
whether the scan runs: the curve point is interior to the achievable region
on the grid iff some lambda_k, k >= 1, is negative and some positive, which
is when both closed-form one-sided slopes (spectral_slopes) are finite.
Each scan point is one solve_entropy call on a shared kernel, whose seeds
the same spectrum picks (solver.spectral_seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functional import (
    constant_profile,
    hbin,
    indicator_profile,
    xi,
)
from .potential import POWER_PLATEAU, KernelMatrix, Potential, cell_kernel, integrated_interaction
from .solver import DEFAULT_GRID, check_grid, solve_entropy

KINK_SLACK = 1e-4  # tolerance of the scan's entropy-drop check


class UnscannableCurve(ValueError):
    """The curve point is not interior: the kernel spectrum has no negative or
    no positive lambda_k, k >= 1 (a constant potential has neither)."""


@dataclass
class FeasibilityProbe:
    """Closed-form energies of the three test profiles at density rho."""

    xi1: float
    xi2: float
    xi3: float
    interior: bool
    max_grid_error: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.xi1, self.xi2, self.xi3)


@dataclass
class ScanPoint:
    xi_target: float
    xi_actual: float
    S: float
    branch: str
    beta: float
    mu: float
    converged: bool


@dataclass
class TransitionScan:
    rho: float
    lam: float
    left_slope: float
    right_slope: float
    kink_lower_bound: float
    c: float
    sigma: float
    S_curve: float
    kink_ok: bool
    within_hypotheses: bool
    spectral_left: float
    spectral_right: float
    k_below: int
    k_above: int
    points: list[ScanPoint] = field(default_factory=list)


def feasibility_probe(pot: Potential, rho: float, m: int = 2048,
                      grid_tol: float = 1e-10) -> FeasibilityProbe:
    """Closed-form energies of a single block, the constant, and a split block.

    The three profiles share density rho: [0, rho), the constant rho, and
    [0, rho/2) with [1/2 - rho/2, 1/2).  When their energies are strictly
    ordered xi1 < xi2 < xi3 the curve point lambda * rho^2 is certified
    interior to the achievable region.  The closed forms are checked on an
    even grid of m cells at rho_m = 2 floor(rho m / 2) / m, the largest
    density <= rho at which every profile fills whole cells.  A cell kernel
    entry is m^2 times the exact integral of psi over its cell pair, so there
    each grid energy is its closed form up to rounding; a gap beyond grid_tol
    is a wrong closed form and raises RuntimeError.  For rho < 2/m, rho_m is 0
    and the check compares nothing.
    """
    if pot.kind != POWER_PLATEAU:
        raise ValueError("the feasibility probe needs the power/plateau interaction")
    if not 0.0 < rho <= 0.25:
        raise ValueError("the probe is valid for rho in (0, 1/4]")
    if m % 2:
        raise ValueError(f"the probe needs an even m, so that 1/2 is a cell boundary: {m}")
    r, M, lam = pot.r, pot.M, integrated_interaction(pot)
    denom = (1.0 - r) * (2.0 - r)

    def closed_forms(d):
        return (2.0 * d ** (2.0 - r) / denom, lam * d * d,
                4.0 * (d / 2.0) ** (2.0 - r) / denom + M * d * d / 2.0)

    xi1, xi2, xi3 = closed_forms(rho)
    rho_m = 2 * math.floor(rho * m / 2) / m
    K = cell_kernel(pot, m)
    grid = (xi(indicator_profile(m, [(0.0, rho_m)]), K), xi(constant_profile(m, rho_m), K),
            xi(indicator_profile(m, [(0.0, rho_m / 2.0), (0.5 - rho_m / 2.0, 0.5)]), K))
    err = max(abs(g - v) for g, v in zip(grid, closed_forms(rho_m)))
    if err > grid_tol:
        raise RuntimeError(f"closed forms miss the exact grid energies by {err:.3e} at m={m}")
    return FeasibilityProbe(xi1=xi1, xi2=xi2, xi3=xi3,
                            interior=bool(xi1 < xi2 < xi3), max_grid_error=err)


def convexity_gap_constant(rho: float) -> float:
    """Minimum of (hbin(rho+t) - hbin'(rho) t - hbin(rho)) / t^2 over t != 0.

    The numerator is the Bregman gap of hbin, which equals
    KL(Bern(rho+t) || Bern(rho)).  Its minimum over t, divided by t^2, is
    attained at t = 1 - 2 rho and has the closed form
    c = 2 atanh(1 - 2 rho) / (1 - 2 rho) = log((1 - rho) / rho) / (1 - 2 rho),
    with the limit c = 2 at rho = 1/2 (Ordentlich and Weinberger, IEEE Trans.
    Inf. Theory 51, 2005).  c is symmetric under rho -> 1 - rho; evaluating
    log1p(u / r) / u with r = min(rho, 1 - rho), u = 1 - 2 r stays accurate
    as rho approaches 0 or 1, where atanh(1 - 2 rho) loses every digit.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    r = min(rho, 1.0 - rho)
    u = 1.0 - 2.0 * r
    if u == 0.0:
        return 2.0
    return math.log1p(u / r) / u


def spectral_radius(K: KernelMatrix) -> float:
    """Spectral radius of the scaled kernel operator (1/m) K, computed exactly.

    The eigenvalues of a circulant matrix are the discrete Fourier transform
    of its first row (Gray, Toeplitz and Circulant Matrices: A Review, 2006),
    so the kernel gives max |rfft(row)| / m without building the dense table;
    the eigenvalues are the kernel's cached spectrum.
    """
    return float(np.max(np.abs(K.spectrum)))


def spectral_slopes(K: KernelMatrix, rho: float) -> tuple[float, float, int, int]:
    """Closed-form one-sided kink slopes at density rho: (left, right, k_below, k_above).

    A branch that leaves the constant in mode k with amplitude eps moves xi by
    eps^2 lambda_k and S by -eps^2 / (2 rho (1 - rho)), to second order.  So
    below the curve the slope is 1 / (2 rho (1 - rho) |lambda_min|) and above
    it -1 / (2 rho (1 - rho) lambda_max), over the modes k >= 1, which
    k_below and k_above name; a side with no eigenvalue of its sign reads nan.
    They are the delta -> 0 limit of scan_transition's one-sided slopes: at
    m = 256, rho = 0.23 the extrapolated secants miss them by 8.1e-4 (left)
    and 4.9e-4 (right) with deltas (0.005, 0.01), and by 1.2e-6 and 7.4e-7
    with deltas (2e-4, 4e-4).
    """
    lam = K.spectrum[1:]
    lo, hi, curv = float(lam.min()), float(lam.max()), 2.0 * rho * (1.0 - rho)
    left = 1.0 / (curv * abs(lo)) if lo < 0.0 else math.nan
    right = -1.0 / (curv * hi) if hi > 0.0 else math.nan
    return left, right, int(np.argmin(lam)) + 1, int(np.argmax(lam)) + 1


def scan_transition(pot: Potential, rho: float, deltas, m: int = DEFAULT_GRID) -> TransitionScan:
    """Solve S(xi, rho) on and around the curve xi = lambda rho^2.

    Requires rho in (0, 1) and m at most solver.GRID_CAP, both checked before
    the kernel is built; a kernel spectrum without both a negative and a
    positive lambda_k, k >= 1, raises UnscannableCurve before any solve.  For
    each delta the scan solves at xi = lambda rho^2 +/- delta, estimates the
    one-sided slopes by Richardson extrapolation of the two smallest secants,
    and checks the entropy-drop bound S - S_curve <= -(c/sigma) |dxi| + KINK_SLACK
    on every converged point.  kink_ok holds only when the curve point and at
    least one point on each side converged and every drop meets the bound.
    Failed solves become failure markers, not exceptions.  spectral_left,
    spectral_right, k_below and k_above are spectral_slopes.
    """
    deltas = sorted(float(d) for d in deltas)
    if not deltas or not all(0.0 < d < math.inf for d in deltas):
        raise ValueError("deltas must be a nonempty list of positive finite reals")
    lam = integrated_interaction(pot)
    xi0 = lam * rho * rho
    targets = [xi0 - d for d in reversed(deltas)] + [xi0] + [xi0 + d for d in deltas]
    if len(set(targets)) < len(targets):
        raise ValueError("deltas must be distinct and must move xi0 = lambda rho^2: a "
                         "repeated or vanishing offset leaves no secant gap")
    c = convexity_gap_constant(rho)
    check_grid(m)
    K = cell_kernel(pot, m)
    spec_left, spec_right, k_below, k_above = spectral_slopes(K, rho)
    if math.isnan(spec_left) or math.isnan(spec_right):
        raise UnscannableCurve(f"curve point not interior: no lambda_k (k >= 1) of the m={m} "
                               f"spectrum is {'negative' if math.isnan(spec_left) else 'positive'}")
    sigma = spectral_radius(K)
    bound = c / sigma

    def run(t):
        res = solve_entropy(pot, t, rho, m=m, kernel=K)
        x_act = xi(res.profile, K)
        return ScanPoint(
            xi_target=t, xi_actual=x_act,
            S=res.entropy_S if res.converged else math.nan,
            branch=res.branch, beta=res.multipliers.beta, mu=res.multipliers.mu,
            converged=res.converged)

    points = [run(t) for t in targets]

    mid = len(deltas)
    curve_pt = points[mid]
    S_curve = curve_pt.S
    h_rho = float(hbin(rho))

    left = [p for p in points[:mid] if p.converged]
    right = [p for p in points[mid + 1:] if p.converged]
    kink_ok = bool(curve_pt.converged and left and right) and all(
        p.S + h_rho <= -bound * abs(p.xi_actual - xi0) + KINK_SLACK for p in left + right)
    left_slope = _one_sided_slope(S_curve, xi0, left[::-1]) if curve_pt.converged else math.nan
    right_slope = _one_sided_slope(S_curve, xi0, right) if curve_pt.converged else math.nan

    return TransitionScan(
        rho=rho, lam=lam,
        left_slope=left_slope, right_slope=right_slope,
        kink_lower_bound=bound, c=c, sigma=sigma,
        S_curve=S_curve, kink_ok=kink_ok,
        within_hypotheses=bool(pot.kind == POWER_PLATEAU and pot.r < 0.5),
        spectral_left=spec_left, spectral_right=spec_right, k_below=k_below, k_above=k_above,
        points=points)


def _one_sided_slope(S_curve: float, xi0: float, pts) -> float:
    """Richardson-extrapolated secant slope from the two nearest points."""
    if not pts:
        return math.nan
    secants = [((p.S - S_curve) / (p.xi_target - xi0), abs(p.xi_target - xi0)) for p in pts]
    secants.sort(key=lambda sd: sd[1])
    if len(secants) == 1:
        return secants[0][0]
    (s1, d1), (s2, d2) = secants[0], secants[1]
    return (d2 * s1 - d1 * s2) / (d2 - d1)
