"""Constrained entropy maximization over occupancy profiles.

Maximizes -H(f) subject to xi(f) = xi and N(f) = rho on the periodic unit
interval.  Interior optimizers satisfy the logistic fixed-point relation
f = expit(mu + beta * Kf / m) together with both constraints.  Every seed
profile takes one path: multipliers (beta, mu) fitted to the seed by least
squares, then a globalized Newton solve of the joint KKT system in
(f, beta, mu) with backtracking on the max-norm residual.  The last
accepted Newton iterate is the seed's candidate, judged on the residual
that the solve already holds; no second kernel apply.  solve_entropy
runs that path from the k-bump seed family (constant plus cos(2 pi k x),
k = 1..6) and keeps the candidate of maximal entropy.  Since hbin is convex,
Jensen's inequality bounds every candidate by S <= -hbin(rho), with equality
only at the constant profile; so once a seed converges to the constant (on
the curve xi = lambda rho^2) no later seed can win and the multistart stops.
The tolerances and the iteration cap are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .functional import (
    OccupancyProfile,
    entropy_H,
    hbin_prime,
    make_profile,
    profile_to_dict,
)
from .potential import KernelMatrix, Potential, cell_kernel

DEFAULT_GRID = 256
CONSTRAINT_TOL = 1e-8
EL_TOL = 1e-11
NEWTON_MAX_ITER = 60
NOISE_FLOOR = 1e-6
PEAK_TIE_EPS = 1e-12


@dataclass(frozen=True)
class Multipliers:
    beta: float
    mu: float


@dataclass
class SolveResult:
    """One optimizer candidate with its multipliers and diagnostics.

    iterations is (Newton iterations, backtracking halvings) of the seed's
    Newton-KKT run.
    """

    profile: OccupancyProfile
    multipliers: Multipliers
    entropy_S: float
    residuals: tuple[float, float]
    branch: str
    iterations: tuple[int, int]
    converged: bool
    el_residual: float
    degenerate: bool
    candidates: tuple = ()


def _fit_multipliers(K: KernelMatrix, values: np.ndarray, rho: float) -> tuple[float, float]:
    """Least-squares fit of hbin'(f) ~ mu + beta * (Kf/m) on a seed profile inside (0, 1)."""
    psi_f = (K.entries @ values) / K.m
    rhs = hbin_prime(values)
    if float(np.ptp(psi_f)) < 1e-12:
        return 0.0, float(np.log(rho / (1.0 - rho)))
    A = np.column_stack([psi_f, np.ones_like(psi_f)])
    (beta, mu), *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(beta), float(mu)


def _newton_kkt(K, target_xi, target_rho, f, beta, mu):
    """Globalized Newton solve of the fixed point and both constraints.

    Each iteration solves the (m + 2)-dimensional linearization in
    (f, beta, mu) and halves the step until the max-norm residual drops
    (Armijo factor 1e-4).  Stops below EL_TOL, after NEWTON_MAX_ITER
    iterations, at a singular Jacobian, or when 25 halvings do not help.
    Returns the last accepted iterate with its field and residual,
    (f, beta, mu, Kf/m, R, iterations, halvings): R stacks the fixed-point
    gap f - expit(mu + beta Kf/m), the energy gap and the density gap.
    """
    m = K.m
    A = K.entries
    eye = np.eye(m)

    def residual(f, beta, mu):
        Kf_m = (A @ f) / m
        s = expit(mu + beta * Kf_m)
        R = np.concatenate([f - s, [f @ Kf_m / m - target_xi, f.mean() - target_rho]])
        return Kf_m, s, R, float(np.max(np.abs(R)))

    Kf_m, s, R, rn = residual(f, beta, mu)
    it = halvings = 0
    J = np.zeros((m + 2, m + 2))
    block = np.empty((m, m))
    while rn >= EL_TOL and it < NEWTON_MAX_ITER:
        it += 1
        sp = s * (1.0 - s)
        np.multiply(sp[:, None], A, out=block)
        block *= beta / m
        np.subtract(eye, block, out=J[:m, :m])
        J[:m, m] = -sp * Kf_m
        J[:m, m + 1] = -sp
        J[m, :m] = 2.0 * Kf_m / m
        J[m + 1, :m] = 1.0 / m
        try:
            step = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(25):
            trial = (np.clip(f + t * step[:m], 1e-14, 1.0 - 1e-14),
                     beta + t * step[m], mu + t * step[m + 1])
            new = residual(*trial)
            if new[3] < rn * (1.0 - 1e-4 * t) + 1e-15:
                break
            t *= 0.5
            halvings += 1
        else:
            break
        (f, beta, mu), (Kf_m, s, R, rn) = trial, new
    return f, beta, mu, Kf_m, R, it, halvings


def solve_multipliers(K: KernelMatrix, target_xi: float, target_rho: float, seed) -> SolveResult:
    """One seed's path: least-squares multipliers, then globalized Newton-KKT.

    The seed is clipped into (0, 1), (beta, mu) are fitted to it by least
    squares, and the Newton-KKT solve runs to the max-norm residual EL_TOL.
    The candidate is the last accepted Newton iterate, judged on its own
    residual: it converged when both constraint gaps are within
    CONSTRAINT_TOL and the fixed-point gap is below 1e-7, so a stalled run
    comes back flagged instead of raising.  degenerate flags the
    constraint-dominated stationarity branch: the smoothed field Kf/m
    constant at xi/rho to 1e-6.  K must be periodic.
    """
    if not K.periodic:
        raise ValueError("the variational solver is implemented for periodic boundaries")
    if not 0.0 < target_rho < 1.0:
        raise ValueError("target density must lie in (0, 1)")
    if not math.isfinite(target_xi):
        raise ValueError("target energy xi must be finite")
    seed = seed.values if isinstance(seed, OccupancyProfile) else seed
    f = np.clip(np.asarray(seed, dtype=float).ravel(), 1e-9, 1.0 - 1e-9)
    beta, mu = _fit_multipliers(K, f, target_rho)
    f, beta, mu, Kf_m, R, its, halvings = _newton_kkt(K, target_xi, target_rho, f, beta, mu)
    prof = make_profile(f)
    res_xi, res_n = abs(float(R[-2])), abs(float(R[-1]))
    el_res = float(np.max(np.abs(R[:-2])))
    return SolveResult(
        profile=prof,
        multipliers=Multipliers(float(beta), float(mu)),
        entropy_S=-entropy_H(prof),
        residuals=(res_xi, res_n),
        branch=classify_branch(prof),
        iterations=(its, halvings),
        converged=bool(res_xi < CONSTRAINT_TOL * max(1.0, abs(target_xi))
                       and res_n < CONSTRAINT_TOL and el_res < 1e-7),
        el_residual=el_res,
        degenerate=bool(np.max(np.abs(Kf_m - target_xi / target_rho)) < 1e-6),
    )


def default_seeds(m: int, rho: float):
    """The constant profile and rho (1 + cos(2 pi k x) / 2) for k = 1..6.

    The constant comes first, so on the curve it ends the multistart at
    once.  Above the curve the reference optimizer has three bumps and is
    reached from the k = 3 seed, so the family has to run past the one- and
    two-bump shapes.  Values are clipped into (0, 1).
    """
    x = (np.arange(m) + 0.5) / m
    raw = [np.full(m, rho)]
    raw += [rho * (1.0 + 0.5 * np.cos(2.0 * np.pi * k * x)) for k in range(1, 7)]
    return [make_profile(np.clip(v, 1e-4, 1.0 - 1e-4)) for v in raw]


def solve_entropy(pot: Potential, xi_target: float, rho: float, m: int = DEFAULT_GRID,
                  seeds=None, kernel: KernelMatrix | None = None) -> SolveResult:
    """Multistart entropy maximization at fixed (xi, rho).

    Runs solve_multipliers from each seed in order (default_seeds unless
    given) and returns the converged candidate of maximal entropy; ties
    within 1e-9 go to the profile with fewer peaks, then to the earlier
    seed.  The winner is circularly shifted so its global maximum sits at
    cell m/2.  If every start fails the result comes back with
    converged=False and the least-bad diagnostics.

    The seeds stop after the first one that converges to a profile
    classified constant (Jensen stop).  No later seed can beat it: hbin is
    convex, so every profile of density N has S <= -hbin(N); the converged
    constant attains that bound, so another candidate can exceed it only by
    the gap between the two density residuals, which the Newton tolerance
    EL_TOL keeps far inside the 1e-9 tie window; and with 0 peaks the
    constant wins every tie.  candidates lists the seeds that ran: one on
    the curve with the default seeds.
    """
    K = kernel if kernel is not None else cell_kernel(pot, m)
    if seeds is None:
        seeds = default_seeds(K.m, rho)
    results = []
    for s in seeds:
        results.append(solve_multipliers(K, xi_target, rho, s))
        if results[-1].converged and results[-1].branch == "constant":
            break

    summaries = tuple({"branch": r.branch, "entropy_S": r.entropy_S, "converged": r.converged,
                       "residuals": r.residuals} for r in results)
    converged = [(i, r) for i, r in enumerate(results) if r.converged]
    if not converged:
        best = min(results, key=lambda r: max(r.residuals))
        return replace(best, candidates=summaries)
    top = max(r.entropy_S for _, r in converged)
    near = [(i, r) for i, r in converged if r.entropy_S >= top - 1e-9]
    # ties prefer fewer peaks, then the earlier seed (stable order)
    _, best = min(near, key=lambda ir: (_peak_count(ir[1].branch), ir[0]))
    return replace(best, profile=align_peak(best.profile), candidates=summaries)


def align_peak(prof: OccupancyProfile) -> OccupancyProfile:
    """Circularly shift a periodic profile so its maximum sits at cell m/2."""
    shift = prof.m // 2 - int(np.argmax(prof.values))
    return make_profile(np.roll(prof.values, shift))


def classify_branch(f: OccupancyProfile, noise_floor: float = NOISE_FLOOR) -> str:
    """Label a periodic profile as constant / unimodal / multimodal(k).

    Counts local maxima of the cyclically 3-cell-smoothed profile that rise
    above min + noise_floor; a total range below the floor is constant.
    Plateau peaks (runs of equal values, up to float ties) count once.
    """
    v = f.values
    if float(v.max() - v.min()) < noise_floor:
        return "constant"
    s = (np.roll(v, 1) + v + np.roll(v, -1)) / 3.0
    peaks = _cyclic_peak_count(s, float(s.min()) + noise_floor)
    if peaks <= 1:
        return "unimodal"
    return f"multimodal({peaks})"


def _cyclic_peak_count(s: np.ndarray, thresh: float) -> int:
    """Count cyclic local maxima above thresh, merging float-tie plateaus."""
    n = s.size
    d = s - np.roll(s, 1)
    sign = np.zeros(n, dtype=int)
    sign[d > PEAK_TIE_EPS] = 1
    sign[d < -PEAK_TIE_EPS] = -1
    nz = np.flatnonzero(sign)
    if nz.size == 0:
        return 0
    # carry the previous slope sign through flat stretches (cyclically)
    last = np.maximum.accumulate(np.where(sign != 0, np.arange(n), -1))
    filled = sign[np.where(last < 0, nz[-1], last)]
    return int(np.sum((filled == 1) & (np.roll(filled, -1) == -1) & (s > thresh)))


def _peak_count(branch: str) -> int:
    if branch.startswith("multimodal"):
        return int(branch[len("multimodal("):-1])
    return {"constant": 0, "unimodal": 1}.get(branch, 0)


def solve_result_to_dict(result: SolveResult) -> dict:
    """JSON-ready record with fields named as in the result type.

    iterations is [Newton iterations, backtracking halvings] of the winning
    seed's Newton-KKT run.
    """
    return {
        "profile": profile_to_dict(result.profile),
        "multipliers": {"beta": result.multipliers.beta, "mu": result.multipliers.mu},
        "entropy_S": result.entropy_S,
        "residuals": list(result.residuals),
        "branch": result.branch,
        "iterations": list(result.iterations),
        "converged": result.converged,
        "el_residual": result.el_residual,
        "degenerate": result.degenerate,
        "candidates": [dict(c, residuals=list(c["residuals"])) for c in result.candidates],
    }
