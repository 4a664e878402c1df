"""Constrained entropy maximization over occupancy profiles.

Maximizes -H(f) subject to xi(f) = xi and N(f) = rho on the periodic unit
interval.  Interior optimizers satisfy the logistic fixed-point relation
f = expit(mu + beta * Kf / m) together with both constraints.  Every seed
profile takes one path: rolled onto a reflection axis, multipliers
(beta, mu) fitted by least squares, then a globalized Newton solve of the
joint KKT system with backtracking on the max-norm residual.  The circulant
kernel commutes with the reflection i <-> m-1-i, so the iterates of an even
seed stay even and the solve runs on the half profile: h + 2 unknowns,
h = ceil(m/2), on KernelMatrix.folded, and no m x m table.  A seed that keeps
needing many halvings while it collapses towards the constant, infeasible off
the curve, stops as "stalled" (the STALL_* constants).  The last accepted
iterate, rolled back, is the seed's candidate, judged on the residual the
solve already holds; a converged one carries a second-order certificate, the
inertias of the even and the odd block of its KKT matrix, computed when it is
first read: scans and set-up solves read none.  solve_entropy runs
that path from the k-bump seed family (constant plus cos(2 pi k x),
k = 1..6) and keeps the candidate of maximal entropy, ties within 1e-9 going
to the lower seed index.  The kernel spectrum picks the seeds
(spectral_seeds): near the constant a mode-k perturbation of amplitude eps
moves xi by about eps^2 lambda_k, so on the curve the constant runs alone
first, off it the seeds whose lambda_k has the sign of xi - lambda_0 rho^2,
and where no lambda_k has that sign the constant alone.  The pure mode
rho + eps cos(2 pi k x) stays in [0, 1] only for eps <= min(rho, 1 - rho),
so it moves xi by at most |lambda_k| min(rho, 1 - rho)^2 / 2: a seed whose
bound falls short of |xi - lambda_0 rho^2| is out of reach and runs only in
the fallback batch, when some seed within reach exists.  check_grid refuses
a grid above GRID_CAP before solve_entropy or a scan builds a kernel on it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .functional import (
    OccupancyProfile,
    entropy_H,
    hbin,
    hbin_prime,
    make_profile,
)
from .potential import KernelMatrix, Potential, cell_kernel

DEFAULT_GRID = 256
CONSTRAINT_TOL = 1e-8
EL_TOL = 1e-11
NEWTON_MAX_ITER = 60
NOISE_FLOOR = 1e-6
PEAK_TIE_EPS = 1e-12
STALL_STREAK, STALL_HALVINGS, STALL_GAP = 4, 15, 1e-3
# KernelMatrix.folded holds two dense h x h blocks, h = ceil(m/2), of 8 h^2 bytes
# each: 34 MB at the cap, 20 GB at m = 100001.  Their build, like the Newton
# Jacobian, takes one more: a solve at the cap traces 101 MB, 168 MB with certificates.
GRID_CAP = 4096
_BUMP_MODES = range(1, 7)  # the k of the k-bump seeds


@dataclass(frozen=True)
class Multipliers:
    beta: float
    mu: float


@dataclass
class SolveResult:
    """One optimizer candidate with its multipliers and diagnostics.

    iterations is (Newton iterations, backtracking halvings) of the seed's
    Newton-KKT run and stop why it ended: "tolerance", "iteration cap",
    "singular", "no descent" or "stalled".  certificate, None unless
    converged, is a read-only mapping of the (positive, negative, zero)
    inertia of the even and of the odd KKT block, morse_index and licq;
    degenerate is not licq.  Its two eigen-decompositions run on the first
    read, once, so a caller that reads no certificate (a scan) pays for none.
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
    stop: str = ""
    certificate: Mapping | None = None


def _axis_roll(f: np.ndarray) -> int:
    """The roll s that moves a reflection axis of f to cell boundary m/2 (odd m: cell m//2).

    roll(f, s) pairs f[j] with f[m-1-2s-j], so s maximizes the circular
    autocorrelation at m-1-2s (s = 0 if exact); none within 1e-12 raises ValueError.
    """
    m, s = f.size, 0
    if np.max(np.abs(f - f[::-1])) > 1e-12:
        auto = np.fft.irfft(np.fft.rfft(f) ** 2, m)  # auto[t] = sum_j f[j] f[t - j]
        s = int(np.argmax(auto[(m - 1 - 2 * np.arange(m)) % m]))
    r = np.roll(f, s)
    if np.max(np.abs(r - r[::-1])) > 1e-12:
        raise ValueError("the seed has no reflection axis; the solver needs a mirror-even seed")
    return s


def _fit_multipliers(At: np.ndarray, w: np.ndarray, g: np.ndarray, rho: float):
    """Least-squares fit of hbin'(f) ~ mu + beta * (Kf/m) on an even seed inside (0, 1).

    Each half cell's squared residual counts w times, its multiplicity: the fit over all m cells.
    """
    psi_g = (At @ g) / w.sum()
    if float(np.ptp(psi_g)) < 1e-12:
        return 0.0, float(np.log(rho / (1.0 - rho)))
    A = np.column_stack([psi_g, np.ones_like(psi_g)]) * np.sqrt(w)[:, None]
    (beta, mu), *_ = np.linalg.lstsq(A, hbin_prime(g) * np.sqrt(w), rcond=None)
    return float(beta), float(mu)


def _newton_kkt(At, w, target_xi, target_rho, g, beta, mu):
    """Globalized Newton solve of the fixed point and both constraints.

    Each iteration solves the (h + 2)-dimensional linearization in
    (g, beta, mu) and halves the step until the max-norm residual drops
    (Armijo factor 1e-4).  Stops below EL_TOL, after NEWTON_MAX_ITER
    iterations, at a singular Jacobian, when 25 halvings do not help, or
    "stalled": STALL_STREAK iterations in a row of STALL_HALVINGS or more
    halvings, with S within STALL_GAP of -hbin(rho), the collapse towards the
    constant, infeasible off the curve.  Returns the last accepted iterate,
    (g, beta, mu, Kf/m, R, iterations, halvings, stop): R stacks the
    fixed-point gap, the energy gap and the density gap (the full profile's).
    """
    m, h = w.sum(), g.size

    def residual(g, beta, mu, R):
        Kg_m = (At @ g) / m
        s = expit(mu + beta * Kg_m)
        np.subtract(g, s, out=R[:h])
        R[h], R[h + 1] = w @ (g * Kg_m) / m - target_xi, w @ g / m - target_rho
        return Kg_m, s, R, float(np.abs(R).max())

    # R holds the accepted iterate's residual, R_trial a line-search trial's
    R, R_trial = np.empty(h + 2), np.empty(h + 2)
    Kg_m, s, R, rn = residual(g, beta, mu, R)
    it = halvings = streak = 0
    stop = None
    J = np.zeros((h + 2, h + 2))
    J[h + 1, :h] = w / m
    while rn >= EL_TOL and it < NEWTON_MAX_ITER:
        it += 1
        sp = s * (1.0 - s)
        np.multiply(sp[:, None], At, out=J[:h, :h])
        J[:h, :h] *= -beta / m
        J[:h, :h].flat[::h + 1] += 1.0
        J[:h, h] = -sp * Kg_m
        J[:h, h + 1] = -sp
        J[h, :h] = 2.0 * w * Kg_m / m
        try:
            step = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError:
            stop = "singular"
            break
        t = 1.0
        for tries in range(25):
            trial = (np.minimum(np.maximum(g + t * step[:h], 1e-14), 1.0 - 1e-14),
                     beta + t * step[h], mu + t * step[h + 1])
            new = residual(*trial, R_trial)
            if new[3] < rn * (1.0 - 1e-4 * t) + 1e-15:
                break
            t *= 0.5
            halvings += 1
        else:
            stop = "no descent"
            break
        R_trial = R
        (g, beta, mu), (Kg_m, s, R, rn) = trial, new
        streak = streak + 1 if tries >= STALL_HALVINGS else 0
        if streak >= STALL_STREAK and abs(w @ hbin(g) / m - hbin(target_rho)) < STALL_GAP:
            stop = "stalled"
            break
    stop = stop or ("tolerance" if rn < EL_TOL else "iteration cap")
    return g, beta, mu, Kg_m, R, it, halvings, stop


def _certificate(At, Ao, w, g, beta, Kg_m, licq: bool) -> dict:
    """Inertia (positive, negative, zero within 1e-8 of the largest) of the KKT matrix at g.

    The Hessian D - beta A/m, D = diag(1/(f(1-f))), commutes with the reflection:
    the even block W (D - beta At/m) is bordered by the constraint gradients, the
    odd block D - beta Ao/m is not, as they are even.  A constrained maximum has
    one negative direction per independent constraint; morse_index counts the rest.
    """
    m, h = w.sum(), g.size
    d = 1.0 / (g * (1.0 - g))
    kkt = np.zeros((h + 2, h + 2))
    kkt[:h, :h] = w[:, None] * (np.diag(d) - beta * At / m)
    kkt[:h, h] = kkt[h, :h] = w * Kg_m
    kkt[:h, h + 1] = kkt[h + 1, :h] = w
    cert = {"licq": licq}
    odd = np.diag(d[:Ao.shape[0]]) - beta * Ao / m
    for name, M in (("even_inertia", kkt), ("odd_inertia", odd)):
        ev = np.linalg.eigvalsh(M)
        zero = np.abs(ev) <= 1e-8 * np.max(np.abs(ev))
        cert[name] = (int(np.sum((ev > 0) & ~zero)), int(np.sum((ev < 0) & ~zero)), int(zero.sum()))
    cert["morse_index"] = cert["even_inertia"][1] + cert["odd_inertia"][1] - (2 if licq else 1)
    return cert


class _Certificate(Mapping):
    """A candidate's certificate as a read-only mapping: _certificate runs on the first read.

    It holds _certificate's arguments until then: the kernel's read-only folded
    blocks and the candidate's own half profile, beta and Kg/m.
    """

    def __init__(self, *args):
        self._args, self._cert = args, None

    def _value(self) -> dict:
        args = self._args
        # _cert is set before _args is dropped, so a read in another thread sees
        # one of them; two concurrent first reads may both compute the same dict
        if args is not None:
            self._cert, self._args = _certificate(*args), None
        return self._cert

    def __getitem__(self, key):
        return self._value()[key]

    def __iter__(self):
        return iter(self._value())

    def __len__(self):
        return len(self._value())

    def __repr__(self):
        return repr(self._value())


def solve_multipliers(K: KernelMatrix, target_xi: float, target_rho: float, seed) -> SolveResult:
    """One seed's path: axis roll, least-squares multipliers, even-half Newton-KKT.

    The seed is clipped into (0, 1) and rolled onto its reflection axis,
    (beta, mu) are fitted to it by least squares, and the Newton-KKT solve
    runs to the max-norm residual EL_TOL.  The candidate is the last accepted
    Newton iterate, rolled back and judged on its own residual: it converged
    when both constraint gaps are within CONSTRAINT_TOL and the fixed-point
    gap is below 1e-7, so a stalled run comes back flagged instead of raising.
    LICQ fails (degenerate) when the smoothed field Kf/m is constant at xi/rho
    to 1e-6, so that the constraint gradients are parallel.
    """
    if not 0.0 < target_rho < 1.0:
        raise ValueError("target density must lie in (0, 1)")
    if not math.isfinite(target_xi):
        raise ValueError("target energy xi must be finite")
    seed = seed.values if isinstance(seed, OccupancyProfile) else seed
    f = np.clip(np.asarray(seed, dtype=float).ravel(), 1e-9, 1.0 - 1e-9)
    if f.size != K.m:
        raise ValueError("the seed and the kernel have different grid sizes")
    shift = _axis_roll(f)
    At, Ao, w = K.folded
    g = np.roll(f, shift)[:w.size]
    beta, mu = _fit_multipliers(At, w, g, target_rho)
    g, beta, mu, Kg_m, R, its, halvings, stop = _newton_kkt(At, w, target_xi, target_rho,
                                                            g, beta, mu)
    prof = make_profile(np.roll(np.concatenate([g, g[:K.m - g.size][::-1]]), -shift))
    res_xi, res_n = abs(float(R[-2])), abs(float(R[-1]))
    el_res = float(np.max(np.abs(R[:-2])))
    converged = bool(res_xi < CONSTRAINT_TOL * max(1.0, abs(target_xi))
                     and res_n < CONSTRAINT_TOL and el_res < 1e-7)
    licq = bool(np.max(np.abs(Kg_m - target_xi / target_rho)) >= 1e-6)
    return SolveResult(
        profile=prof,
        multipliers=Multipliers(float(beta), float(mu)),
        entropy_S=-entropy_H(prof),
        residuals=(res_xi, res_n),
        branch=classify_branch(prof),
        iterations=(its, halvings),
        converged=converged,
        el_residual=el_res,
        degenerate=not licq,
        stop=stop,
        certificate=_Certificate(At, Ao, w, g, beta, Kg_m, licq) if converged else None,
    )


def default_seeds(m: int, rho: float):
    """The constant profile rho and rho (1 + cos(2 pi k x) / 2) for k = 1..6.

    Seed k excites mode k, which moves xi off the curve by about
    eps^2 lambda_k: a k-bump branch lies on the side sign(lambda_k) of the
    curve (spectral_seeds).  The k-bump seeds are clipped into
    [1e-4, 1 - 1e-4]; the constant is not, so it keeps the density rho.
    """
    x = (np.arange(m) + 0.5) / m
    bumps = [np.clip(rho * (1.0 + 0.5 * np.cos(2.0 * np.pi * k * x)), 1e-4, 1.0 - 1e-4)
             for k in _BUMP_MODES]
    return [make_profile(v) for v in [np.full(m, rho)] + bumps]


def spectral_seeds(K: KernelMatrix, xi_target: float, rho: float) -> list[list[int]]:
    """The batches of default_seeds, by family index, that solve_entropy runs, in order.

    A branch leaving the constant in mode k moves xi by eps^2 lambda_k
    (KernelMatrix.spectrum; mode k folded onto 0..m//2 on a coarse grid).  On
    the curve, |xi - lambda_0 rho^2| <= CONSTRAINT_TOL max(1, |xi|), the
    constant alone, then the k-bump seeds.  Off it, the k-bump seeds whose
    lambda_k has the sign of xi - lambda_0 rho^2, then the rest of the family;
    a seed with 2k % m == 0 is constant on the grid (up to rounding when k % m
    is m/2) and is never picked first.  If no lambda_k, k = 1..m//2, has that
    sign, xi(f) - lambda_0 N(f)^2 = sum_k lambda_k |f_k|^2 / m^2 has the other
    sign for every profile, so the target is infeasible and the constant alone
    runs.

    Reach: rho + eps cos(2 pi k x) lies in [0, 1] only for
    eps <= min(rho, 1 - rho), and it moves xi by lambda_k eps^2 / 2, so a pure
    mode-k profile gets no further from the curve than
    |lambda_k| min(rho, 1 - rho)^2 / 2.  The same-sign seeds within that reach
    of the target form the first batch; those out of reach lead the second,
    ahead of the constant.  When none is within reach the first batch keeps
    them all.  No seed is dropped: the bound covers the pure mode, not the
    branch Newton follows from it.
    """
    lam = K.spectrum
    dxi = xi_target - rho * rho * lam[0]
    if abs(dxi) <= CONSTRAINT_TOL * max(1.0, abs(xi_target)):
        return [[0], list(_BUMP_MODES)]
    if not np.any(lam[1:] * dxi > 0.0):
        return [[0]]
    lam_k = {k: lam[min(k % K.m, -k % K.m)] for k in _BUMP_MODES}
    same = [k for k in _BUMP_MODES if 2 * k % K.m and lam_k[k] * dxi > 0.0]
    eps = min(rho, 1.0 - rho)  # the largest amplitude of a pure mode inside [0, 1]
    first = [k for k in same if 2.0 * abs(dxi) <= abs(lam_k[k]) * eps * eps] or same
    return [first, [k for k in same if k not in first]
            + [0] + [k for k in _BUMP_MODES if k not in same]]


def check_grid(m: int) -> None:
    """Refuse a grid above GRID_CAP with ValueError, before any kernel on it is built."""
    if m > GRID_CAP:
        raise ValueError(f"the solver takes at most {GRID_CAP} grid cells, got m = {m}")


def solve_entropy(pot: Potential, xi_target: float, rho: float, m: int = DEFAULT_GRID,
                  kernel: KernelMatrix | None = None) -> SolveResult:
    """Multistart entropy maximization at fixed (xi, rho).

    Runs solve_multipliers from the default_seeds in the batches of
    spectral_seeds; a batch runs only if no seed of an earlier one converged.
    On the curve the constant attains the bound S <= -hbin(rho) that the
    convexity of hbin puts on every profile, so once it converges no other
    seed runs.  Each candidate's seed is its family index k (0 the constant).
    The converged candidate of maximal entropy wins; ties within 1e-9 go to
    the lower seed index.  The winner is circularly shifted by align_peak.  If
    every seed fails the result comes back with converged=False and the
    least-bad diagnostics (ties to the lower seed index).  candidates
    summarizes the seeds that ran, in the order they ran, each with its seed
    index, stop and certificate.

    A given kernel saves rebuilding the table across calls and must be
    cell_kernel(pot, m): one on another grid raises ValueError; that it was
    built from pot is not checked.  An m above GRID_CAP raises ValueError
    (check_grid) before any kernel is built.
    """
    check_grid(m)
    K = kernel if kernel is not None else cell_kernel(pot, m)
    if K.m != m:
        raise ValueError(f"kernel is on m = {K.m} cells, not m = {m}; pass cell_kernel(pot, m)")
    seeds = default_seeds(K.m, rho)
    results = []
    for batch in spectral_seeds(K, xi_target, rho):
        results += [(k, solve_multipliers(K, xi_target, rho, seeds[k])) for k in batch]
        if any(r.converged for _, r in results):
            break

    keys = ("branch", "entropy_S", "converged", "residuals", "stop", "certificate")
    summaries = tuple({"seed": k, **{key: getattr(r, key) for key in keys}} for k, r in results)
    converged = [(k, r) for k, r in results if r.converged]
    if not converged:
        _, best = min(results, key=lambda kr: (max(kr[1].residuals), kr[0]))
        return replace(best, candidates=summaries)
    top = max(r.entropy_S for _, r in converged)
    _, best = min((kr for kr in converged if kr[1].entropy_S >= top - 1e-9), key=lambda kr: kr[0])
    return replace(best, profile=align_peak(best.profile), candidates=summaries)


def align_peak(prof: OccupancyProfile) -> OccupancyProfile:
    """Circularly shift a periodic profile so its peak cell sits at cell m/2.

    The peak cell is the lowest-index cell within PEAK_TIE_EPS of the maximum
    whose cyclic predecessor is not (cell 0 if all tie): the first cell of the
    first run of tied maxima, so an even peak on two cells lands on m/2, m/2 + 1.
    """
    top = prof.values >= prof.values.max() - PEAK_TIE_EPS
    starts = np.flatnonzero(top & ~np.roll(top, 1))
    return make_profile(np.roll(prof.values, prof.m // 2 - (int(starts[0]) if starts.size else 0)))


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
    d = s - np.roll(s, 1)
    sign = np.zeros(s.size, dtype=int)
    sign[d > PEAK_TIE_EPS] = 1
    sign[d < -PEAK_TIE_EPS] = -1
    # a peak is a descent whose previous nonzero slope (cyclically) is an ascent;
    # it sits at the cell before the descent
    nz = np.flatnonzero(sign)
    top = nz[(sign[nz] == -1) & (sign[np.roll(nz, 1)] == 1)] - 1
    return int(np.sum(s[top] > thresh))
