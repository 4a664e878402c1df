"""Finite-lattice validation: exact window enumeration and window-constrained
Monte Carlo sampling.

The microcanonical window keeps the energy density in (xi - delta, xi + delta)
and the particle density in (rho - delta, rho + delta); `EnsembleWindow.bounds`
decides its n-site slice once for both readers.  Enumeration counts the slice
exactly (meet-in-the-middle over two half-lattices, paired only in the popcount
blocks of its particle numbers).  The sampler fixes the particle number at
round(rho n), which must be one of them, proposes occupied <-> empty swaps and
accepts exactly when the energy stays in its window; symmetric proposals with
indicator acceptance make the stationary law uniform on the constrained slice.
Each visited state is aligned once, by a correlation that each accepted swap
updates in O(n) without an FFT.  The move loop runs on Python scalars, with
swap indices drawn in blocks, each by one broadcast `Generator.integers` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .functional import OccupancyProfile, block_average, make_profile
from .potential import Potential, pair_row

ENUM_CAP = 24
BURN_IN = 0.2  # fraction of each chain discarded before averaging
ANNEAL_TRIES_PER_SITE = 500  # proposals per site of the greedy walk and of each restart
ANNEAL_RESTARTS = 2  # random restarts, with sideways moves, after the greedy walk stalls
TIE_MARGIN = 1e-9  # shifts within this fraction of the best correlation defer to the FFT
DRAW_CHUNK = 4096  # proposals whose swap indices are drawn in one block


@dataclass(frozen=True)
class EnsembleWindow:
    """Target energy / density pair with the shared half-width delta."""

    xi: float
    rho: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("window half-width delta must be positive and finite")
        if not (math.isfinite(self.xi) and math.isfinite(self.rho)):
            raise ValueError("window center xi and rho must be finite")

    def bounds(self, n: int) -> tuple[list[int], float, float]:
        """The n-site slice: the particle numbers p in ((rho - delta) n, (rho + delta) n)
        and the pair-energy interval ((xi - delta) n^2, (xi + delta) n^2)."""
        if n < 2:
            raise ValueError("n must be at least 2")
        lo, hi = (self.rho - self.delta) * n, (self.rho + self.delta) * n
        particles = [p for p in range(n + 1) if lo < p < hi]
        return particles, (self.xi - self.delta) * n * n, (self.xi + self.delta) * n * n


@dataclass
class McmcStats:
    """One `mcmc_sample` run: its n, chains, steps and seed; the particle number
    k = round(rho n); proposals = chains * steps; accepted_moves, the accepted swaps,
    acceptance_rate = accepted_moves / proposals and each chain's chain_acceptance;
    the merged, aligned post-burn-in mean_profile; energy_trace_summary, the (mean,
    min, max) of E / n^2 after burn-in; stuck_warning, set when a chain met n
    rejections in a row; the bit generator's rng_name; and, with track_states,
    state_counts: post-burn-in visits, every track_every steps, by state bit mask."""

    n: int
    chains: int
    steps: int
    accepted_moves: int
    mean_profile: OccupancyProfile
    energy_trace_summary: tuple[float, float, float]
    seed: int
    particles: int
    proposals: int
    acceptance_rate: float
    stuck_warning: bool
    rng_name: str = "philox"
    state_counts: dict | None = None
    chain_acceptance: tuple[float, ...] = ()


def _bit_matrix(bits: int) -> np.ndarray:
    masks = np.arange(1 << bits, dtype=np.int64)
    return ((masks[:, None] >> np.arange(bits)[None, :]) & 1).astype(float)


def enumerate_entropy(n: int, pot: Potential, window: EnsembleWindow) -> tuple[int, float]:
    """Exact count of window configurations and n^-1 log(count / 2^n).

    Splits the chain into two halves and groups each half's masks by
    popcount.  For every particle number p inside the density window and
    every split p = pA + pB, one matrix product of the two half-lattice
    blocks gives all their pair energies.  An empty window returns count 0
    and a -inf entropy marker.
    """
    if n > ENUM_CAP:
        raise ValueError(
            f"n={n} would enumerate 2^{n} ~ {2.0 ** n:.3g} configurations; "
            f"the cap is {ENUM_CAP}")
    particles, lo_e, hi_e = window.bounds(n)
    psi = toeplitz(pair_row(pot, n))
    n1 = n // 2
    n2 = n - n1
    XA = _bit_matrix(n1)
    XB = _bit_matrix(n2)
    eA = np.einsum("mi,ij,mj->m", XA, psi[:n1, :n1], XA)
    eB = np.einsum("mi,ij,mj->m", XB, psi[n1:, n1:], XB)
    cross = XA @ psi[:n1, n1:]
    popA = XA.sum(axis=1)
    popB = XB.sum(axis=1)
    count = 0
    for p in particles:
        for pA in range(max(0, p - n2), min(n1, p) + 1):
            a = popA == pA
            b = popB == p - pA
            E = eA[a, None] + 2.0 * (cross[a] @ XB[b].T) + eB[None, b]
            count += int(((E > lo_e) & (E < hi_e)).sum())
    if count == 0:
        return 0, -math.inf
    return count, math.log(count / (1 << n)) / n


def _smooth_cyclic(values: np.ndarray, width: int) -> np.ndarray:
    padded = np.concatenate([values, values[:width]])
    cs = np.concatenate([[0.0], np.cumsum(padded)])
    return (cs[width:width + values.size] - cs[:values.size]) / width


def _aligned(values: np.ndarray, width: int, spectrum: np.ndarray) -> np.ndarray:
    """Roll values so that their smoothed copy best correlates with the
    reference whose smoothed rfft is `spectrum`."""
    corr = np.fft.irfft(spectrum * np.conj(np.fft.rfft(_smooth_cyclic(values, width))),
                        values.size)
    return np.roll(values, int(np.argmax(corr)))


def _fold(profile: np.ndarray, occ_idx: np.ndarray, dwell: int, corr: np.ndarray | None,
          width: int, spectrum: np.ndarray | None) -> None:
    """Add dwell copies of the state occupying occ_idx to profile, aligned by argmax corr."""
    if corr is None:
        profile[occ_idx] += dwell
        return
    shift = int(np.argmax(corr))
    if np.count_nonzero(corr >= (1.0 - TIE_MARGIN) * corr[shift]) > 1:  # too close to call
        occ = np.zeros(profile.size)
        occ[occ_idx] = 1.0
        profile += dwell * _aligned(occ, width, spectrum)
    else:
        profile[occ_idx + (shift - profile.size)] += dwell  # negative indices wrap around


def mcmc_sample(n: int, pot: Potential, window: EnsembleWindow, steps: int,
                chains: int, rng_seed: int, init: OccupancyProfile | None = None,
                track_states: bool = False, track_every: int = 1) -> McmcStats:
    """Window-constrained swap sampler with exact particle number.

    Chains hold k = round(rho n) particles, a particle number of the window's
    slice (`EnsembleWindow.bounds`) strictly between 0 and n, and start from
    the rounded init profile if given (top cells by occupancy), else from a
    seeded random configuration, annealed into the energy window.  Samples
    after the burn-in fraction BURN_IN are circularly aligned before averaging
    when an init profile pins the frame, by the shift that best correlates the
    sample, smoothed over max(3, n // 16) cells, with the smoothed template.
    Swap indices come DRAW_CHUNK proposals at a time from one broadcast call
    rng.integers(0, (k, n - k), size=(count, 2)), which draws each element as a
    scalar rng.integers(k) or rng.integers(n - k) would, in C order, so chains
    are bitwise those of per-proposal calls; the move loop reads Python scalars.
    Each visited state is aligned once and added with its dwell count.  As
    smoothing is linear, an accepted swap moves that correlation by two
    shifted copies of the twice-smoothed template, in O(n); a state whose best
    shift is within TIE_MARGIN of another takes `_aligned`'s FFT instead.
    Without a template samples pass through unshifted (aligning featureless
    chains by any max-correlation rule would stack their noise into an
    artificial lump; the collective pattern drifts slowly enough that
    unaligned chain means stay sharp), and chain means are re-aligned onto
    each other before merging.  The mean profile is finally rolled so its
    peak sits at the center cell.  A chain that meets n rejections in a row
    sets the stats' stuck_warning.
    """
    if steps < 1 or chains < 1:
        raise ValueError("steps and chains must be at least 1")
    particles, lo, hi = window.bounds(n)
    k = int(round(window.rho * n))
    if k not in particles or not 0 < k < n:
        raise ValueError(f"round(rho n) = {k} is not a particle number of the window in (0, n)")
    psi = toeplitz(pair_row(pot, n))
    row = psi[0].tolist()  # psi[i, j] = row[abs(i - j)]
    diag = row[0]
    width = max(3, n // 16)
    burn = int(steps * BURN_IN)
    children = np.random.SeedSequence(rng_seed).spawn(chains)

    init_values = template = G2 = None
    if init is not None:
        init_values = block_average(init.values, n)
        smoothed = _smooth_cyclic(init_values, width)
        template = np.fft.rfft(smoothed)
        # G[z] = mean(smoothed[z - width + 1 .. z]); corr[s] = sum of G2[y + s], y occupied
        G2 = np.tile(np.roll(_smooth_cyclic(smoothed, width), width - 1), 2)

    if track_states and n > 60:
        raise ValueError("state tracking is meant for tiny lattices (n <= 60)")
    if track_every < 1:
        raise ValueError("track_every must be at least 1")
    state_counts: dict[int, int] | None = {} if track_states else None

    chain_accepted, chain_means = [], []
    e_sum, e_min, e_max = 0.0, math.inf, -math.inf
    stuck = False

    for chain_idx in range(chains):
        accepted = 0
        rng = np.random.Generator(np.random.Philox(children[chain_idx]))
        occ, s, E = _anneal_into_window(psi, k, lo, hi, init_values, rng)
        occ_idx = np.flatnonzero(occ)  # kept in step with occ_list for _fold
        occ_list, emp_list = occ_idx.tolist(), np.flatnonzero(~occ).tolist()
        key = sum(1 << i for i in occ_list)  # the state's bit mask, for state_counts
        corr = G2[occ_idx[:, None] + np.arange(n)].sum(axis=0) if G2 is not None else None
        chain_profile = np.zeros(n)
        dwell = 0  # post-burn steps the current state has held
        rejects_in_row = 0
        for t0 in range(0, steps, DRAW_CHUNK):
            draws = rng.integers(0, (k, n - k), size=(min(DRAW_CHUNK, steps - t0), 2)).T.tolist()
            for t, a, b in zip(range(t0, steps), *draws):
                i = occ_list[a]
                j = emp_list[b]
                E_new = E + (-2.0 * s.item(i) + diag + 2.0 * (s.item(j) - row[abs(i - j)]) + diag)
                if lo < E_new < hi:
                    if dwell:
                        _fold(chain_profile, occ_idx, dwell, corr, width, template)
                        dwell = 0
                    occ_list[a] = occ_idx[a] = j
                    emp_list[b] = i
                    s += psi[j] - psi[i]
                    if corr is not None:
                        corr += G2[j:j + n]
                        corr -= G2[i:i + n]
                    if state_counts is not None:
                        key += (1 << j) - (1 << i)
                    E = E_new
                    accepted += 1
                    rejects_in_row = 0
                else:
                    rejects_in_row += 1
                    if rejects_in_row >= n:
                        stuck = True
                if t >= burn:
                    dwell += 1
                    e_density = E / (n * n)
                    e_sum += e_density
                    e_min = min(e_min, e_density)
                    e_max = max(e_max, e_density)
                    if state_counts is not None and (t - burn) % track_every == 0:
                        state_counts[key] = state_counts.get(key, 0) + 1
        _fold(chain_profile, occ_idx, dwell, corr, width, template)
        chain_means.append(chain_profile / (steps - burn))
        chain_accepted.append(accepted)

    # merge chains coherently: align every chain mean onto the first one
    merged = chain_means[0].copy()
    for cm in chain_means[1:]:
        merged += _aligned(cm, width, np.fft.rfft(_smooth_cyclic(merged, width)))
    merged /= len(chain_means)
    merged = np.roll(merged, n // 2 - int(np.argmax(_smooth_cyclic(merged, width))))
    mean_profile = make_profile(np.clip(merged, 0.0, 1.0))

    return McmcStats(
        n=n, chains=chains, steps=steps,
        accepted_moves=sum(chain_accepted),
        mean_profile=mean_profile,
        energy_trace_summary=(e_sum / (chains * (steps - burn)), e_min, e_max),
        seed=int(rng_seed),
        particles=k,
        proposals=chains * steps,
        acceptance_rate=sum(chain_accepted) / (chains * steps),
        stuck_warning=stuck,
        state_counts=state_counts,
        chain_acceptance=tuple(a / steps for a in chain_accepted),
    )


def _initial_config(n: int, k: int, init_values: np.ndarray | None,
                    rng: np.random.Generator) -> np.ndarray:
    occ = np.zeros(n, dtype=bool)
    if init_values is not None:
        # occupy the k cells with the largest target occupancy; jitter breaks
        # ties reproducibly through the chain RNG
        order = np.argsort(-(init_values + 1e-9 * rng.random(n)), kind="stable")
        occ[order[:k]] = True
    else:
        occ[rng.choice(n, size=k, replace=False)] = True
    return occ


def _anneal_into_window(psi: np.ndarray, k: int, lo: float, hi: float,
                        init_values: np.ndarray | None, rng: np.random.Generator):
    """A chain's start: k particles walked by swaps into the energy window.

    Every walk starts from `_initial_config`: the first from the init profile,
    a restart from a random configuration.  The first walk takes the best of a
    batch of 32 random swaps when it brings the energy closer to the window
    centre.  After ANNEAL_TRIES_PER_SITE * n proposals outside the window it
    starts again, up to ANNEAL_RESTARTS times, now also taking a sideways move
    (the batch's last swap) when no swap of the batch is closer; then it raises.
    """
    n = psi.shape[0]
    center = 0.5 * (lo + hi)
    for restart in range(ANNEAL_RESTARTS + 1):
        occ = _initial_config(n, k, None if restart else init_values, rng)
        s = psi @ occ.astype(float)
        E = float(occ.astype(float) @ s)
        tries = 0
        while not lo < E < hi and tries < ANNEAL_TRIES_PER_SITE * n:
            occ_idx = np.flatnonzero(occ)
            emp_idx = np.flatnonzero(~occ)
            best = None
            for _ in range(32):
                i = occ_idx[rng.integers(occ_idx.size)]
                j = emp_idx[rng.integers(emp_idx.size)]
                dE = -2.0 * s[i] + psi[i, i] + 2.0 * (s[j] - psi[i, j]) + psi[j, j]
                gain = abs(E + dE - center) - abs(E - center)
                if best is None or gain < best[0]:
                    best = (gain, i, j, dE)
                tries += 1
            if best[0] < 0.0:
                _, i, j, dE = best
            elif not restart:
                continue  # batch had no improving move; resample
            occ[i] = False
            occ[j] = True
            s += psi[j] - psi[i]
            E += dE
        if lo < E < hi:
            return occ, s, float(E)
    raise RuntimeError(
        f"could not anneal into the energy window ({lo:.6g}, {hi:.6g}); stuck at {E:.6g}")


def compare_profile(stats: McmcStats, f_star: OccupancyProfile) -> float:
    """Shift-minimized L1 distance between the mean profile and a target.

    The two grids are block-averaged onto the coarser one first; the grids
    must be nested.
    """
    a = stats.mean_profile.values
    b = f_star.values
    m = min(a.size, b.size)
    a = block_average(a, m)
    b = block_average(b, m)
    best = math.inf
    for shift in range(m):
        d = float(np.abs(np.roll(a, shift) - b).mean())
        if d < best:
            best = d
    return best
