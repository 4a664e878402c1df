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
Each visited state is aligned once, by an integer-valued correlation that each
accepted swap updates exactly in O(n), and added at its first maximum into a
profile of 2n cells that is folded once per chain; without a template a chain
sums each site's occupancy time, in O(1) per accepted swap.  Only the enumeration builds
the dense pair table; a chain reads the row stored twice over and holds O(n)
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .functional import OccupancyProfile, block_average, make_profile
from .potential import Potential, pair_row

ENUM_CAP = 24
SAMPLE_CAP = 4096  # bounds time, not memory: 8 s to refuse an unreachable window at the cap
BURN_IN = 0.2  # fraction of each chain discarded before averaging
ANNEAL_TRIES_PER_SITE = 500  # proposals per site of the greedy walk and of each restart
ANNEAL_RESTARTS = 2  # random restarts, with sideways moves, after the greedy walk stalls
DRAW_CHUNK = 4096  # proposals whose swap indices are drawn in one block


class UnreachableWindow(RuntimeError):
    """Raised when the anneal finds no state in the energy window."""


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


def _fold(P2: np.ndarray, occ_idx: np.ndarray, dwell: int, corr: np.ndarray) -> None:
    """Add dwell copies of the state occupying occ_idx, at the first maximum of corr, to
    the doubled profile P2, whose cell z is P2[z] + P2[n + z]."""
    shift = corr.argmax()
    P2[shift:shift + corr.size][occ_idx] += dwell


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
    shifted copies of the twice-smoothed template, in O(n).  The template is
    scaled to integers below 2^52 / n, so every correlation is exact and the
    first maximum decides the shift, also where shifts tie (a constant
    template leaves every state unshifted).  A state adds its sites at that
    offset into a profile of 2n cells, whose halves are summed at chain end,
    so no index wraps.
    Without a template samples pass through unshifted (aligning featureless
    chains by any max-correlation rule would stack their noise into an
    artificial lump; the collective pattern drifts slowly enough that
    unaligned chain means stay sharp): the mean is each site's post-burn
    occupancy time, which an accepted swap i -> j credits to i and starts for
    j, and chain end credits to the sites still occupied.  Chain means are
    re-aligned onto each other before merging.  The mean profile is finally rolled so its
    peak sits at the center cell.  A chain that meets n rejections in a row
    sets the stats' stuck_warning.  Every argument, and the init grid, is
    checked before the pair row is built; a chain that cannot be annealed into
    the window raises UnreachableWindow.
    """
    if n > SAMPLE_CAP:
        raise ValueError(f"the sampler takes at most {SAMPLE_CAP} sites, got n = {n}")
    if steps < 1 or chains < 1:
        raise ValueError("steps and chains must be at least 1")
    if track_states and n > 60:
        raise ValueError("state tracking is meant for tiny lattices (n <= 60)")
    if track_every < 1:
        raise ValueError("track_every must be at least 1")
    particles, lo, hi = window.bounds(n)
    k = int(round(window.rho * n))
    if k not in particles or not 0 < k < n:
        raise ValueError(f"round(rho n) = {k} is not a particle number of the window in (0, n)")
    width = max(3, n // 16)
    init_values = G2 = None
    if init is not None:
        init_values = block_average(init.values, n)
        smoothed = _smooth_cyclic(init_values, width)
        # G[z] = mean(smoothed[z - width + 1 .. z]) lies in [0, 1]; scaled to integers so
        # that a sum of at most n of them stays below 2^53, every correlation
        # corr[s] = sum of G2[y + s], y occupied, is exact however it is summed
        G = np.roll(_smooth_cyclic(smoothed, width), width - 1)
        G2 = np.tile(np.rint(G * 2.0 ** (52 - int(n).bit_length())), 2)
    # a read-only view of the symmetric row stored twice over, rr: psi[j] is rr[n - j:2n - j]
    psi = np.lib.stride_tricks.sliding_window_view(np.tile(pair_row(pot, n), 2), n)[n:0:-1]
    row = psi[0].tolist()  # psi[i, j] = row[abs(i - j)]
    diag = row[0]
    burn = int(steps * BURN_IN)
    children = np.random.SeedSequence(rng_seed).spawn(chains)

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
        if G2 is not None:
            corr = sum((G2[y:y + n] for y in occ_list), np.zeros(n))
            P2 = np.zeros(2 * n)  # the aligned profile, doubled so that shifts never wrap
        else:
            corr = None
            # held[y]: post-burn steps that ended with y occupied, credited when y is
            # vacated; since[y]: the step that last occupied y (0 from the start)
            since, held = [0] * n, [0] * n
        dwell = 0  # post-burn steps the current state has held
        rejects_in_row = 0
        for t0 in range(0, steps, DRAW_CHUNK):
            draws = rng.integers(0, (k, n - k), size=(min(DRAW_CHUNK, steps - t0), 2)).T.tolist()
            for t, a, b in zip(range(t0, steps), *draws):
                i = occ_list[a]
                j = emp_list[b]
                E_new = E + (-2.0 * s.item(i) + diag + 2.0 * (s.item(j) - row[abs(i - j)]) + diag)
                if lo < E_new < hi:
                    if corr is None:
                        if t > burn:
                            held[i] += t - max(since[i], burn)
                        since[j] = t
                    else:
                        if dwell:
                            _fold(P2, occ_idx, dwell, corr)
                            dwell = 0
                        corr += G2[j:j + n]
                        corr -= G2[i:i + n]
                    occ_list[a] = occ_idx[a] = j
                    emp_list[b] = i
                    s += psi[j] - psi[i]
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
        if corr is None:
            for y in occ_list:
                held[y] += steps - max(since[y], burn)
            chain_profile = np.array(held, dtype=float)
        else:
            _fold(P2, occ_idx, dwell, corr)
            chain_profile = P2[:n] + P2[n:]
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
    centre; the batch is drawn by one broadcast call, as the sampler draws,
    and judged at once.  After ANNEAL_TRIES_PER_SITE * n proposals outside the window it
    starts again, up to ANNEAL_RESTARTS times, now also taking a sideways move
    (the batch's last swap) when no swap of the batch is closer; then it
    raises UnreachableWindow.
    """
    n = psi.shape[0]
    center = 0.5 * (lo + hi)
    for restart in range(ANNEAL_RESTARTS + 1):
        occ = _initial_config(n, k, None if restart else init_values, rng)
        s = sum((psi[y] for y in np.flatnonzero(occ)), np.zeros(n))  # psi @ occ, by rows
        E = float(occ.astype(float) @ s)
        tries = 0
        while not lo < E < hi and tries < ANNEAL_TRIES_PER_SITE * n:
            a, b = rng.integers(0, (k, n - k), size=(32, 2)).T
            I, J = np.flatnonzero(occ)[a], np.flatnonzero(~occ)[b]
            dE = -2.0 * s[I] + psi[I, I] + 2.0 * (s[J] - psi[I, J]) + psi[J, J]
            gain = np.abs(E + dE - center) - abs(E - center)
            tries += 32
            best = gain.argmin()  # the first of the batch's smallest gains
            if gain[best] < 0.0:
                i, j, dE = I[best], J[best], dE[best]
            elif restart:
                i, j, dE = I[-1], J[-1], dE[-1]  # sideways: the batch's last swap
            else:
                continue  # batch had no improving move; resample
            occ[i] = False
            occ[j] = True
            s += psi[j] - psi[i]
            E += dE
        if lo < E < hi:
            return occ, s, float(E)
    raise UnreachableWindow(
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
