"""Exact window enumeration and the window-constrained swap sampler."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import latgas as lg
from latgas import cli, ensemble

from conftest import POTENTIALS, traced_peak_mb

RHO = 0.23
XI_CURVE = 7.0 * RHO * RHO

# (n, rho, delta) on the 0.01 grid, n <= 60, where the slice's rule
# (rho - delta) n < k < (rho + delta) n and the density test
# rho - delta < k / n < rho + delta judge k = round(rho n) differently
DENSITY_EDGES = [
    (10, 0.94, 0.04), (20, 0.47, 0.02), (20, 0.93, 0.02), (25, 0.21, 0.01),
    (25, 0.27, 0.01), (25, 0.41, 0.01), (25, 0.42, 0.02), (25, 0.54, 0.02),
    (25, 0.55, 0.01), (25, 0.69, 0.01), (25, 0.82, 0.02), (45, 0.21, 0.01),
    (45, 0.41, 0.01), (50, 0.21, 0.01), (50, 0.27, 0.01), (50, 0.41, 0.01),
    (50, 0.55, 0.01), (50, 0.69, 0.01),
]


def slice_configs(n, pot, window):
    """Direct scan oracle: all configurations inside the window."""
    psi = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = abs(i - j)
            d = min(d, n - d)
            psi[i, j] = lg.eval_psi(pot, d / n)
    out = []
    for bits in itertools.product([0, 1], repeat=n):
        b = np.array(bits, dtype=float)
        E = float(b @ psi @ b) / n ** 2
        N = b.mean()
        if (window.xi - window.delta < E < window.xi + window.delta
                and window.rho - window.delta < N < window.rho + window.delta):
            out.append(bits)
    return out


def integer_template(values, width):
    """The template G of mcmc_sample's correlation, scaled to integers below 2^52 / n:
    G[z] is the twice-smoothed values averaged over cells z - width + 1 .. z."""
    smooth = ensemble._smooth_cyclic
    G = np.roll(smooth(smooth(values, width), width), width - 1)
    return np.rint(G * 2.0 ** (52 - values.size.bit_length()))


def circulant_of(G):
    """C[y, s] = G[(y + s) mod n], so that occ @ C correlates occ with G."""
    n = G.size
    return G[(np.arange(n)[:, None] + np.arange(n)) % n]


def reference_sample(n, pot, window, steps, chains, rng_seed, init=None,
                     track_states=False, track_every=1):
    """Plain per-step sampler: every post-burn step aligns and adds its state.

    Same draws, anneal and merge as mcmc_sample, but no dwell bookkeeping and
    no running correlation: each step sums its correlation afresh, by a matrix
    product, from the integer template, and takes the first maximum.  So it is
    the oracle for the O(n) update and the one-alignment-per-visited-state
    accumulation.
    """
    k = int(round(window.rho * n))
    psi = toeplitz(lg.potential.pair_row(pot, n))
    lo = (window.xi - window.delta) * n * n
    hi = (window.xi + window.delta) * n * n
    width = max(3, n // 16)
    burn = int(steps * ensemble.BURN_IN)
    smooth = ensemble._smooth_cyclic

    def shift_onto(values, reference):
        corr = np.fft.irfft(np.fft.rfft(smooth(reference, width))
                            * np.conj(np.fft.rfft(smooth(values, width))), n)
        return int(np.argmax(corr))

    init_values = lg.block_average(init.values, n) if init is not None else None
    if init_values is not None:
        # C[y, s] = G[(y + s) mod n]: the state occ correlates with the template as occ @ C
        C = circulant_of(integer_template(init_values, width))
    state_counts = {} if track_states else None
    accepted = proposals = samples = 0
    e_sum, e_min, e_max = 0.0, math.inf, -math.inf
    stuck = False
    chain_means = []
    for child in np.random.SeedSequence(rng_seed).spawn(chains):
        rng = np.random.Generator(np.random.Philox(child))
        occ, s, E = ensemble._anneal_into_window(psi, k, lo, hi, init_values, rng)
        occ_idx = np.flatnonzero(occ)
        emp_idx = np.flatnonzero(~occ)
        profile = np.zeros(n)
        rejects_in_row = 0
        for t in range(steps):
            a = rng.integers(k)
            b = rng.integers(n - k)
            i, j = occ_idx[a], emp_idx[b]
            E_new = E + (-2.0 * s[i] + psi[i, i] + 2.0 * (s[j] - psi[i, j]) + psi[j, j])
            proposals += 1
            if lo < E_new < hi:
                occ_idx[a], emp_idx[b] = j, i
                occ[i], occ[j] = False, True
                s += psi[j] - psi[i]
                E = E_new
                accepted += 1
                rejects_in_row = 0
            else:
                rejects_in_row += 1
                stuck = stuck or rejects_in_row >= n
            if t >= burn:
                occf = occ.astype(float)
                shift = int(np.argmax(occf @ C)) if init_values is not None else 0
                profile += np.roll(occf, shift)
                samples += 1
                e = float(E) / (n * n)
                e_sum += e
                e_min, e_max = min(e_min, e), max(e_max, e)
                if track_states and (t - burn) % track_every == 0:
                    key = int(sum(1 << int(c) for c in np.flatnonzero(occ)))
                    state_counts[key] = state_counts.get(key, 0) + 1
        chain_means.append(profile / (steps - burn))
    merged = chain_means[0].copy()
    for cm in chain_means[1:]:
        merged += np.roll(cm, shift_onto(cm, merged))
    merged /= len(chain_means)
    merged = np.roll(merged, n // 2 - int(np.argmax(smooth(merged, width))))
    return dict(mean_profile=np.clip(merged, 0.0, 1.0), accepted_moves=accepted,
                proposals=proposals, state_counts=state_counts, stuck_warning=stuck,
                energy_trace_summary=(e_sum / samples, e_min, e_max))


def reference_anneal(psi, k, lo, hi, init_values, rng):
    """Scalar anneal: each of a batch's 32 tries drawn and judged on its own.

    The oracle for `_anneal_into_window`, which draws and judges the batch at
    once; same draws, same walk, same (occ, s, E) and the same refusal.
    """
    n = psi.shape[0]
    center = 0.5 * (lo + hi)
    for restart in range(ensemble.ANNEAL_RESTARTS + 1):
        occ = ensemble._initial_config(n, k, None if restart else init_values, rng)
        s = sum((psi[y] for y in np.flatnonzero(occ)), np.zeros(n))
        E = float(occ.astype(float) @ s)
        tries = 0
        while not lo < E < hi and tries < ensemble.ANNEAL_TRIES_PER_SITE * n:
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
                continue
            occ[i] = False
            occ[j] = True
            s += psi[j] - psi[i]
            E += dE
        if lo < E < hi:
            return occ, s, float(E)
    raise ensemble.UnreachableWindow(
        f"could not anneal into the energy window ({lo:.6g}, {hi:.6g}); stuck at {E:.6g}")


def assert_same_as_reference(stats, ref):
    np.testing.assert_array_equal(stats.mean_profile.values, ref["mean_profile"])
    assert stats.accepted_moves == ref["accepted_moves"]
    assert stats.proposals == ref["proposals"]
    assert stats.state_counts == ref["state_counts"]
    assert stats.stuck_warning == ref["stuck_warning"]
    assert stats.energy_trace_summary == ref["energy_trace_summary"]


class TestEnumerate:
    def test_everything_window(self, pot_a2):
        count, S = lg.enumerate_entropy(10, pot_a2, lg.EnsembleWindow(0.0, 0.5, 1e9))
        assert count == 1024
        assert S == 0.0

    def test_empty_configuration_window(self, pot_a2):
        count, S = lg.enumerate_entropy(10, pot_a2, lg.EnsembleWindow(0.0, 0.0, 1e-6))
        assert count == 1
        assert S == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_zero_count_marker(self, pot_a2):
        count, S = lg.enumerate_entropy(8, pot_a2, lg.EnsembleWindow(50.0, 0.5, 1e-6))
        assert count == 0
        assert S == -math.inf

    @pytest.mark.parametrize("n,xi,rho,delta", [
        pytest.param(10, XI_CURVE, 0.3, 0.08, id="even-n"),
        pytest.param(11, XI_CURVE, 0.3, 0.08, id="odd-n"),  # the halves differ in size
        pytest.param(9, 0.63, 0.3, 0.1, id="odd-n-9"),
        pytest.param(10, 0.05, 0.05, 0.1, id="density-below-0"),  # rho - delta < 0
        pytest.param(10, 5.5, 0.9, 0.65, id="density-above-1"),  # rho + delta > 1
        # integer particle-number bounds (3 and 6; 1 and 3) with energies inside the
        # window: only the strict ends keep p = 3 out of both
        pytest.param(12, 0.35, 0.375, 0.125, id="integer-bounds-12"),
        pytest.param(8, 0.4, 0.25, 0.125, id="integer-bounds-8"),
    ])
    def test_against_direct_scan(self, pot_a2, n, xi, rho, delta):
        window = lg.EnsembleWindow(xi=xi, rho=rho, delta=delta)
        count, _ = lg.enumerate_entropy(n, pot_a2, window)
        assert count > 0
        assert count == len(slice_configs(n, pot_a2, window))

    @pytest.mark.parametrize("n,expected", [(12, 40), (16, 308), (20, 4520)])
    def test_reference_window_counts(self, pot_a2, n, expected):
        window = lg.EnsembleWindow(xi=0.4375, rho=0.25, delta=0.05)
        count, S = lg.enumerate_entropy(n, pot_a2, window)
        assert count == expected
        assert S == pytest.approx(math.log(expected / 2.0 ** n) / n, rel=1e-12)

    def test_gap_shrinks_with_n(self, pot_a2):
        window = lg.EnsembleWindow(xi=0.4375, rho=0.25, delta=0.05)
        target = -lg.hbin(0.25)
        gaps = [abs(lg.enumerate_entropy(n, pot_a2, window)[1] - target)
                for n in (12, 16, 20)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_slice_translation_closure(self, pot_a2):
        window = lg.EnsembleWindow(xi=0.3125, rho=0.25, delta=0.05)
        members = {tuple(c) for c in slice_configs(8, pot_a2, window)}
        for c in members:
            for s in range(8):
                assert tuple(np.roll(c, s)) in members

    def test_repeated_runs_identical(self, pot_a2):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=0.3, delta=0.08)
        assert lg.enumerate_entropy(14, pot_a2, window) == \
            lg.enumerate_entropy(14, pot_a2, window)

    def test_cap_refusal_mentions_cost(self, pot_a2):
        with pytest.raises(ValueError, match="2\\^25"):
            lg.enumerate_entropy(25, pot_a2, lg.EnsembleWindow(0.0, 0.5, 1.0))

    def test_record_format(self, tmp_path, monkeypatch, capsys):
        # the CLI's enumeration.csv record, and its stdout line, for given counts
        monkeypatch.setattr(ensemble, "enumerate_entropy", lambda *args: (40, -0.385740559384))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[potential]\nkind = power_plateau\nr = 0.5\nM = 10\n")
        assert cli.main(["enumerate", "--config", str(cfg), "--n", "12", "--xi", "0.4375",
                         "--rho", "0.25", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "12,40,4096,-0.385740559384\n"
        assert (tmp_path / "enumeration.csv").read_text() == \
            "n,count,total,empirical_S\n12,40,4096,-0.385740559384\n"

    def test_window_validation(self):
        for delta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta"):
                lg.EnsembleWindow(0.1, 0.2, delta)
        for xi, rho in ((math.nan, 0.25), (math.inf, 0.25), (0.3, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                lg.EnsembleWindow(xi, rho, 0.05)


class TestMcmc:
    def test_constant_interaction_uniform(self):
        pot = lg.Potential.constant(3.0)
        window = lg.EnsembleWindow(xi=1.0, rho=RHO, delta=1e6)
        stats = lg.mcmc_sample(128, pot, window, steps=100000, chains=2, rng_seed=7)
        assert stats.acceptance_rate == 1.0
        k = stats.particles
        assert stats.mean_profile.values.mean() == pytest.approx(k / 128, abs=1e-12)
        assert float(np.max(np.abs(stats.mean_profile.values - k / 128))) < 0.05

    def test_particle_number_fixed(self, pot_a2):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.05)
        stats = lg.mcmc_sample(64, pot_a2, window, steps=4000, chains=1, rng_seed=3)
        assert stats.particles == round(RHO * 64)
        assert stats.mean_profile.values.mean() == pytest.approx(stats.particles / 64,
                                                                 abs=1e-12)
        assert stats.accepted_moves <= stats.proposals == 4000

    def test_energy_stays_in_window(self, pot_a2):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.03)
        stats = lg.mcmc_sample(64, pot_a2, window, steps=6000, chains=1, rng_seed=5)
        mean_e, min_e, max_e = stats.energy_trace_summary
        assert window.xi - window.delta < min_e <= mean_e <= max_e < window.xi + window.delta

    def test_below_window_mean_profile_unimodal(self, pot_a2, solve_below):
        window = lg.EnsembleWindow(xi=XI_CURVE - 0.02, rho=RHO, delta=0.01)
        stats = lg.mcmc_sample(256, pot_a2, window, steps=100000, chains=1,
                               rng_seed=31, init=solve_below.profile)
        coarse = lg.make_profile(lg.block_average(stats.mean_profile.values, 16))
        assert lg.classify_branch(coarse, noise_floor=0.01) == "unimodal"

    def test_above_window_mean_profile_multimodal(self, pot_a2, solve_above):
        window = lg.EnsembleWindow(xi=XI_CURVE + 0.02, rho=RHO, delta=0.01)
        stats = lg.mcmc_sample(256, pot_a2, window, steps=60000, chains=1,
                               rng_seed=13, init=solve_above.profile)
        coarse = lg.make_profile(lg.block_average(stats.mean_profile.values, 32))
        assert lg.classify_branch(coarse, noise_floor=0.05).startswith("multimodal")

    def test_uniform_law_on_tiny_slice(self, pot_a2):
        # n = 8, pair distance >= 2: 20 configurations, uniform stationary law
        window = lg.EnsembleWindow(xi=0.3125, rho=0.25, delta=0.05)
        members = {int(sum(b << i for i, b in enumerate(c)))
                   for c in slice_configs(8, pot_a2, window)}
        assert len(members) == 20
        stats = lg.mcmc_sample(8, pot_a2, window, steps=120000, chains=1,
                               rng_seed=99, track_states=True, track_every=25)
        counts = stats.state_counts
        assert set(counts) <= members
        total = sum(counts.values())
        p = 1.0 / len(members)
        se = math.sqrt(p * (1 - p) / total)
        for key in members:
            freq = counts.get(key, 0) / total
            assert abs(freq - p) <= 3.0 * se

    def test_stuck_chain_warning(self, pot_a2):
        # window admits only the evenly spread configuration: every swap rejected
        bits = np.zeros(16)
        bits[[0, 4, 8, 12]] = 1
        cfg = lg.make_config(16, bits)
        e0 = lg.energy_density(cfg, pot_a2)
        window = lg.EnsembleWindow(xi=e0, rho=0.25, delta=1e-9)
        init = lg.profile(cfg, 16)
        stats = lg.mcmc_sample(16, pot_a2, window, steps=400, chains=1,
                               rng_seed=1, init=init)
        assert stats.stuck_warning
        assert stats.accepted_moves == 0

    def test_anneal_restarts_where_the_greedy_walk_stalls(self, pot_a2):
        # this window holds only the top energy level of the 6-particle
        # configurations on 9 sites; the greedy walk stalls below it (at
        # n^2 E = 196.7) from some starts, and the restarts must reach it
        window = lg.EnsembleWindow(xi=3.0584, rho=6 / 9, delta=0.5432)
        members = {sum(bit << i for i, bit in enumerate(c))
                   for c in slice_configs(9, pot_a2, window)}
        for seed in range(60):
            stats = lg.mcmc_sample(9, pot_a2, window, steps=20, chains=1, rng_seed=seed,
                                   track_states=True)
            assert set(stats.state_counts) <= members

    def test_unreachable_window_raises(self, pot_a2):
        # 0.23 * 100 is an exact particle count, so only the anneal can fail
        window = lg.EnsembleWindow(xi=100.0, rho=RHO, delta=1e-6)
        with pytest.raises(RuntimeError):
            lg.mcmc_sample(100, pot_a2, window, steps=100, chains=1, rng_seed=2)

    def test_track_every_must_be_positive(self, pot_a2):
        window = lg.EnsembleWindow(xi=0.3125, rho=0.25, delta=0.05)
        with pytest.raises(ValueError, match="track_every"):
            lg.mcmc_sample(8, pot_a2, window, steps=100, chains=1, rng_seed=99,
                           track_states=True, track_every=0)

    @pytest.mark.parametrize("n,rho,kw,message", [
        (ensemble.SAMPLE_CAP + 1, RHO, {}, "at most"),
        (1, RHO, {}, "at least 2"),
        (64, RHO, dict(steps=0), "at least 1"),
        (64, RHO, dict(chains=0), "at least 1"),
        (61, RHO, dict(track_states=True), "tiny lattices"),
        (64, RHO, dict(track_every=0), "track_every"),
        (16, 0.26, {}, "particle number"),
    ])
    def test_arguments_checked_before_anything_is_built(self, pot_a2, solve_below, monkeypatch,
                                                        n, rho, kw, message):
        def built(*args):
            raise AssertionError("built before the arguments were checked")

        monkeypatch.setattr(ensemble, "pair_row", built)
        monkeypatch.setattr(ensemble, "block_average", built)
        args = dict(steps=10, chains=1, rng_seed=1, init=solve_below.profile) | kw
        with pytest.raises(ValueError, match=message):
            lg.mcmc_sample(n, pot_a2, lg.EnsembleWindow(xi=0.4, rho=rho, delta=0.001), **args)

    def test_init_grid_checked_before_the_pair_row(self, pot_a2, solve_below, monkeypatch):
        def built(*args):
            raise AssertionError("built before the init grid was checked")

        monkeypatch.setattr(ensemble, "pair_row", built)
        with pytest.raises(ValueError, match="not nested"):
            lg.mcmc_sample(100, pot_a2, lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.01),
                           steps=10, chains=1, rng_seed=1, init=solve_below.profile)

    def test_chain_memory_is_linear_in_n(self, pot_a2, solve_above):
        # at the cap a dense pair table alone takes 134 MB, a k x n gather 62 MB
        window = lg.EnsembleWindow(xi=XI_CURVE + 0.02, rho=RHO, delta=0.01)
        peak = traced_peak_mb(lambda: lg.mcmc_sample(
            ensemble.SAMPLE_CAP, pot_a2, window, steps=300, chains=1, rng_seed=1,
            init=solve_above.profile))
        assert peak < 4.0

    @given(POTENTIALS, st.integers(2, 64), st.data())
    def test_the_doubled_row_reads_the_table(self, pot, n, data):
        # row j of the table is the view rr[n - j:2n - j]; the anneal's field and
        # energy, summed over the occupied rows, are the dense products
        row = lg.potential.pair_row(pot, n)
        rr, psi = np.tile(row, 2), toeplitz(row)
        assert all(np.array_equal(rr[n - j:2 * n - j], psi[j]) for j in range(n))
        # mcmc_sample's table: those rows as one read-only view, no n x n array
        view = np.lib.stride_tricks.sliding_window_view(rr, n)[n:0:-1]
        assert np.array_equal(view, psi) and np.shares_memory(view, rr)
        k = data.draw(st.integers(1, n - 1))
        target = np.zeros(n)
        target[data.draw(st.permutations(range(n)))[:k]] = 1.0
        # the walk starts from the block of k sites, outside a window around the
        # energy e of the drawn configuration unless the two energies are equal
        block = (np.arange(n) < k).astype(float)
        e = target @ psi @ target
        half = data.draw(st.floats(0.05, 0.5)) * abs(e - block @ psi @ block) + 1e-9 * (abs(e) + 1)
        rng = np.random.Generator(np.random.Philox(data.draw(st.integers(0, 2 ** 32))))
        occ, s, E = ensemble._anneal_into_window(view, k, e - half, e + half, block, rng)
        x = occ.astype(float)
        scale = k * np.abs(row).max()
        np.testing.assert_allclose(s, psi @ x, rtol=1e-12, atol=1e-12 * scale)
        assert E == pytest.approx(x @ psi @ x, rel=1e-12, abs=1e-12 * k * scale)

    def test_density_window_guard(self, pot_a2):
        with pytest.raises(ValueError):
            lg.mcmc_sample(16, pot_a2, lg.EnsembleWindow(0.4, 0.26, 0.001),
                           steps=10, chains=1, rng_seed=4)

    @pytest.mark.parametrize("n,rho,delta", DENSITY_EDGES)
    def test_particle_count_judged_by_the_slice_rule(self, pot_a2, monkeypatch, n, rho,
                                                     delta):
        class ChainStarted(Exception):
            pass

        def start(*args):
            raise ChainStarted

        monkeypatch.setattr(ensemble, "_anneal_into_window", start)
        k = round(rho * n)
        in_slice = (rho - delta) * n < k < (rho + delta) * n
        assert in_slice != (rho - delta < k / n < rho + delta)
        with pytest.raises(ChainStarted if in_slice else ValueError):
            lg.mcmc_sample(n, pot_a2, lg.EnsembleWindow(xi=0.5, rho=rho, delta=delta),
                           steps=10, chains=1, rng_seed=1)

    def test_determinism(self, pot_a2):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.05)
        a = lg.mcmc_sample(32, pot_a2, window, steps=3000, chains=2, rng_seed=11)
        b = lg.mcmc_sample(32, pot_a2, window, steps=3000, chains=2, rng_seed=11)
        np.testing.assert_array_equal(a.mean_profile.values, b.mean_profile.values)
        assert a.accepted_moves == b.accepted_moves

    def test_numpy_integer_n(self, pot_a2, solve_below):
        window = lg.EnsembleWindow(xi=XI_CURVE - 0.02, rho=RHO, delta=0.05)
        a, b = (lg.mcmc_sample(n, pot_a2, window, steps=500, chains=1, rng_seed=11,
                               init=solve_below.profile) for n in (32, np.int64(32)))
        np.testing.assert_array_equal(a.mean_profile.values, b.mean_profile.values)

    @pytest.mark.parametrize("n,steps,chains,with_init,track", [
        (32, 3000, 1, True, False),
        (32, 3000, 1, False, False),
        (32, 2500, 2, True, False),
        (32, 7, 2, True, False),
        (32, 2000, 2, False, False),
        (8, 4000, 1, False, True),
        (8, 7, 1, False, True),
        (32, 2 * ensemble.DRAW_CHUNK + 7, 2, True, False),  # crosses two draw chunks
        # without a template each site sums the post-burn steps it was held: chains
        # of 1, 2, 5 and 7 steps (burn 0, 0, 1, 1); the 1-step chain and both 7-step
        # chains end on an accepted swap (seed 17)
        pytest.param(32, 1, 1, False, False, id="1-step-ends-accepted"),
        (32, 2, 1, False, False),
        (32, 5, 2, False, False),
        pytest.param(32, 7, 2, False, False, id="7-steps-end-accepted"),
        (8, 40, 2, False, True),
        (8, 4000, 2, False, True),
    ])
    def test_matches_per_step_reference(self, pot_a2, solve_below, n, steps, chains,
                                        with_init, track):
        window = lg.EnsembleWindow(xi=XI_CURVE - 0.02 if n > 8 else 0.3125,
                                   rho=RHO if n > 8 else 0.25, delta=0.05)
        init = solve_below.profile if with_init else None
        kw = dict(track_states=True, track_every=3) if track else {}
        stats = lg.mcmc_sample(n, pot_a2, window, steps=steps, chains=chains, rng_seed=17,
                               init=init, **kw)
        ref = reference_sample(n, pot_a2, window, steps, chains, 17, init=init, **kw)
        np.testing.assert_array_equal(stats.mean_profile.values, ref["mean_profile"])
        assert stats.accepted_moves == ref["accepted_moves"]
        assert stats.proposals == ref["proposals"]
        assert stats.state_counts == ref["state_counts"]
        assert stats.stuck_warning == ref["stuck_warning"]
        assert stats.energy_trace_summary == ref["energy_trace_summary"]

    def test_matches_reference_at_sample_command_size(self, pot_a2, solve_above):
        # the regime of `latgas sample`: n = 512 above the curve, seeded by the optimizer
        window = lg.EnsembleWindow(xi=XI_CURVE + 0.02, rho=RHO, delta=0.01)
        stats = lg.mcmc_sample(512, pot_a2, window, steps=3000, chains=2, rng_seed=1,
                               init=solve_above.profile)
        ref = reference_sample(512, pot_a2, window, 3000, 2, 1, init=solve_above.profile)
        assert_same_as_reference(stats, ref)

    def test_tied_shifts_take_the_first_maximum(self, pot_a2, solve_below, monkeypatch):
        # a template of period n/2 ties every shift s with s + n/2; the exact
        # correlation takes the first of them, and no state needs an FFT
        init = lg.make_profile(np.tile(lg.block_average(solve_below.profile.values, 16), 2))
        window = lg.EnsembleWindow(xi=XI_CURVE - 0.02, rho=RHO, delta=0.05)

        def aligned(*args):
            raise AssertionError("one chain has nothing to merge, so nothing to align")

        monkeypatch.setattr(ensemble, "_aligned", aligned)
        stats = lg.mcmc_sample(32, pot_a2, window, steps=3000, chains=1, rng_seed=17,
                               init=init)
        ref = reference_sample(32, pot_a2, window, 3000, 1, 17, init=init)
        assert_same_as_reference(stats, ref)

    def test_constant_template_aligns_only_the_merge(self, pot_a2, solve_on_curve,
                                                     monkeypatch):
        # on the curve the optimizer is constant, so every shift ties; each state
        # stays where it is and the one FFT alignment is the merge of the two chains
        assert np.ptp(solve_on_curve.profile.values) == 0.0
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.01)
        calls = []
        aligned = ensemble._aligned
        monkeypatch.setattr(ensemble, "_aligned", lambda *a: calls.append(a) or aligned(*a))
        stats = lg.mcmc_sample(64, pot_a2, window, steps=3000, chains=2, rng_seed=3,
                               init=solve_on_curve.profile)
        assert len(calls) == 1
        ref = reference_sample(64, pot_a2, window, 3000, 2, 3, init=solve_on_curve.profile)
        assert_same_as_reference(stats, ref)

    @given(st.integers(2, 64), st.data())
    def test_running_correlation_is_the_direct_sum(self, n, data):
        # after every swap the O(n) update equals the correlation summed afresh,
        # in another order, bit for bit: every sum of the integer template is exact
        values = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        width = max(3, n // 16)
        C = circulant_of(integer_template(values, width))
        k = data.draw(st.integers(1, n - 1))
        # a window that holds every configuration: each proposed swap is accepted
        window = lg.EnsembleWindow(xi=0.0, rho=k / n, delta=1e6)
        seen = []
        fold = ensemble._fold

        def checked(P2, occ_idx, dwell, corr):
            occ = np.zeros(n)
            occ[occ_idx] = 1.0
            assert corr.tobytes() == (occ @ C).tobytes()
            seen.append(dwell)
            fold(P2, occ_idx, dwell, corr)

        steps = data.draw(st.integers(1, 60))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_fold", checked)
            stats = lg.mcmc_sample(n, lg.Potential.constant(1.0), window, steps=steps,
                                   chains=1, rng_seed=data.draw(st.integers(0, 2 ** 32)),
                                   init=lg.make_profile(values))
        assert stats.acceptance_rate == 1.0
        assert sum(seen) == steps - int(steps * ensemble.BURN_IN)

    @given(st.integers(2, 64), st.data())
    def test_fold_adds_at_the_first_maximum(self, n, data):
        # correlations of a few levels tie often; the state lands at the first
        # maximum shift, in the doubled profile, and corr is left as it was
        corr = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                        dtype=float)
        before = corr.tobytes()
        occ_idx = np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n - 1))])
        dwell = data.draw(st.integers(1, 9))
        P2 = np.zeros(2 * n)
        ensemble._fold(P2, occ_idx, dwell, corr)
        first = min(s for s in range(n) if corr[s] == corr.max())
        expected = np.zeros(2 * n)
        expected[occ_idx + first] = dwell
        np.testing.assert_array_equal(P2, expected)
        assert corr.tobytes() == before

    @pytest.mark.parametrize("steps,chunk", [
        (1000, None),  # one block, shorter than a chunk
        (2 * ensemble.DRAW_CHUNK + 7, None),  # crosses two chunk boundaries
        (300, 7),  # odd chunks: blocks that start and end on a pending half word
    ])
    @pytest.mark.parametrize("k", [1, 15], ids=["one-particle", "one-hole"])
    def test_bound_one_draws_match_reference(self, pot_a2, monkeypatch, k, steps, chunk):
        # every k-particle configuration on 16 sites has one energy when k or 16 - k is 1
        if chunk:
            monkeypatch.setattr(ensemble, "DRAW_CHUNK", chunk)
        xi = lg.energy_density(lg.make_config(16, np.arange(16) < k), pot_a2)
        window = lg.EnsembleWindow(xi=xi, rho=k / 16, delta=0.05)
        stats = lg.mcmc_sample(16, pot_a2, window, steps=steps, chains=2, rng_seed=5,
                               track_states=True)
        assert stats.particles == k and stats.acceptance_rate == 1.0
        ref = reference_sample(16, pot_a2, window, steps, 2, 5, track_states=True)
        assert_same_as_reference(stats, ref)

    @given(st.integers(4, 10), st.data())
    def test_visited_states_lie_in_the_slice(self, pot_a2, n, data):
        # the window edges sit halfway between energy levels of the k-particle
        # configurations, so no rounding of the running energy can cross them
        k = data.draw(st.integers(1, n - 1))
        levels = sorted({lg.energy_density(lg.make_config(n, np.isin(np.arange(n), c)), pot_a2)
                         for c in itertools.combinations(range(n), k)})
        a = data.draw(st.integers(0, len(levels) - 1))
        b = data.draw(st.integers(a, len(levels) - 1))
        lo = (levels[a - 1] + levels[a]) / 2 if a > 0 else levels[a] - 1.0
        hi = (levels[b] + levels[b + 1]) / 2 if b + 1 < len(levels) else levels[b] + 1.0
        window = lg.EnsembleWindow(xi=(lo + hi) / 2, rho=k / n, delta=(hi - lo) / 2)
        stats = lg.mcmc_sample(n, pot_a2, window, steps=400, chains=1,
                               rng_seed=data.draw(st.integers(0, 2 ** 32)),
                               track_states=True)
        members = {sum(bit << i for i, bit in enumerate(c))
                   for c in slice_configs(n, pot_a2, window)}
        assert stats.state_counts and set(stats.state_counts) <= members

    def test_chain_acceptance(self, pot_a2):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.05)
        stats = lg.mcmc_sample(32, pot_a2, window, steps=2000, chains=3, rng_seed=11)
        assert len(stats.chain_acceptance) == 3
        assert len(set(stats.chain_acceptance)) > 1  # each chain counts its own moves
        assert np.mean(stats.chain_acceptance) == pytest.approx(stats.acceptance_rate,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("steps,chains", [(0, 1), (10, 0)])
    def test_empty_run_refused(self, pot_a2, steps, chains):
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.05)
        with pytest.raises(ValueError, match="at least 1"):
            lg.mcmc_sample(32, pot_a2, window, steps=steps, chains=chains, rng_seed=1)


class TestAnneal:
    """The batched anneal against `reference_anneal`: bitwise the same start or the
    same refusal, with the generator left in the same state, on the sampler's
    read-only view of the pair row and on the dense table."""

    @staticmethod
    def outcome(anneal, psi, k, lo, hi, init_values, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        try:
            occ, s, E = anneal(psi, k, lo, hi, init_values, rng)
        except ensemble.UnreachableWindow as refused:
            return str(refused), bit_state(rng)
        return (occ.tobytes(), s.tobytes(), E, type(E)), bit_state(rng)

    def assert_same(self, pot, n, window, init_values, seeds):
        _, lo, hi = window.bounds(n)
        k = round(window.rho * n)
        row = lg.potential.pair_row(pot, n)
        view = np.lib.stride_tricks.sliding_window_view(np.tile(row, 2), n)[n:0:-1]
        outcomes = []
        for psi in (view, toeplitz(row)):
            for seed in seeds:
                got = self.outcome(ensemble._anneal_into_window, psi, k, lo, hi, init_values, seed)
                assert got == self.outcome(reference_anneal, psi, k, lo, hi, init_values, seed)
                outcomes.append(got[0])
        return outcomes

    @pytest.mark.parametrize("dxi", [-0.02, 0.0, 0.02])
    @pytest.mark.parametrize("with_init", [True, False])
    @pytest.mark.parametrize("n", [64, 128])
    def test_greedy_walks(self, pot_a2, solve_below, n, with_init, dxi):
        init_values = lg.block_average(solve_below.profile.values, n) if with_init else None
        window = lg.EnsembleWindow(xi=XI_CURVE + dxi, rho=RHO, delta=0.01)
        self.assert_same(pot_a2, n, window, init_values, range(4))

    def test_restarts_with_sideways_moves(self, pot_a2, monkeypatch):
        # test_anneal_restarts_where_the_greedy_walk_stalls' window: some walks
        # stall, and the restarts take sideways moves into the top level
        walks = []
        start = ensemble._initial_config
        monkeypatch.setattr(ensemble, "_initial_config", lambda *a: walks.append(a) or start(*a))
        window = lg.EnsembleWindow(xi=3.0584, rho=6 / 9, delta=0.5432)
        outcomes = self.assert_same(pot_a2, 9, window, None, range(60))
        assert len(walks) > 4 * 60  # four anneals per seed, and some restarted
        assert all(not isinstance(o, str) for o in outcomes)

    def test_unreachable_window_refused_alike(self, pot_a2):
        window = lg.EnsembleWindow(xi=100.0, rho=0.25, delta=1e-6)
        outcomes = self.assert_same(pot_a2, 16, window, None, range(2))
        assert all(o.startswith("could not anneal") for o in outcomes)


def bit_state(rng):
    st = rng.bit_generator.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(), st["buffer"].tolist(),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


def scalar_draws(rng, k, m, count):
    pairs = [(int(rng.integers(k)), int(rng.integers(m))) for _ in range(count)]
    return [[a for a, _ in pairs], [b for _, b in pairs]]


class TestSwapDraws:
    """The sampler's broadcast draw against scalar `Generator.integers` calls on a
    fresh Philox.

    These pin the numpy property the sampler relies on: rng.integers(0, (k, m),
    size=(count, 2)) draws its elements in C order, each as a scalar call with
    that bound would.  If numpy changes that, these fail instead of the
    sampler's chains changing silently.
    """

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "half-word-pending"])
    @pytest.mark.parametrize("count", [1, 2, 3, 4096])
    # the sampler's bounds at n = 8 and n = 512; bound 1, which takes no word, so
    # that odd counts leave a half word pending; the largest 32-bit bounds; and
    # 2^31 + 1, for which numpy rejects about half of all draws
    @pytest.mark.parametrize("k,m", [(2, 6), (118, 394), (1, 7), (7, 1), (1, 1),
                                     (2 ** 32 - 1, 2 ** 32), (2 ** 31 + 1, 6)])
    def test_matches_scalar_draws(self, k, m, count, pending):
        for seed in range(5):
            fast = np.random.Generator(np.random.Philox(seed))
            slow = np.random.Generator(np.random.Philox(seed))
            if pending:  # one 32-bit draw leaves the high half of a raw word pending
                assert fast.integers(3) == slow.integers(3)
                assert fast.bit_generator.state["has_uint32"] == 1
            draws = fast.integers(0, (k, m), size=(count, 2)).T.tolist()
            assert draws == scalar_draws(slow, k, m, count)
            assert all(type(v) is int for column in draws for v in column)
            # the stream continues where scalar draws leave it, pending half word and all
            assert bit_state(fast) == bit_state(slow)
            assert fast.integers(1000, size=5).tolist() == slow.integers(1000, size=5).tolist()
            assert fast.random() == slow.random()


class TestCompareProfile:
    def _stats_with_profile(self, values):
        prof = lg.make_profile(values)
        return lg.McmcStats(n=prof.m, chains=1, steps=0, accepted_moves=0,
                            mean_profile=prof, energy_trace_summary=(0, 0, 0),
                            seed=0, particles=0, proposals=0, acceptance_rate=0.0,
                            stuck_warning=False)

    def test_identical_is_zero(self, solve_below):
        stats = self._stats_with_profile(solve_below.profile.values)
        assert lg.compare_profile(stats, solve_below.profile) == 0.0

    def test_shifted_copy_is_zero(self, solve_below):
        stats = self._stats_with_profile(np.roll(solve_below.profile.values, 77))
        assert lg.compare_profile(stats, solve_below.profile) == pytest.approx(0.0,
                                                                               abs=1e-12)

    def test_block_averages_to_common_grid(self, solve_below):
        fine = np.repeat(solve_below.profile.values, 2)
        stats = self._stats_with_profile(fine)
        assert lg.compare_profile(stats, solve_below.profile) == pytest.approx(0.0,
                                                                               abs=1e-12)

    def test_incompatible_grids(self, solve_below):
        stats = self._stats_with_profile(np.full(96, 0.2))
        with pytest.raises(ValueError):
            lg.compare_profile(stats, solve_below.profile)

    def test_stats_dict(self, pot_a2):
        # the JSON record keeps every field, the visited-state counts included
        window = lg.EnsembleWindow(xi=XI_CURVE, rho=RHO, delta=0.05)
        stats = lg.mcmc_sample(32, pot_a2, window, steps=500, chains=2, rng_seed=11,
                               track_states=True)
        d = json.loads(cli._json_record(stats))
        assert d["rng_name"] == "philox"
        assert d["seed"] == 11
        assert d["mean_profile"] == {"m": 32, "values": stats.mean_profile.values.tolist()}
        assert d["chain_acceptance"] == list(stats.chain_acceptance)
        assert {int(k): v for k, v in d["state_counts"].items()} == stats.state_counts
