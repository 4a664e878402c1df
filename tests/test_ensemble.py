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


def reference_sample(n, pot, window, steps, chains, rng_seed, init=None,
                     track_states=False, track_every=1):
    """Plain per-step sampler: every post-burn step aligns and adds its state.

    Same draws, anneal and merge as mcmc_sample, but no dwell bookkeeping, so
    it is the oracle for the one-alignment-per-visited-state accumulation.
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
                shift = shift_onto(occf, init_values) if init_values is not None else 0
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

    @pytest.mark.parametrize("n,steps,chains,with_init,track", [
        (32, 3000, 1, True, False),
        (32, 3000, 1, False, False),
        (32, 2500, 2, True, False),
        (32, 7, 2, True, False),
        (32, 2000, 2, False, False),
        (8, 4000, 1, False, True),
        (8, 7, 1, False, True),
        (32, 2 * ensemble.DRAW_CHUNK + 7, 2, True, False),  # crosses two draw chunks
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

    def test_tied_shifts_take_the_fft_route(self, pot_a2, solve_below, monkeypatch):
        # a template of period n/2 ties every shift s with s + n/2, so the running
        # correlation cannot pick between them and each state must use _aligned
        init = lg.make_profile(np.tile(lg.block_average(solve_below.profile.values, 16), 2))
        window = lg.EnsembleWindow(xi=XI_CURVE - 0.02, rho=RHO, delta=0.05)
        calls = []
        aligned = ensemble._aligned
        monkeypatch.setattr(ensemble, "_aligned", lambda *a: calls.append(a) or aligned(*a))
        stats = lg.mcmc_sample(32, pot_a2, window, steps=3000, chains=1, rng_seed=17,
                               init=init)
        assert calls  # one chain: nothing to merge, so every call is a fallback
        ref = reference_sample(32, pot_a2, window, 3000, 1, 17, init=init)
        assert_same_as_reference(stats, ref)

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
