"""Lattice configurations: densities, profiles, and the Riemann gap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import latgas as lg


def brute_energy(cfg, pot):
    """Reference O(n^2) double loop over all ordered site pairs, torus distance."""
    n = cfg.n
    occ = np.flatnonzero(cfg.occupancy)
    total = 0.0
    for a in occ:
        for b in occ:
            d = abs(int(a) - int(b))
            d = min(d, n - d)
            total += lg.eval_psi(pot, d / n)
    return total / n ** 2


PSI_ONE = lg.Potential.tabulated([(0.0, 0.0), (1e-9, 1.0), (1.0, 1.0)])
KNOTS = [(0.0, 0.5), (0.2, 3.0), (0.45, 1.0), (0.9, 2.0)]
POTENTIALS = (lg.Potential.power_plateau(0.5, 10.0), lg.Potential.tabulated(KNOTS))
# an occupancy on n in [1, 40] sites with a roll shift in [0, n)
BITS_AND_SHIFT = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), st.integers(0, n - 1)))


class TestMakeConfig:
    @pytest.mark.parametrize("occupancy", [[0.5, 1.7, 1], [0, 2, 1], [-1, 0, 1],
                                           [np.nan, 0, 1]])
    def test_occupancy_other_than_0_or_1_refused(self, occupancy):
        # a uint8 cast would make [0.5, 1.7, 1] into [0, 1, 1]
        with pytest.raises(ValueError, match="0 or 1"):
            lg.make_config(3, occupancy)

    def test_bools_and_floats_of_0_and_1_kept(self):
        for occupancy in ([True, False, True], [1.0, 0.0, 1.0]):
            np.testing.assert_array_equal(lg.make_config(3, occupancy).occupancy, [1, 0, 1])


class TestDensities:
    def test_empty(self):
        cfg = lg.make_config(6, np.zeros(6))
        assert lg.particle_density(cfg) == 0.0

    def test_three_fifths(self):
        cfg = lg.make_config(5, [1, 1, 0, 1, 0])
        assert lg.particle_density(cfg) == pytest.approx(0.6)

    def test_full(self):
        cfg = lg.make_config(4, np.ones(4))
        assert lg.particle_density(cfg) == 1.0


class TestEnergyDensity:
    def test_two_cross_pairs(self):
        cfg = lg.make_config(4, [1, 1, 0, 0])
        assert lg.energy_density(cfg, PSI_ONE) == pytest.approx(0.125)

    def test_single_site_no_self_energy(self, pot_a2):
        cfg = lg.make_config(8, [0, 0, 1, 0, 0, 0, 0, 0])
        assert lg.energy_density(cfg, pot_a2) == 0.0

    def test_alternating_vs_brute_force(self, pot_a2):
        cfg = lg.make_config(8, [1, 0] * 4)
        assert lg.energy_density(cfg, pot_a2) == pytest.approx(brute_energy(cfg, pot_a2),
                                                               rel=1e-12)

    def test_random_vs_brute_force(self, rng):
        for pot in POTENTIALS:
            for n in (1, 2, 5, 16, 33):
                bits = (rng.random(n) < 0.4).astype(int)
                cfg = lg.make_config(n, bits)
                assert lg.energy_density(cfg, pot) == pytest.approx(
                    brute_energy(cfg, pot), rel=1e-12), (pot, n, bits)

    @given(BITS_AND_SHIFT, st.sampled_from(POTENTIALS))
    def test_torus_symmetries(self, bits_and_shift, pot):
        # the pair counts by torus offset are exact integers, so a rolled or
        # reversed occupancy gives the same energy bitwise
        bits, shift = np.array(bits_and_shift[0]), bits_and_shift[1]
        n = bits.size
        cfg = lg.make_config(n, bits)
        energy = lg.energy_density(cfg, pot)
        assert lg.energy_density(lg.make_config(n, np.roll(bits, shift)), pot) == energy
        assert lg.energy_density(lg.make_config(n, bits[::-1]), pot) == energy
        assert energy == pytest.approx(brute_energy(cfg, pot), rel=1e-12)

    def test_translation_invariance(self, pot_a2, rng):
        bits = (rng.random(12) < 0.5).astype(int)
        cfg = lg.make_config(12, bits)
        rolled = lg.make_config(12, np.roll(bits, 5))
        assert lg.energy_density(cfg, pot_a2) == pytest.approx(
            lg.energy_density(rolled, pot_a2), rel=1e-12)


class TestProfile:
    def test_identity_at_same_grid(self):
        bits = [1, 0, 1, 1]
        cfg = lg.make_config(4, bits)
        np.testing.assert_array_equal(lg.profile(cfg, 4).values, bits)

    def test_block_means(self):
        cfg = lg.make_config(4, [1, 1, 0, 0])
        np.testing.assert_allclose(lg.profile(cfg, 2).values, [1.0, 0.0])
        cfg = lg.make_config(4, [1, 0, 1, 0])
        np.testing.assert_allclose(lg.profile(cfg, 2).values, [0.5, 0.5])

    def test_refinement(self):
        cfg = lg.make_config(2, [1, 0])
        np.testing.assert_allclose(lg.profile(cfg, 6).values, [1, 1, 1, 0, 0, 0])

    def test_incompatible(self):
        cfg = lg.make_config(4, [1, 0, 0, 0])
        with pytest.raises(ValueError):
            lg.profile(cfg, 3)

    def test_density_preserved_exactly(self, rng):
        bits = (rng.random(64) < 0.3).astype(int)
        cfg = lg.make_config(64, bits)
        assert lg.density_N(lg.profile(cfg, 16)) == lg.particle_density(cfg)
        assert lg.density_N(lg.profile(cfg, 64)) == lg.particle_density(cfg)


class TestRiemannDiscrepancy:
    def test_constant_potential_zero(self):
        assert lg.riemann_discrepancy(16, lg.Potential.constant(2.0)) == 0.0

    def test_monotone_decay(self, pot_a2):
        d = [lg.riemann_discrepancy(n, pot_a2) for n in (32, 64, 128)]
        assert d[0] > d[1] > d[2] > 0.0

    def test_diagonal_lower_bound(self, pot_a2):
        n = 64
        K = lg.cell_kernel(pot_a2, n)
        assert lg.riemann_discrepancy(n, pot_a2) >= K.row[0] / n

    def test_bounds_lattice_continuum_gap(self, pot_a2, rng):
        n = 64
        disc = lg.riemann_discrepancy(n, pot_a2)
        K = lg.cell_kernel(pot_a2, n)
        for _ in range(100):
            bits = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            cfg = lg.make_config(n, bits)
            gap = abs(lg.energy_density(cfg, pot_a2) - lg.xi(lg.profile(cfg, n), K))
            assert gap <= disc + 1e-12

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_matches_double_sum(self, n):
        pot = lg.Potential.power_plateau(0.5, 10.0)
        K = toeplitz(lg.cell_kernel(pot, n).row)
        total = 0.0
        for i in range(n):
            for j in range(n):
                d = abs(i - j)
                d = min(d, n - d)
                total += abs(lg.eval_psi(pot, d / n) - K[i, j])
        assert lg.riemann_discrepancy(n, pot) == pytest.approx(total / n ** 2, rel=1e-13)

    def test_no_cap_beyond_4096(self, pot_a2):
        # the gap is an O(n) sum over offsets, so n = 8192 runs, and keeps decaying
        d4096 = lg.riemann_discrepancy(4096, pot_a2)
        d8192 = lg.riemann_discrepancy(8192, pot_a2)
        assert 0.0 < d8192 < d4096
