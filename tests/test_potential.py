"""Potential evaluation, integrated interaction, and kernel assembly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import toeplitz

import latgas as lg
from latgas import potential

from conftest import POTENTIALS, traced_peak_mb


def quad_lambda(pot):
    """Independent quadrature of the integrated interaction int_0^1 psi (d = 1)."""
    knots = {t for t, _ in pot.samples}
    points = sorted(p for p in {0.25, 0.5, 0.75} | knots | {1.0 - t for t in knots}
                    if 0.0 < p < 1.0)

    val, err = integrate.quad(lambda t: lg.eval_psi(pot, t), 0.0, 1.0, points=points,
                              limit=200)
    assert err < 1e-8
    return val


class TestEvalPsi:
    def test_zero_distance_is_zero(self, pot_a2):
        assert lg.eval_psi(pot_a2, 0.0) == 0.0

    def test_power_core(self, pot_a2):
        assert lg.eval_psi(pot_a2, 0.01) == pytest.approx(10.0, abs=1e-12)

    def test_mirror_symmetry_value(self, pot_a2):
        assert lg.eval_psi(pot_a2, 0.9) == pytest.approx(0.1 ** -0.5, rel=1e-12)

    def test_plateau(self, pot_a2):
        assert lg.eval_psi(pot_a2, 0.3) == 10.0

    def test_domain_error(self, pot_a2):
        with pytest.raises(ValueError):
            lg.eval_psi(pot_a2, 1.5)
        with pytest.raises(ValueError):
            lg.eval_psi(pot_a2, -0.1)

    def test_symmetry_sampled(self, pot_a2, rng):
        t = rng.uniform(0.0, 1.0, size=1000)
        np.testing.assert_allclose(lg.eval_psi(pot_a2, t), lg.eval_psi(pot_a2, 1.0 - t),
                                   rtol=0, atol=1e-12)

    def test_nonnegative_sampled(self, pot_a2, rng):
        t = rng.uniform(0.0, 1.0, size=1000)
        assert np.all(lg.eval_psi(pot_a2, t) >= 0.0)

    def test_constant_keeps_self_interaction(self):
        pot = lg.Potential.constant(3.0)
        assert lg.eval_psi(pot, 0.0) == 3.0

    def test_tabulated_interpolates(self):
        pot = lg.Potential.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert lg.eval_psi(pot, 0.25) == pytest.approx(0.5)

    def test_tabulated_knots_past_half_are_folded_away(self):
        # psi is read at the torus distance, so only the knots' graph on [0, 1/2] counts
        pot = lg.Potential.tabulated([(0.0, 1.0), (1.0, 3.0)])
        assert lg.eval_psi(pot, 0.9) == lg.eval_psi(pot, 0.1) == pytest.approx(1.2, abs=1e-15)
        far = lg.Potential.tabulated([(0.0, 1.0), (0.5, 2.0), (0.9, 100.0)])
        near = lg.Potential.tabulated([(0.0, 1.0), (0.5, 2.0)])
        assert lg.integrated_interaction(far) == lg.integrated_interaction(near) == 1.5


class TestIntegratedInteraction:
    def test_closed_form_vs_quadrature(self, pot_a2):
        lam = lg.integrated_interaction(pot_a2)
        assert lam == pytest.approx(7.0, abs=1e-12)
        assert lam == pytest.approx(quad_lambda(pot_a2), abs=1e-8)

    def test_constant(self):
        assert lg.integrated_interaction(lg.Potential.constant(3.0)) == 3.0

    def test_low_plateau(self):
        pot = lg.Potential.power_plateau(0.5, 4.0)
        assert lg.integrated_interaction(pot) == pytest.approx(4.0, abs=1e-12)
        assert lg.integrated_interaction(pot) == pytest.approx(quad_lambda(pot), abs=1e-8)

    @pytest.mark.parametrize("pot, exact", [
        # folded profile is the tent 1 + 2 min(t, 1-t): integral = 1.5
        (lg.Potential.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)]), 1.5),
        (lg.Potential.tabulated([(0.1, 3.0), (0.45, 1.0)]), None),
    ], ids=["periodic-tent", "periodic-tabulated"])
    def test_exact_moment_vs_quadrature(self, pot, exact):
        lam = lg.integrated_interaction(pot)
        assert lam == pytest.approx(quad_lambda(pot), rel=1e-12)
        if exact is not None:
            assert lam == pytest.approx(exact, rel=1e-14)


class TestCellKernel:
    def test_pure_constant_entries(self):
        K = lg.cell_kernel(lg.Potential.constant(2.5), 16)
        np.testing.assert_allclose(toeplitz(K.row), 2.5, rtol=0, atol=1e-12)

    def test_power_core_diagonal(self, pot_a2):
        K = lg.cell_kernel(pot_a2, 256)
        expected = 2.0 * 256 ** 0.5 / ((1.0 - 0.5) * (2.0 - 0.5))
        assert K.row[0] == pytest.approx(expected, rel=1e-12)

    def test_row_mean_equals_lambda(self, pot_a2):
        K = lg.cell_kernel(pot_a2, 128)
        np.testing.assert_allclose(toeplitz(K.row).mean(axis=1), 7.0, rtol=0, atol=1e-6)

    def test_symmetry_exact(self, kernel256):
        A = toeplitz(kernel256.row)
        assert np.array_equal(A, A.T)

    def test_circulant_exact(self, kernel256):
        m = kernel256.m
        idx = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
        assert np.array_equal(toeplitz(kernel256.row), kernel256.row[idx])

    @given(POTENTIALS, st.integers(2, 200))
    def test_row_is_mirror_symmetric(self, pot, m):
        # row[k] == row[m - k] bitwise: the circulant table is exactly symmetric,
        # which the folded blocks and the rfft spectral radius rely on
        row = potential.kernel_row(pot, m)
        assert np.array_equal(row[1:], row[:0:-1])

    def test_folded_build_peak(self, pot_a2):
        # the two h x h blocks are built with one more h x h array alive at most
        K = potential.KernelMatrix(m=2048, row=potential.kernel_row(pot_a2, 2048))
        peak = traced_peak_mb(lambda: K.folded)
        kept = sum(b.nbytes if b.base is None else b.base.nbytes for b in K.folded) / 1e6
        assert peak <= 1.6 * kept

    def test_refinement_consistency(self, pot_a2):
        r1 = toeplitz(lg.cell_kernel(pot_a2, 64).row).mean(axis=1)
        r2 = toeplitz(lg.cell_kernel(pot_a2, 128).row).mean(axis=1)
        assert abs(r1.mean() - r2.mean()) < 1e-8

    def test_entry_straddling_breakpoint(self, pot_a2):
        # a cell pair whose offsets straddle the 1/4 breakpoint, by quadrature
        # in the offset coordinate u = y - x with its tent weight
        m, k = 32, 8
        lo, mid, hi = (k - 1) / m, k / m, (k + 1) / m
        up, _ = integrate.quad(lambda u: lg.eval_psi(pot_a2, u) * (u - lo), lo, mid,
                               limit=200, epsabs=1e-13)
        down, _ = integrate.quad(lambda u: lg.eval_psi(pot_a2, u) * (hi - u), mid, hi,
                                 limit=200, epsabs=1e-13)
        assert potential.kernel_row(pot_a2, m)[k] == pytest.approx(m * m * (up + down),
                                                                    rel=1e-10)

    @pytest.mark.parametrize("m", [2, 255, 256])
    def test_row_reads_segments_once(self, monkeypatch, m):
        # a tabulated potential evaluates psi at every knot to build its segment
        # list, so the m // 2 + 1 cell-pair integrals share one list
        calls = []
        segments = potential._segments
        monkeypatch.setattr(potential, "_segments", lambda pot: calls.append(pot) or segments(pot))
        table = lg.Potential.tabulated([(0.0, 2.0), (0.15, -1.0), (0.3, 1.5), (0.5, 0.2)])
        potential.kernel_row(table, m)
        assert len(calls) == 1


class TestKernelRowMean:
    @given(POTENTIALS, st.integers(2, 200))
    def test_row_mean_is_lambda(self, pot, m):
        # the mean of the circulant table's m^2 entries, the row mean, is lambda
        row = potential.kernel_row(pot, m)
        assert row.mean() == pytest.approx(lg.integrated_interaction(pot), rel=1e-12,
                                           abs=1e-12)


class TestValidationAndConfig:
    def test_power_plateau_validation(self):
        with pytest.raises(ValueError):
            lg.Potential.power_plateau(1.5, 10.0)
        with pytest.raises(ValueError):
            lg.Potential.power_plateau(0.5, -1.0)
        for M in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="plateau height"):
                lg.Potential.power_plateau(0.5, M)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            lg.Potential.tabulated([(0.0, 1.0)])
        with pytest.raises(ValueError):
            lg.Potential.tabulated([(0.5, 1.0), (0.2, 1.0)])
        for knots in ([(0.0, float("nan")), (1.0, 1.0)], [(0.0, 1.0), (float("inf"), 1.0)]):
            with pytest.raises(ValueError, match="finite"):
                lg.Potential.tabulated(knots)
