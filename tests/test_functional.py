"""Entropy, energy and density functionals on discretized profiles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import latgas as lg
from latgas.potential import KernelMatrix

LOG2 = math.log(2.0)


class TestHbin:
    def test_symmetric_minimum(self):
        assert lg.hbin(0.5) == 0.0

    def test_limit_convention(self):
        assert lg.hbin(0.0) == pytest.approx(LOG2, rel=1e-15)
        assert lg.hbin(1.0) == pytest.approx(LOG2, rel=1e-15)

    def test_quarter_value(self):
        # direct evaluation, cross-checked by the t <-> 1-t symmetry
        assert lg.hbin(0.25) == pytest.approx(0.130812035941137, abs=1e-12)
        assert lg.hbin(0.25) == lg.hbin(0.75)

    def test_outside_is_inf(self):
        assert lg.hbin(-0.1) == math.inf
        assert lg.hbin(1.1) == math.inf

    def test_nonnegative_sampled(self, rng):
        t = rng.uniform(0.0, 1.0, 500)
        assert np.all(lg.hbin(t) >= 0.0)

    @given(st.floats(0.0, 1.0))
    def test_bounded_and_symmetric(self, t):
        t = 1.0 - (1.0 - t)  # now 1 - t is exact, so the two sides must agree bitwise
        assert 0.0 <= lg.hbin(t) <= LOG2
        assert lg.hbin(t) == lg.hbin(1.0 - t)


class TestEntropy:
    def test_half_profile_zero(self):
        assert lg.entropy_H(lg.constant_profile(32, 0.5)) == 0.0

    def test_constant_profile(self):
        for m in (8, 64, 256):
            f = lg.constant_profile(m, 0.23)
            assert lg.entropy_H(f) == pytest.approx(lg.hbin(0.23), rel=1e-14)

    def test_indicator_profile(self):
        f = lg.make_profile(np.array([1.0] * 8 + [0.0] * 8))
        assert lg.entropy_H(f) == pytest.approx(LOG2, rel=1e-14)

    def test_zero_only_at_half(self, rng):
        v = rng.uniform(0.05, 0.95, 64)
        v[3] = 0.4
        assert lg.entropy_H(lg.make_profile(v)) > 0.0


class TestXiAndDensity:
    def test_constant_profile_energy(self, kernel256):
        f = lg.constant_profile(256, 0.23)
        assert lg.xi(f, kernel256) == pytest.approx(7.0 * 0.23 ** 2, abs=1e-9)

    def test_zero_profile(self, kernel256):
        f = lg.make_profile(np.zeros(256))
        assert lg.xi(f, kernel256) == 0.0

    def test_block_indicator_closed_form(self, pot_a2):
        # single block of length 1/4: closed form 2 rho^(2-r)/((1-r)(2-r)) = 1/3
        K = lg.cell_kernel(pot_a2, 1024)
        f = lg.indicator_profile(1024, [(0.0, 0.25)])
        assert lg.xi(f, K) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_size_mismatch(self, kernel256):
        with pytest.raises(ValueError):
            lg.xi(lg.constant_profile(64, 0.2), kernel256)

    def test_density_examples(self):
        assert lg.density_N(lg.constant_profile(16, 0.37)) == pytest.approx(0.37)
        assert lg.density_N(lg.indicator_profile(8, [(0.0, 0.25)])) == pytest.approx(0.25)
        assert lg.density_N(lg.make_profile([0.1, 0.3, 0.5, 0.7])) == pytest.approx(0.4)


class TestApplyKernel:
    def test_constant_profile_field(self, kernel256):
        f = lg.constant_profile(256, 0.23)
        np.testing.assert_allclose(lg.apply_kernel(kernel256, f), 7.0 * 0.23,
                                   rtol=0, atol=1e-9)

    def test_unit_cell(self, kernel256):
        v = np.zeros(256)
        v[17] = 1.0
        f = lg.make_profile(v)
        np.testing.assert_allclose(lg.apply_kernel(kernel256, f),
                                   toeplitz(kernel256.row)[17] / 256, rtol=1e-12)

    def test_commutes_with_shift(self, kernel256, rng):
        v = rng.uniform(0.0, 1.0, 256)
        out = lg.apply_kernel(kernel256, lg.make_profile(v))
        out_shifted = lg.apply_kernel(kernel256, lg.make_profile(np.roll(v, 37)))
        np.testing.assert_allclose(out_shifted, np.roll(out, 37), rtol=1e-10, atol=1e-12)


class TestGradients:
    def test_flat_entropy_gradient(self, kernel256):
        f = lg.constant_profile(256, 0.5)
        grad_h, _ = lg.gradients(f, kernel256)
        np.testing.assert_allclose(grad_h, 0.0, atol=1e-14)

    def test_constant_energy_gradient(self, kernel256):
        f = lg.constant_profile(256, 0.23)
        _, grad_xi = lg.gradients(f, kernel256)
        np.testing.assert_allclose(grad_xi, 2.0 * 7.0 * 0.23 / 256, rtol=0, atol=1e-11)

    def test_finite_difference_agreement(self, pot_a2, rng):
        K = lg.cell_kernel(pot_a2, 64)
        h = 1e-6
        for _ in range(5):
            v = rng.uniform(0.1, 0.9, 64)
            grad_h, grad_xi = lg.gradients(lg.make_profile(v), K)
            for idx in rng.integers(0, 64, size=4):
                vp, vm = v.copy(), v.copy()
                vp[idx] += h
                vm[idx] -= h
                fd_h = (lg.entropy_H(lg.make_profile(vp)) - lg.entropy_H(lg.make_profile(vm))) / (2 * h)
                fd_xi = (lg.xi(lg.make_profile(vp), K) - lg.xi(lg.make_profile(vm), K)) / (2 * h)
                assert abs(grad_h[idx] - fd_h) / abs(grad_h[idx] + 1e-30) < 1e-5 or \
                    abs(grad_h[idx] - fd_h) < 1e-10
                assert abs(grad_xi[idx] - fd_xi) / abs(grad_xi[idx]) < 1e-5

    def test_boundary_flag(self, kernel256):
        v = np.full(256, 0.5)
        v[0] = 0.0
        with pytest.raises(ValueError):
            lg.gradients(lg.make_profile(v), kernel256)


class TestQuadraticFormProperties:
    def test_polarization(self, kernel256, rng):
        for _ in range(10):
            f = rng.uniform(0.0, 0.5, 256)
            g = rng.uniform(0.0, 0.5, 256)
            lhs = (lg.xi(lg.make_profile(f + g), kernel256)
                   - lg.xi(lg.make_profile(f), kernel256)
                   - lg.xi(lg.make_profile(g), kernel256))
            rhs = 2.0 * float(f @ (toeplitz(kernel256.row) @ g)) / 256 ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_nonnegative(self, kernel256, rng):
        for _ in range(20):
            f = rng.uniform(0.0, 1.0, 256)
            assert lg.xi(lg.make_profile(f), kernel256) >= 0.0

    @given(st.integers(2, 64).flatmap(lambda m: st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))))
    def test_row_form_matches_dense(self, row_and_values):
        row, values = (np.array(v) for v in row_and_values)
        # a circulant row also satisfies row[k] = row[m - k]
        row = 0.5 * (row + np.roll(row[::-1], 1))
        m = row.size
        dense = float(values @ toeplitz(row) @ values) / m ** 2
        # relative to the form's scale, so cancelling rows do not divide by ~0
        scale = float(np.abs(row).sum()) * (values.sum() / m) ** 2
        got = lg.xi(lg.make_profile(values), KernelMatrix(m=m, row=row))
        assert abs(got - dense) <= 1e-13 * max(abs(dense), scale)

    def test_dense_table_stays_lazy(self, pot_a2, rng):
        # the functionals read the row; the folded half-size tables are built
        # for the solver on first use, and act as the dense table on even and
        # on odd profiles (the odd grid's centre cell is its own mirror)
        for m in (128, 129):
            K = lg.cell_kernel(pot_a2, m)
            f = lg.make_profile(rng.uniform(0.0, 1.0, m))
            lg.xi(f, K)
            lg.apply_kernel(K, f)
            lg.gradients(f, K)
            lg.spectral_radius(K)
            assert "folded" not in vars(K)
            At, Ao, w = K.folded
            assert not any(b.flags.writeable for b in (At, Ao, w))
            assert w.sum() == m
            A, h, n = toeplitz(K.row), w.size, Ao.shape[0]
            even, odd = f.values + f.values[::-1], f.values - f.values[::-1]
            np.testing.assert_allclose(At @ even[:h], (A @ even)[:h], rtol=1e-12)
            np.testing.assert_allclose(Ao @ odd[:n], (A @ odd)[:n], rtol=0,
                                       atol=1e-12 * np.abs(A @ odd).max())


class TestProfilePlumbing:
    def test_validation(self):
        with pytest.raises(ValueError):
            lg.make_profile([0.5])
        with pytest.raises(ValueError):
            lg.make_profile([0.5, 1.2])
        with pytest.raises(ValueError):
            lg.make_profile([0.5, math.nan])

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=300))
    def test_csv_roundtrip(self, values):
        f = lg.make_profile(values)
        back = lg.profile_from_csv(lg.profile_to_csv(f))
        assert back.m == f.m
        np.testing.assert_allclose(back.values, f.values, rtol=1e-11)

    @pytest.mark.parametrize("rows", [lambda r: r[::-1], lambda r: r[:-1]],
                             ids=["reversed", "truncated"])
    def test_csv_rows_off_their_cells_refused(self, rows):
        header, *body = lg.profile_to_csv(lg.make_profile([0.1, 0.2, 0.3, 0.4])).splitlines()
        with pytest.raises(ValueError, match="cell_center"):
            lg.profile_from_csv("\n".join([header, *rows(body)]))

    def test_block_average(self):
        v = np.array([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(lg.block_average(v, 2), [0.5, 0.5])
        np.testing.assert_allclose(lg.block_average(v, 8), np.repeat(v, 2))
        with pytest.raises(ValueError):
            lg.block_average(v, 3)

    @pytest.mark.parametrize("m_new", [0, -2])
    def test_block_average_needs_a_cell(self, m_new):
        with pytest.raises(ValueError, match="at least one cell"):
            lg.block_average(np.ones(4), m_new)
        with pytest.raises(ValueError, match="at least one cell"):
            lg.profile(lg.make_config(4, [1, 0, 0, 1]), m_new)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.integers(1, 8))
    def test_block_average_inverts_repeat(self, values, q):
        v = np.array(values)
        np.testing.assert_allclose(lg.block_average(np.repeat(v, q), v.size), v,
                                   rtol=1e-14, atol=0)

    @given(st.integers(1, 12), st.integers(1, 8), st.data())
    def test_block_average_keeps_mean(self, coarse, q, data):
        # coarsening by q and refining by 2 both keep the mean of a nested grid
        fine = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=coarse * q,
                                           max_size=coarse * q)))
        for m_new in (coarse, 2 * coarse * q):
            assert lg.block_average(fine, m_new).mean() == pytest.approx(fine.mean(),
                                                                          rel=0, abs=1e-14)
