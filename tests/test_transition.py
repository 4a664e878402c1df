"""Feasibility windows, kink constants, spectral radius, and the curve scan."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import latgas as lg
from latgas import cli, solver, transition
from latgas.potential import KernelMatrix

RHO = 0.23
# a tabulated interaction whose kernel has a negative and a positive lambda_k
FOUR_KNOTS = lg.Potential.tabulated([(0.0, 2.0), (0.15, -1.0), (0.3, 1.5), (0.5, 0.2)])


@pytest.fixture(scope="module")
def scan_023(pot_a2):
    return lg.scan_transition(pot_a2, RHO, [0.005, 0.01, 0.02], m=256)


class TestFeasibilityProbe:
    def test_reference_window(self, pot_a2):
        probe = lg.feasibility_probe(pot_a2, 0.25)
        assert probe.xi1 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert probe.xi2 == pytest.approx(0.4375, rel=1e-12)
        assert probe.xi3 == pytest.approx(0.548202260396, abs=1e-9)
        assert probe.interior
        assert probe.max_grid_error < 2e-3

    def test_small_plateau_fails_ordering(self):
        pot = lg.Potential.power_plateau(0.5, 0.1)
        probe = lg.feasibility_probe(pot, 0.25)
        assert probe.xi1 > probe.xi2
        assert not probe.interior

    def test_low_density_not_certified(self, pot_a2):
        # the single block lies above the constant at rho = 0.10: the probe certifies
        # nothing, though the kernel spectrum puts the curve point inside (the scan runs)
        probe = lg.feasibility_probe(pot_a2, 0.10)
        assert probe.xi1 > probe.xi2 and not probe.interior

    def test_vanishing_density(self, pot_a2):
        probe = lg.feasibility_probe(pot_a2, 1e-3)
        assert max(probe.as_tuple()) < 1e-4

    def test_requires_power_plateau(self):
        with pytest.raises(ValueError):
            lg.feasibility_probe(lg.Potential.constant(3.0), 0.2)
        with pytest.raises(ValueError):
            lg.feasibility_probe(lg.Potential.power_plateau(0.5, 10.0), 0.4)


class TestConvexityGapConstant:
    def test_half_density_limit(self):
        # at rho = 1/2 the ratio is minimized in the t -> 0 limit: hbin''/2 = 2
        assert lg.convexity_gap_constant(0.5) == pytest.approx(2.0, abs=1e-6)

    def test_reference_density(self):
        c = lg.convexity_gap_constant(RHO)
        assert c == pytest.approx(2.2376133443, abs=1e-6)

    def test_dense_grid_oracle(self):
        # independent coarse scan of the same ratio
        rho = RHO
        ts = np.linspace(-rho + 1e-9, 1.0 - rho, 400001)
        ts = ts[np.abs(ts) > 1e-6]
        vals = (lg.hbin(rho + ts) - lg.hbin_prime(rho) * ts - lg.hbin(rho)) / ts ** 2
        # the limit t -> 0 of the ratio is hbin''(rho) / 2 = 1 / (2 rho (1 - rho))
        expected = min(float(vals.min()), 1.0 / (2.0 * rho * (1.0 - rho)))
        assert lg.convexity_gap_constant(rho) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("rho", [1e-300, 1e-17, 0.1, 0.23, 0.4, 0.5, 0.77, 0.9, 1.0 - 1e-16])
    def test_positive(self, rho):
        assert lg.convexity_gap_constant(rho) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lg.convexity_gap_constant(0.0)


class TestSpectralRadius:
    def test_nonnegative_periodic_kernel_gives_lambda(self, kernel256):
        assert lg.spectral_radius(kernel256) == pytest.approx(7.0, abs=1e-9)

    def test_reference_grid(self, pot_a2):
        K = lg.cell_kernel(pot_a2, 512)
        assert lg.spectral_radius(K) == pytest.approx(7.0, abs=1e-4)

    def test_dense_eigensolve_oracle(self, pot_a2):
        K = lg.cell_kernel(pot_a2, 128)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(toeplitz(K.row) / 128))))
        assert lg.spectral_radius(K) == pytest.approx(dense, rel=1e-9)

    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40))
    def test_random_rows_match_eigvalsh(self, values):
        # a circulant row also satisfies row[k] = row[m - k]
        row = np.array(values)
        row = 0.5 * (row + np.roll(row[::-1], 1))
        m = row.size
        K = KernelMatrix(m=m, row=row)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(toeplitz(row) / m))))
        assert lg.spectral_radius(K) == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_identity_kernel(self):
        m = 64
        row = np.zeros(m)
        row[0] = m  # the table m * I
        K = KernelMatrix(m=m, row=row)
        assert lg.spectral_radius(K) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 64, 129, 255, 256, 257, 1024])
    def test_reads_the_cached_spectrum(self, pot_a2, m):
        # sigma is bitwise the largest |rfft(row)| / m; the spectrum cannot be written
        K = lg.cell_kernel(pot_a2, m)
        assert lg.spectral_radius(K) == float(np.max(np.abs(np.fft.rfft(K.row)))) / m
        assert K.spectrum.shape == (m // 2 + 1,)
        np.testing.assert_array_equal(K.spectrum, np.fft.rfft(K.row).real / m)
        with pytest.raises(ValueError, match="read-only"):
            K.spectrum[0] = 0.0
        assert K.spectrum is K.spectrum

    def test_lambda_0_is_the_integrated_interaction(self, pot_a2):
        for m in (256, 512, 1024):
            assert lg.cell_kernel(pot_a2, m).spectrum[0] == lg.integrated_interaction(pot_a2)
        for m in (255, 257):
            assert abs(lg.cell_kernel(pot_a2, m).spectrum[0] - 7.0) < 1e-13

    def test_scaling_homogeneity(self, pot_a2):
        K = lg.cell_kernel(pot_a2, 128)
        K2 = KernelMatrix(m=128, row=2.0 * K.row)
        assert lg.spectral_radius(K2) == pytest.approx(2.0 * lg.spectral_radius(K),
                                                       rel=1e-9)


class TestScanTransition:
    def test_curve_entropy(self, scan_023):
        assert scan_023.S_curve == pytest.approx(-lg.hbin(RHO), abs=1e-8)

    def test_all_points_converged(self, scan_023):
        assert all(p.converged for p in scan_023.points)

    def test_xi_values_bracket_curve(self, scan_023):
        xis = [p.xi_target for p in scan_023.points]
        assert all(b > a for a, b in zip(xis, xis[1:]))
        assert xis[0] < scan_023.lam * RHO ** 2 < xis[-1]

    def test_entropy_bounded_by_curve_value(self, scan_023):
        assert all(p.S <= -lg.hbin(RHO) + 1e-6 for p in scan_023.points)

    def test_kink_inequality(self, scan_023):
        bound = scan_023.kink_lower_bound
        assert scan_023.kink_ok
        xi0 = scan_023.lam * RHO ** 2
        for p in scan_023.points:
            if p.xi_target == xi0:
                continue
            drop = p.S + lg.hbin(RHO)
            assert drop <= -bound * abs(p.xi_actual - xi0) + 1e-4

    def test_one_sided_slopes_exceed_bound(self, scan_023):
        assert abs(scan_023.left_slope) >= scan_023.kink_lower_bound
        assert abs(scan_023.right_slope) >= scan_023.kink_lower_bound

    def test_hypothesis_tag(self, scan_023):
        # r = 1/2 sits exactly on the boundary of the proof's r < 1/2 regime
        assert not scan_023.within_hypotheses

    def test_branches_flip_across_curve(self, scan_023):
        mid = len(scan_023.points) // 2
        assert scan_023.points[mid].branch == "constant"
        assert all(p.branch == "unimodal" for p in scan_023.points[:mid])
        assert all(p.branch.startswith("multimodal") for p in scan_023.points[mid + 1:])

    @pytest.mark.parametrize("rho", [0.18, 0.20, 0.23, 0.25])
    def test_closed_form_slopes(self, pot_a2, rho):
        # the spectrum's one-sided slopes agree with the extrapolated secants,
        # and the winners have k_below bumps below the curve and k_above above it
        scan = lg.scan_transition(pot_a2, rho, [0.005, 0.01, 0.02], m=256)
        assert (scan.k_below, scan.k_above) == (1, 3)
        assert abs(scan.spectral_left - scan.left_slope) <= 5e-3
        assert abs(scan.spectral_right - scan.right_slope) <= 5e-3
        assert scan.supercritical is True
        mid = len(scan.points) // 2
        assert {solver._peak_count(p.branch) for p in scan.points[:mid]} == {scan.k_below}
        assert {solver._peak_count(p.branch) for p in scan.points[mid + 1:]} == {scan.k_above}

    def test_closed_form_slopes_reference(self, scan_023):
        assert scan_023.spectral_left == pytest.approx(1.73929, abs=1e-5)
        assert scan_023.spectral_right == pytest.approx(-1.97275, abs=1e-5)

    def test_closed_form_slope_needs_a_mode_of_its_sign(self):
        # every lambda_k > 0: no branch leaves the constant below the curve
        K = lg.cell_kernel(lg.Potential.power_plateau(0.7, 2.0), 64)
        left, right, _, k_above = transition.spectral_slopes(K, RHO)
        assert math.isnan(left) and right < 0.0 and k_above == 1

    def test_constant_interaction_refused(self):
        # every lambda_k, k >= 1, of a constant interaction is stored as 0
        with pytest.raises(transition.UnscannableCurve):
            lg.scan_transition(lg.Potential.constant(3.0), RHO, [0.01])

    def test_no_negative_mode_refused(self, monkeypatch):
        # at r = 0.9 every lambda_k, k >= 1, of the m = 256 kernel is positive: the
        # curve point is not interior, and the scan refuses before any solve
        monkeypatch.setattr(transition, "solve_entropy", None)
        with pytest.raises(transition.UnscannableCurve, match="negative"):
            lg.scan_transition(lg.Potential.power_plateau(0.9, 10.0), RHO, [0.01], m=256)

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("pot", [lg.Potential.power_plateau(0.5, 10.0),
                                     lg.Potential.constant(3.0)], ids=["power", "constant"])
    def test_rho_outside_unit_interval_refused(self, pot, rho):
        # rho is checked before the kernel is built, so on a constant interaction too
        with pytest.raises(ValueError, match="rho must lie in"):
            lg.scan_transition(pot, rho, [0.01], m=64)

    @pytest.mark.parametrize("pot, rho, deltas", [
        (lg.Potential.power_plateau(0.5, 10.0), 0.30, [0.005, 0.01, 0.02]),
        (lg.Potential.power_plateau(0.5, 10.0), 0.10, [0.005, 0.01]),
        # lambda_1 = -0.112 is the table's largest negative mode: below the curve
        # the solves at xi0 - 0.01 and xi0 - 0.02 no longer converge
        (FOUR_KNOTS, RHO, [0.001, 0.002, 0.004]),
    ], ids=["rho=0.30", "rho=0.10", "table"])
    def test_scans_past_the_probe(self, pot, rho, deltas):
        # the probe is defined for the power law at rho <= 1/4 only, and does not
        # certify rho = 0.10; the spectrum puts all three curve points inside
        scan = lg.scan_transition(pot, rho, deltas, m=256)
        assert scan.kink_ok and all(p.converged for p in scan.points)
        n = len(deltas)
        assert [p.branch for p in scan.points] == \
            ["unimodal"] * n + ["constant"] + ["multimodal(3)"] * n

    @given(st.floats(0.01, 0.99), st.floats(0.05, 30.0), st.floats(1e-3, 0.25))
    def test_probe_interior_implies_gate(self, r, M, rho):
        # wherever the three closed-form profiles certify the curve point, the
        # spectrum of the scan's kernel has a negative and a positive lambda_k
        pot = lg.Potential.power_plateau(r, M)
        try:
            probe = lg.feasibility_probe(pot, rho)
        except RuntimeError:  # the closed forms fail the m = 2048 grid cross-check
            assume(False)
        if probe.interior:
            left, right, _, _ = transition.spectral_slopes(lg.cell_kernel(pot, 256), rho)
            assert math.isfinite(left) and math.isfinite(right)

    def test_empty_deltas_refused(self, pot_a2):
        with pytest.raises(ValueError):
            lg.scan_transition(pot_a2, RHO, [])

    @pytest.mark.parametrize("deltas", [[math.nan, 0.01], [math.inf]])
    def test_non_finite_deltas_refused(self, pot_a2, deltas):
        with pytest.raises(ValueError, match="deltas"):
            lg.scan_transition(pot_a2, RHO, deltas, m=64)

    @pytest.mark.parametrize("deltas", [[0.01, 0.01], [0.02, 0.005, 0.02],
                                        [1e-300], [1e-17, 2e-17]])
    def test_repeated_deltas_refused(self, pot_a2, deltas):
        # the slope extrapolation divides by the gap between the two nearest
        # targets; the last two cases round away against xi0 = 0.3703
        with pytest.raises(ValueError, match="distinct"):
            lg.scan_transition(pot_a2, RHO, deltas, m=64)

    def test_infeasible_delta_marks_failure(self, pot_a2):
        scan = lg.scan_transition(pot_a2, RHO, [0.5], m=64)
        assert any(not p.converged for p in scan.points)
        assert any(math.isnan(p.S) for p in scan.points)
        # neither off-curve point converged: no evidence for the kink
        assert not scan.kink_ok

    def test_within_hypotheses_for_small_r(self):
        pot = lg.Potential.power_plateau(0.3, 10.0)
        scan = lg.scan_transition(pot, RHO, [0.01], m=64)
        assert scan.within_hypotheses

    def test_csv_and_summary(self, scan_023, tmp_path, monkeypatch):
        # the CLI's scan.csv holds one row per point of the scan it ran
        monkeypatch.setattr(transition, "scan_transition", lambda *args, **kw: scan_023)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[potential]\nkind = power_plateau\nr = 0.5\nM = 10\n")
        assert cli.main(["scan", "--config", str(cfg), "--rho", str(RHO), "--deltas",
                         "0.005,0.01,0.02", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "xi,S,branch,beta,mu,converged"
        assert len(lines) == 1 + len(scan_023.points)
        for line, p in zip(lines[1:], scan_023.points):
            assert line.split(",") == [f"{p.xi_target:.12g}", f"{p.S:.12g}", p.branch,
                                       f"{p.beta:.12g}", f"{p.mu:.12g}", "true"]
        assert scan_023.kink_ok is True
        assert scan_023.c == pytest.approx(2.2376133443, abs=1e-6)
        assert scan_023.sigma == pytest.approx(7.0, abs=1e-6)
