"""Per-seed Newton-KKT path, multistart driver, optimizer certificates, diagnostics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latgas as lg
from latgas import solver

RHO = 0.23
XI_CURVE = 7.0 * RHO * RHO


class TestSolveMultipliers:
    def test_on_curve_constant_seed(self, kernel256):
        res = lg.solve_multipliers(kernel256, XI_CURVE, RHO,
                                   lg.constant_profile(256, RHO))
        assert res.converged
        assert abs(res.multipliers.beta) < 1e-8
        np.testing.assert_allclose(res.profile.values, RHO, atol=1e-9)
        assert res.entropy_S == pytest.approx(-lg.hbin(RHO), abs=1e-10)

    def test_multipliers_not_both_zero(self, solve_on_curve, solve_below, solve_above):
        for res in (solve_on_curve, solve_below, solve_above):
            m = res.multipliers
            assert (m.beta, m.mu) != (0.0, 0.0)

    def test_rho_domain(self, kernel256):
        for rho in (1.5, 0.0):
            with pytest.raises(ValueError):
                lg.solve_multipliers(kernel256, 0.1, rho, lg.constant_profile(256, 0.5))

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_xi_must_be_finite(self, kernel256, xi):
        with pytest.raises(ValueError, match="finite"):
            lg.solve_multipliers(kernel256, xi, RHO, lg.constant_profile(256, RHO))


class TestSolveEntropy:
    def test_on_curve(self, solve_on_curve):
        res = solve_on_curve
        assert res.converged
        assert res.branch == "constant"
        assert res.entropy_S == pytest.approx(-0.153871, abs=1e-6)
        assert float(np.ptp(res.profile.values)) < 1e-6

    def test_below_unimodal(self, solve_below):
        assert solve_below.converged
        assert solve_below.branch == "unimodal"
        assert solve_below.entropy_S < -lg.hbin(RHO)

    def test_above_multimodal(self, solve_above):
        assert solve_above.converged
        assert solve_above.branch.startswith("multimodal")

    def test_constant_interaction_half_density(self):
        pot = lg.Potential.constant(7.0)
        res = lg.solve_entropy(pot, 7.0 / 4.0, 0.5, m=64)
        assert res.converged
        np.testing.assert_allclose(res.profile.values, 0.5, atol=1e-9)
        assert res.entropy_S == pytest.approx(0.0, abs=1e-10)

    def test_infeasible_target(self, pot_a2):
        res = lg.solve_entropy(pot_a2, 3.0, RHO, m=64)
        assert not res.converged

    def test_alignment_peak_centered(self, solve_below):
        v = solve_below.profile.values
        assert int(np.argmax(v)) == solve_below.profile.m // 2

    def test_candidates_reported(self, solve_above):
        cands = solve_above.candidates
        assert len(cands) == len(lg.default_seeds(256, RHO))
        assert all("branch" in c and "entropy_S" in c for c in cands)
        assert solve_above.entropy_S == max(c["entropy_S"] for c in cands if c["converged"])

    def test_jensen_stop_on_curve(self, solve_on_curve):
        # the constant seed comes first and converges: no other seed runs
        assert len(solve_on_curve.candidates) == 1
        assert solve_on_curve.candidates[0]["branch"] == "constant"

    def test_jensen_stop_keeps_winner(self, pot_a2, kernel256, solve_on_curve):
        # with the constant seed last all seven run, and the winner is the same
        seeds = lg.default_seeds(256, RHO)
        res = lg.solve_entropy(pot_a2, XI_CURVE, RHO, m=256, kernel=kernel256,
                               seeds=seeds[1:] + seeds[:1])
        assert len(res.candidates) == 7
        assert lg.profile_to_csv(res.profile) == lg.profile_to_csv(solve_on_curve.profile)
        assert res.multipliers == solve_on_curve.multipliers
        assert res.entropy_S == solve_on_curve.entropy_S


# solve_entropy at m = 256 on the reference potential, recorded from the
# five-strategy solver this package used before the single Newton-KKT path
REGRESSION_TABLE = [
    (0.18, -0.02, "unimodal", -0.266419088499),
    (0.18, -0.01, "unimodal", -0.243289595188),
    (0.18, -0.005, "unimodal", -0.232348159936),
    (0.18, 0.005, "multimodal(3)", -0.233719809990),
    (0.18, 0.01, "multimodal(3)", -0.245961448173),
    (0.18, 0.02, "multimodal(3)", -0.271365079840),
    (0.23, -0.02, "unimodal", -0.190052004687),
    (0.23, -0.01, "unimodal", -0.171594546858),
    (0.23, -0.005, "unimodal", -0.162647957380),
    (0.23, 0.005, "multimodal(3)", -0.163808205601),
    (0.23, 0.01, "multimodal(3)", -0.173897758715),
    (0.23, 0.02, "multimodal(3)", -0.194565721857),
]


@pytest.mark.parametrize("rho,dxi,branch,S", REGRESSION_TABLE)
def test_regression_table(pot_a2, kernel256, rho, dxi, branch, S):
    res = lg.solve_entropy(pot_a2, 7.0 * rho * rho + dxi, rho, m=256, kernel=kernel256)
    assert res.converged
    assert res.branch == branch
    assert res.entropy_S == pytest.approx(S, abs=1e-9)


def loop_peak_count(s, thresh, tie_eps=1e-12):
    """Reference: cyclic local maxima above thresh, flat stretches carrying the
    previous slope sign, counted with plain loops."""
    n = s.size
    d = s - np.roll(s, 1)
    sign = [1 if x > tie_eps else -1 if x < -tie_eps else 0 for x in d]
    if not any(sign):
        return 0
    last = [x for x in sign if x][-1]
    filled = list(sign)
    for i in range(n):
        if filled[i] == 0:
            filled[i] = last
        else:
            last = filled[i]
    return sum(1 for i in range(n)
               if filled[i] == 1 and filled[(i + 1) % n] == -1 and s[i] > thresh)


class TestBranchDiagnostics:
    @given(st.lists(st.integers(0, 3), min_size=3, max_size=40), st.integers(-1, 3))
    def test_peak_count_matches_loop(self, levels, thresh):
        # small integer levels give plateaus, which must count once
        s = np.array(levels, dtype=float)
        assert solver._cyclic_peak_count(s, thresh) == loop_peak_count(s, thresh)

    def test_classify_constant(self):
        assert lg.classify_branch(lg.constant_profile(256, RHO)) == "constant"

    def test_classify_single_bump(self):
        x = (np.arange(256) + 0.5) / 256
        f = lg.make_profile(RHO * (1.0 + 0.5 * np.cos(2 * np.pi * x)))
        assert lg.classify_branch(f) == "unimodal"

    def test_classify_double_bump(self):
        x = (np.arange(256) + 0.5) / 256
        f = lg.make_profile(RHO * (1.0 + 0.5 * np.cos(4 * np.pi * x)))
        assert lg.classify_branch(f) == "multimodal(2)"

    def test_free_kernel_refused(self, monkeypatch):
        K = lg.cell_kernel(lg.Potential.power_plateau(0.5, 10.0, periodic=False), 16)

        def newton_must_not_run(*args, **kwargs):
            raise AssertionError("the Newton solve ran on a free kernel")

        monkeypatch.setattr(solver, "_newton_kkt", newton_must_not_run)
        with pytest.raises(ValueError, match="periodic"):
            lg.solve_multipliers(K, 0.3, 0.2, lg.constant_profile(16, 0.2))

    def test_degenerate_constant_on_curve(self, solve_on_curve):
        assert solve_on_curve.degenerate

    def test_degenerate_false_off_curve(self, solve_below):
        assert not solve_below.degenerate


class TestOptimizerInvariants:
    def test_el_residual(self, solve_on_curve, solve_below, solve_above):
        for res in (solve_on_curve, solve_below, solve_above):
            assert res.el_residual < 1e-7

    def test_constraints(self, solve_on_curve, solve_below, solve_above):
        for res, target in ((solve_on_curve, XI_CURVE), (solve_below, XI_CURVE - 0.02),
                            (solve_above, XI_CURVE + 0.02)):
            assert res.residuals[0] < 1e-8 * max(1.0, abs(target))
            assert res.residuals[1] < 1e-8

    @pytest.mark.parametrize("name", ["solve_on_curve", "solve_below", "solve_above"])
    def test_judgement_matches_recomputation(self, kernel256, request, name):
        # the solver judges a candidate on its last Newton residual; recompute
        # every judged number from the profile, xi through the FFT lag form
        from scipy.special import expit
        target = XI_CURVE + {"solve_on_curve": 0.0, "solve_below": -0.02,
                             "solve_above": 0.02}[name]
        res = request.getfixturevalue(name)
        prof, mult = res.profile, res.multipliers
        assert abs(res.residuals[0] - abs(lg.xi(prof, kernel256) - target)) < 1e-12
        # the profile is the judged iterate circularly shifted to center its
        # peak, so its mean is summed in another order: equal to within an ulp
        assert res.residuals[1] == pytest.approx(abs(lg.density_N(prof) - RHO), abs=1e-16)
        field = lg.apply_kernel(kernel256, prof)
        el = float(np.max(np.abs(prof.values - expit(mult.mu + mult.beta * field))))
        assert abs(res.el_residual - el) < 1e-12
        assert res.degenerate == bool(np.max(np.abs(field - target / RHO)) < 1e-6)

    def test_fixed_point_consistency(self, kernel256, solve_below):
        from scipy.special import expit
        f = solve_below.profile.values
        mult = solve_below.multipliers
        z = mult.mu + mult.beta * (kernel256.entries @ f) / 256
        assert float(np.max(np.abs(f - expit(z)))) < 1e-7

    def test_local_optimality_under_projected_perturbations(self, kernel256,
                                                            solve_below, rng):
        f = solve_below.profile.values
        prof = solve_below.profile
        grad_xi = 2.0 * lg.apply_kernel(kernel256, prof) / 256
        grad_n = np.full(256, 1.0 / 256)
        basis = np.column_stack([grad_xi, grad_n])
        q, _ = np.linalg.qr(basis)
        h_star = lg.entropy_H(prof)
        for _ in range(50):
            d = rng.uniform(-1.0, 1.0, 256)
            d -= q @ (q.T @ d)
            g = np.clip(f + 1e-2 * d / np.max(np.abs(d)), 1e-9, 1 - 1e-9)
            assert lg.entropy_H(lg.make_profile(g)) >= h_star - 1e-6

    @pytest.mark.parametrize("name", ["solve_below", "solve_above"])
    def test_second_order_certificate(self, kernel256, request, name):
        # Hessian of the Lagrangian, diag(1/(f(1-f))) - beta A/m, projected onto
        # the null space of the constraint gradients 2Af/m and 1: positive
        # definite except for the one zero mode of translation
        res = request.getfixturevalue(name)
        f = res.profile.values
        A = kernel256.entries
        hess = np.diag(1.0 / (f * (1.0 - f))) - res.multipliers.beta * A / 256
        grads = np.column_stack([2.0 * (A @ f) / 256, np.ones(256)])
        q, _ = np.linalg.qr(grads, mode="complete")
        z = q[:, 2:]
        eig = np.linalg.eigvalsh(z.T @ hess @ z)
        zero = np.abs(eig) < 1e-8 * eig.max()
        assert int(zero.sum()) == 1
        assert np.all(eig[~zero] > 0.0)

    def test_nonconstant_off_curve(self, solve_below, solve_above):
        assert solve_below.branch != "constant"
        assert solve_above.branch != "constant"

    def test_interior_profiles(self, solve_on_curve, solve_below, solve_above):
        for res in (solve_on_curve, solve_below, solve_above):
            v = res.profile.values
            assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_translation_covariance(self, pot_a2, kernel256, solve_below):
        shift = 61
        x = (np.arange(256) + 0.5) / 256
        seed = np.clip(RHO * (1.0 + 0.5 * np.cos(2 * np.pi * x)), 1e-4, 1 - 1e-4)
        res = lg.solve_entropy(pot_a2, XI_CURVE - 0.02, RHO, m=256, kernel=kernel256,
                               seeds=[lg.make_profile(np.roll(seed, shift))])
        assert res.converged
        a, b = res.profile.values, solve_below.profile.values
        best = min(float(np.max(np.abs(np.roll(a, s) - b))) for s in range(256))
        assert best < 1e-7

    def test_discrete_continuity_refinement(self, pot_a2):
        gaps = []
        for m in (128, 256, 512):
            res = lg.solve_entropy(pot_a2, XI_CURVE - 0.02, RHO, m=m)
            assert res.converged
            v = res.profile.values
            gaps.append(float(np.max(np.abs(np.roll(v, -1) - v))))
        assert gaps[0] > gaps[1] > gaps[2]


class TestSerialization:
    def test_result_dict(self, solve_below):
        d = lg.solve_result_to_dict(solve_below)
        assert set(d) >= {"profile", "multipliers", "entropy_S", "residuals",
                          "branch", "iterations", "converged"}
        assert len(d["profile"]["values"]) == 256
        assert d["branch"] == "unimodal"
        its, halvings = d["iterations"]
        assert 0 < its and 0 <= halvings
