"""Per-seed Newton-KKT path, multistart driver, optimizer certificates, diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import latgas as lg
from latgas import cli, solver, transition
from latgas.potential import KernelMatrix

RHO = 0.23
XI_CURVE = 7.0 * RHO * RHO


FAMILY = [list(range(7))]


def solve_in_batches(pot, xi_t, rho, m, batches=FAMILY, kernel=None):
    """solve_entropy with the given seed batches in place of spectral_seeds; by
    default the whole family in one batch, each seed run in family order"""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "spectral_seeds", lambda *args: batches)
        return lg.solve_entropy(pot, xi_t, rho, m=m, kernel=kernel)


# the whole default family: the per-seed behaviour that the spectral pick of
# solve_entropy skips off the curve
@pytest.fixture(scope="module")
def family_below(pot_a2, kernel256):
    return solve_in_batches(pot_a2, XI_CURVE - 0.02, RHO, 256, kernel=kernel256)


@pytest.fixture(scope="module")
def family_above(pot_a2, kernel256):
    return solve_in_batches(pot_a2, XI_CURVE + 0.02, RHO, 256, kernel=kernel256)


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

    @pytest.mark.parametrize("m", [128, 257])
    def test_seed_grid_must_match_kernel(self, kernel256, m):
        with pytest.raises(ValueError, match="grid sizes"):
            lg.solve_multipliers(kernel256, XI_CURVE, RHO, lg.constant_profile(m, RHO))

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

    def test_kernel_on_another_grid_refused(self, pot_a2, kernel256):
        # the kernel must be cell_kernel(pot, m): one on another grid must not win over m
        with pytest.raises(ValueError, match="m = 256 cells, not m = 512"):
            lg.solve_entropy(pot_a2, XI_CURVE, RHO, m=512, kernel=kernel256)

    def test_infeasible_target(self, pot_a2):
        res = lg.solve_entropy(pot_a2, 3.0, RHO, m=64)
        assert not res.converged

    def test_alignment_peak_centered(self, solve_below):
        v = solve_below.profile.values
        assert int(np.argmax(v)) == solve_below.profile.m // 2

    @pytest.mark.parametrize("values,peak", [
        ([0.1, 0.2, 0.5, 0.5, 0.2, 0.1, 0.0, 0.0], 2),  # an even peak on two cells
        ([0.5, 0.2, 0.1, 0.0, 0.0, 0.1, 0.2, 0.5], 7),  # the same, across the wrap
        ([0.5, 0.1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.5], 2),  # two runs: the lowest-index start
        ([0.3] * 8, 0),
    ])
    def test_align_peak_tie_rule(self, values, peak):
        # ties within PEAK_TIE_EPS of the maximum count as the maximum
        v = np.array(values) + np.array([0, 1, 0, 1, 0, 1, 0, 1]) * solver.PEAK_TIE_EPS / 4
        out = lg.align_peak(lg.make_profile(v)).values
        np.testing.assert_array_equal(out, np.roll(v, 4 - peak))

    def test_candidates_reported(self, family_above):
        cands = family_above.candidates
        assert [c["seed"] for c in cands] == list(range(len(lg.default_seeds(256, RHO))))
        assert all("branch" in c and "entropy_S" in c for c in cands)
        assert family_above.entropy_S == max(c["entropy_S"] for c in cands if c["converged"])

    def test_spectral_seeds_run(self, pot_a2, kernel256, solve_below, solve_above):
        # at m = 256 lambda_1 and lambda_5 are negative, lambda_2, 3, 4 and 6 positive:
        # below the curve the seeds k = 1, 5 run, above it k = 2, 3, 4, 6
        lam = kernel256.spectrum
        assert [k for k in range(1, 7) if lam[k] < 0.0] == [1, 5]
        assert [c["seed"] for c in solve_below.candidates] == [1, 5]
        assert [c["seed"] for c in solve_above.candidates] == [2, 3, 4, 6]
        assert solve_below.stop == solve_above.stop == "tolerance"
        # on 5 cells the seeds k = 4 and 6 excite mode 1 and k = 3 mode 2, while
        # k = 5 is the constant rho / 2 on every cell: never picked, only run in the rest
        K5 = lg.cell_kernel(pot_a2, 5)
        assert solver.spectral_seeds(K5, XI_CURVE - 0.02, RHO, 7) == [[1, 4, 6], [0, 2, 3, 5]]
        assert solver.spectral_seeds(K5, XI_CURVE + 0.02, RHO, 7) == [[2, 3], [0, 1, 4, 5, 6]]

    def test_jensen_stop_on_curve(self, solve_on_curve):
        # the constant seed comes first and converges: no other seed runs
        assert len(solve_on_curve.candidates) == 1
        assert solve_on_curve.candidates[0]["branch"] == "constant"

    def test_stop_reasons(self, family_below, family_above):
        # the k = 3 seed below the curve and the k = 1 seed above it collapse
        # towards the infeasible constant; every converged seed ends at tolerance
        for res, stalled in ((family_below, 3), (family_above, 1)):
            stops = {c["seed"]: c["stop"] for c in res.candidates}
            assert stops[stalled] == "stalled"
            assert all(c["stop"] == "tolerance" for c in res.candidates if c["converged"])
            assert res.stop == "tolerance"

    def test_jensen_stop_keeps_winner(self, pot_a2, kernel256, solve_on_curve):
        # the constant attains S <= -hbin(rho): with the whole family in one batch,
        # the constant last, all seven run, and the winner is the same
        res = solve_in_batches(pot_a2, XI_CURVE, RHO, 256, [[1, 2, 3, 4, 5, 6, 0]], kernel256)
        assert [c["seed"] for c in res.candidates] == [1, 2, 3, 4, 5, 6, 0]
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


# the converged flag of each default seed (constant, k = 1..6), m = 256, as the
# solver that ran the full (m + 2)-unknown Newton system without the stall rule
# gave them; a seed the stall rule stopped early would read 0 here
CONVERGED_SEEDS = {
    0.18: ["0100000", "0100000", "0100000", "0011111", "0111111", "0111101"],
    0.20: ["0100000", "0100000", "0100000", "0111111", "0011111", "0011111"],
    0.23: ["0100000", "0100000", "0100000", "0011111", "0011111", "0011111"],
    0.25: ["0100000", "0100000", "0100000", "0011101", "0011101", "0111111"],
}
DELTAS = [-0.02, -0.01, -0.005, 0.005, 0.01, 0.02]


@pytest.mark.parametrize("rho", sorted(CONVERGED_SEEDS))
def test_converged_seeds(pot_a2, kernel256, rho):
    flags = ["".join("1" if c["converged"] else "0" for c in
                     solve_in_batches(pot_a2, 7.0 * rho * rho + d, rho, 256,
                                      kernel=kernel256).candidates)
             for d in DELTAS]
    assert flags == CONVERGED_SEEDS[rho]


# converged candidates at odd m = 129 (axis through the centre cell), rho = 0.23,
# as the full (m + 2)-unknown Newton system found them: (branch, S) per seed
ODD_GRID_CANDIDATES = {
    -0.02: [(1, "unimodal", -0.19005778772589843)],
    0.02: [(2, "multimodal(2)", -0.23072357205347563), (3, "multimodal(3)", -0.19461964665175513),
           (4, "multimodal(4)", -0.27172107283862823), (5, "multimodal(10)", -0.3447942379778257),
           (6, "multimodal(6)", -0.29578637272317365)],
}


@pytest.mark.parametrize("dxi", sorted(ODD_GRID_CANDIDATES))
def test_odd_grid(pot_a2, dxi):
    res = solve_in_batches(pot_a2, XI_CURVE + dxi, RHO, 129)
    got = [(c["seed"], c["branch"], c["entropy_S"]) for c in res.candidates if c["converged"]]
    want = ODD_GRID_CANDIDATES[dxi]
    assert [g[:2] for g in got] == [w[:2] for w in want]
    np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want], rtol=0, atol=1e-10)
    assert res.certificate["morse_index"] == 0
    assert res.certificate["odd_inertia"] == (63, 0, 1)  # m - h = 64 mirrored cells


def assert_same_winner(a, b):
    assert a.profile.values.tobytes() == b.profile.values.tobytes()
    assert (a.entropy_S, a.branch, a.converged, a.multipliers, a.residuals, a.stop) == \
        (b.entropy_S, b.branch, b.converged, b.multipliers, b.residuals, b.stop)


@pytest.mark.parametrize("m,rho,dxi", [(256, rho, dxi) for rho, dxi, _, _ in REGRESSION_TABLE]
                         + [(129, RHO, dxi) for dxi in sorted(ODD_GRID_CANDIDATES)]
                         + [(m, RHO, dxi) for m in (5, 8) for dxi in (-0.02, 0.02)])
def test_spectral_seeds_keep_the_winner(pot_a2, m, rho, dxi):
    # the seeds the spectrum picks find the full family's winner, bit for bit; on
    # coarse grids the seeds k > m/2 excite the folded modes |k mod m| <= m/2
    K = lg.cell_kernel(pot_a2, m)
    xi_t = 7.0 * rho * rho + dxi
    spectral = lg.solve_entropy(pot_a2, xi_t, rho, m=m, kernel=K)
    family = solve_in_batches(pot_a2, xi_t, rho, m, kernel=K)
    assert len(spectral.candidates) < len(family.candidates)
    assert_same_winner(spectral, family)


@pytest.mark.parametrize("pot,dxi,spectral", [
    # far above the curve: the seeds k = 2, 3, 4, 6 run and all fail
    (lg.Potential.power_plateau(0.5, 10.0), 2.6, [2, 3, 4, 6]),
])
def test_spectral_fallback_runs_the_family(pot, dxi, spectral):
    K = lg.cell_kernel(pot, 64)
    xi_t = K.spectrum[0] * RHO * RHO + dxi
    # the spectral seeds first, then the rest of the family in family order
    rest = [k for k in range(7) if k not in spectral]
    assert solver.spectral_seeds(K, xi_t, RHO, 7) == [spectral, rest]
    res = lg.solve_entropy(pot, xi_t, RHO, m=64, kernel=K)
    family = solve_in_batches(pot, xi_t, RHO, 64, kernel=K)
    assert [c["seed"] for c in res.candidates] == spectral + rest
    assert not res.converged
    assert_same_winner(res, family)
    by_seed = sorted(res.candidates, key=lambda c: c["seed"])
    assert [c["stop"] for c in by_seed] == [c["stop"] for c in family.candidates]


@pytest.mark.parametrize("pot", [
    # lambda_k > 0 for every k >= 1, so nothing lies below the curve
    lg.Potential.power_plateau(0.7, 2.0),
    # lambda_k >= 0: the even k read 0 where the rfft leaves -1.7e-18 of rounding
    lg.Potential.tabulated([(0, 1), (0.5, 0)]),
])
def test_no_sign_side_runs_the_constant_alone(pot):
    # below the curve xi(f) - lambda_0 N(f)^2 = sum_k lambda_k |f_k|^2 / m^2 >= 0 for
    # every profile: the target is infeasible, and only the constant runs
    K = lg.cell_kernel(pot, 64)
    xi_t = K.spectrum[0] * RHO * RHO - 0.02
    assert solver.spectral_seeds(K, xi_t, RHO, 7) == [[0]]
    # the closed-form slope on that side is nan for the same reason
    assert np.isnan(transition.spectral_slopes(K, RHO)[0])
    res = lg.solve_entropy(pot, xi_t, RHO, m=64, kernel=K)
    assert [c["seed"] for c in res.candidates] == [0]
    assert not res.converged
    # no seed of the whole family converges there either
    family = solve_in_batches(pot, xi_t, RHO, 64, kernel=K)
    assert not any(c["converged"] for c in family.candidates)
    assert res.candidates[0] == family.candidates[0]


@pytest.mark.parametrize("m", [5, 129])
@pytest.mark.parametrize("rho", [1e-6, 0.999999])
def test_constant_seed_keeps_extreme_densities(pot_a2, rho, m):
    # the constant seed is rho itself, not clipped into [1e-4, 1 - 1e-4]
    K = lg.cell_kernel(pot_a2, m)
    res = lg.solve_entropy(pot_a2, K.spectrum[0] * rho * rho, rho, m=m, kernel=K)
    assert res.converged and res.branch == "constant"
    assert [c["seed"] for c in res.candidates] == [0]


@st.composite
def spectra_and_profiles(draw):
    """A symmetric kernel row through its spectrum (lambda_k >= 0 for k >= 1, <= 0,
    or of any sign) and a profile on the same grid."""
    m = draw(st.integers(4, 64))
    lam = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m // 2 + 1,
                                 max_size=m // 2 + 1)))
    sign = draw(st.sampled_from([1.0, -1.0, None]))
    if sign is not None:
        lam[1:] = sign * np.abs(lam[1:])
    f = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return KernelMatrix(m=m, row=np.fft.irfft(lam * m, m)), lg.make_profile(f)


def flat_spectrum(m):
    """Every lambda_k equal to 1 on m cells, with the constant profile 1/2."""
    return KernelMatrix(m=m, row=np.fft.irfft(np.full(m // 2 + 1, float(m)), m)), \
        lg.make_profile(np.full(m, 0.5))


class TestSeedRule:
    @given(spectra_and_profiles())
    def test_no_sign_bounds_the_energy(self, kf):
        # xi(f) - lambda_0 N(f)^2 = sum_k lambda_k |f_k|^2 / m^2 takes the sign the
        # lambda_k, k >= 1, share: such a target on the other side is infeasible
        K, f = kf
        lam, tol = K.spectrum, 1e-10 * max(1.0, float(np.abs(K.row).max()))
        gap = lg.xi(f, K) - lam[0] * lg.density_N(f) ** 2
        if np.all(lam[1:] >= 0.0):
            assert gap >= -tol
        if np.all(lam[1:] <= 0.0):
            assert gap <= tol

    @given(spectra_and_profiles(), st.floats(0.05, 0.95),
           st.sampled_from([0.0, 1e-3, -1e-3, 0.5, -0.5]))
    # even grids of m <= 12, where the seed k = m/2 is constant up to rounding
    @example(flat_spectrum(4), 0.23, 1e-3)
    @example(flat_spectrum(12), 0.23, 1e-3)
    def test_batches(self, kf, rho, dxi):
        K, _ = kf
        batches = solver.spectral_seeds(K, K.spectrum[0] * rho * rho + dxi, rho, 7)
        seeds = [k for batch in batches for k in batch]
        assert len(seeds) == len(set(seeds)) and set(seeds) <= set(range(7))
        if dxi == 0.0:
            assert batches[0] == [0] and sorted(seeds) == list(range(7))
            return
        no_sign = np.isnan(transition.spectral_slopes(K, rho)[0 if dxi < 0 else 1])
        assert (batches == [[0]]) == no_sign
        assert no_sign or sorted(seeds) == list(range(7))
        # off the curve no seed picked first is constant on the grid, up to rounding
        family = lg.default_seeds(K.m, rho)
        assert no_sign or all(np.ptp(family[k].values) >= 1e-12 for k in batches[0])


@pytest.mark.parametrize("order", [[1, 3], [3, 1]])
def test_tie_rule_reads_the_seed_index(order):
    # at r = 0.3 the seeds k = 1 and 3 both reach the three-bump optimizer, S equal to
    # 2e-12: the lower seed index wins, in whichever order the seeds ran
    pot = lg.Potential.power_plateau(0.3, 10.0)
    K = lg.cell_kernel(pot, 64)
    xi_t = K.spectrum[0] * 0.4 ** 2 + 0.005 * K.spectrum[0]
    family = solve_in_batches(pot, xi_t, 0.4, 64, kernel=K)
    res = solve_in_batches(pot, xi_t, 0.4, 64, [order], K)
    assert [c["seed"] for c in res.candidates] == order
    assert {c["branch"] for c in res.candidates} == {"multimodal(3)"}
    assert res.entropy_S != res.candidates[order.index(3)]["entropy_S"]
    assert_same_winner(res, family)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_certificate_matches_dense_at_odd_grid(pot_a2, k):
    # the two-block Morse index and zero count against the projected Hessian of
    # the dense table, on the odd grid where the centre cell has no mirror; the
    # zero is the translation mode, which the coarse 10-bump saddle does not keep
    K = lg.cell_kernel(pot_a2, 129)
    res = lg.solve_multipliers(K, XI_CURVE + 0.02, RHO, lg.default_seeds(129, RHO)[k])
    assert res.converged
    f, A = res.profile.values, toeplitz(K.row)
    hess = np.diag(1.0 / (f * (1.0 - f))) - res.multipliers.beta * A / 129
    q, _ = np.linalg.qr(np.column_stack([A @ f, np.ones(129)]), mode="complete")
    eig = np.linalg.eigvalsh(q[:, 2:].T @ hess @ q[:, 2:])
    zero = np.abs(eig) < 1e-8 * np.abs(eig).max()
    assert res.certificate["morse_index"] == int(np.sum(eig[~zero] < 0))
    assert res.certificate["odd_inertia"][2] == int(zero.sum())


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
        z = mult.mu + mult.beta * (toeplitz(kernel256.row) @ f) / 256
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
        # the solver's two-block certificate: a nonsingular even KKT block with
        # the two negative directions of the constraints, and the odd block's
        # one zero, the translation mode
        res = request.getfixturevalue(name)
        assert res.certificate == {"even_inertia": (128, 2, 0), "odd_inertia": (127, 0, 1),
                                   "morse_index": 0, "licq": True}
        # cross-check on the dense table: the Hessian of the Lagrangian,
        # diag(1/(f(1-f))) - beta A/m, projected onto the null space of the
        # constraint gradients 2Af/m and 1, is positive definite except for
        # the one zero mode of translation
        f = res.profile.values
        A = toeplitz(kernel256.row)
        hess = np.diag(1.0 / (f * (1.0 - f))) - res.multipliers.beta * A / 256
        grads = np.column_stack([2.0 * (A @ f) / 256, np.ones(256)])
        q, _ = np.linalg.qr(grads, mode="complete")
        z = q[:, 2:]
        eig = np.linalg.eigvalsh(z.T @ hess @ z)
        zero = np.abs(eig) < 1e-8 * eig.max()
        assert int(zero.sum()) == 1
        assert np.all(eig[~zero] > 0.0)

    def test_loser_certificates(self, family_above):
        # above the curve the losing k-bump candidates are saddles: negative
        # eigenvalues of the even KKT block plus those of the odd block
        negative = {c["branch"]: (c["certificate"]["even_inertia"][1],
                                  c["certificate"]["odd_inertia"][1])
                    for c in family_above.candidates if c["converged"]}
        assert negative == {"multimodal(2)": (3, 1), "multimodal(3)": (2, 0),
                            "multimodal(4)": (5, 3), "multimodal(6)": (6, 4),
                            "multimodal(10)": (10, 7)}
        assert all(c["certificate"] is None for c in family_above.candidates
                   if not c["converged"])

    def test_degenerate_certificate_on_curve(self, solve_on_curve):
        # at the constant the two constraint gradients are parallel: one
        # border direction is lost and the even block is singular
        assert solve_on_curve.certificate == {"even_inertia": (128, 1, 1),
                                              "odd_inertia": (128, 0, 0),
                                              "morse_index": 0, "licq": False}

    def test_seed_without_reflection_axis_refused(self, kernel256, rng):
        with pytest.raises(ValueError, match="reflection axis"):
            lg.solve_multipliers(kernel256, XI_CURVE, RHO, rng.uniform(0.1, 0.4, 256))

    def test_nonconstant_off_curve(self, solve_below, solve_above):
        assert solve_below.branch != "constant"
        assert solve_above.branch != "constant"

    def test_interior_profiles(self, solve_on_curve, solve_below, solve_above):
        for res in (solve_on_curve, solve_below, solve_above):
            v = res.profile.values
            assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_translation_covariance(self, kernel256, solve_below):
        shift = 61
        x = (np.arange(256) + 0.5) / 256
        seed = np.clip(RHO * (1.0 + 0.5 * np.cos(2 * np.pi * x)), 1e-4, 1 - 1e-4)
        res = lg.solve_multipliers(kernel256, XI_CURVE - 0.02, RHO, np.roll(seed, shift))
        assert res.converged
        a, b = res.profile.values, solve_below.profile.values
        best = min(float(np.max(np.abs(np.roll(a, s) - b))) for s in range(256))
        assert best < 1e-7

    @given(st.sampled_from([128, 129]), st.integers(1, 6), st.integers(1, 127),
           st.sampled_from([-0.02, 0.02]))
    @settings(max_examples=16)
    def test_shift_covariance(self, pot_a2, m, k, shift, dxi):
        # a default seed rolled by any shift gives the unrolled seed's
        # candidate, rolled by the same shift
        K = lg.cell_kernel(pot_a2, m)
        seed = lg.default_seeds(m, RHO)[k]
        a = lg.solve_multipliers(K, XI_CURVE + dxi, RHO, seed)
        b = lg.solve_multipliers(K, XI_CURVE + dxi, RHO, np.roll(seed.values, shift))
        assert a.converged == b.converged and a.stop == b.stop
        assert b.entropy_S == pytest.approx(a.entropy_S, abs=1e-10)
        if a.converged:
            gap = np.max(np.abs(np.roll(a.profile.values, shift) - b.profile.values))
            assert gap < 1e-7

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
        # the JSON record carries the result's values: floats bitwise, tuples as lists
        d = json.loads(cli._json_record(solve_below))
        assert d["profile"] == {"m": 256, "values": solve_below.profile.values.tolist()}
        assert d["multipliers"] == {"beta": solve_below.multipliers.beta,
                                    "mu": solve_below.multipliers.mu}
        assert d["entropy_S"] == solve_below.entropy_S
        assert d["branch"] == "unimodal"
        its, halvings = d["iterations"]
        assert 0 < its and 0 <= halvings
        assert d["stop"] == "tolerance" and d["certificate"]["morse_index"] == 0
        assert d["certificate"]["even_inertia"] == [128, 2, 0]
        assert len(d["candidates"]) == len(solve_below.candidates)
        assert all({"stop", "certificate"} <= set(c) for c in d["candidates"])
