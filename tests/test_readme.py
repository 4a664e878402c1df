"""The README's reference numbers, each reproduced by the library at its printed precision."""

from pathlib import Path

import pytest

import latgas as lg

README = Path(__file__).resolve().parents[1] / "README.md"
HEADING = "## Reference numbers (r = 1/2, M = 10, periodic)"


def test_reference_numbers():
    section = README.read_text().split(HEADING)[1].split("\n## ")[0]
    bullets = [" ".join(b.split()) for b in section.split("\n* ")[1:]]
    r, M, rho = 0.5, 10.0, 0.23
    pot = lg.Potential.power_plateau(r, M)
    lam = lg.integrated_interaction(pot)
    assert lam == pytest.approx(2.0 * 4.0 ** (r - 1.0) / (1.0 - r) + M / 2.0, abs=1e-12)
    probe = lg.feasibility_probe(pot, 0.25)
    assert f"{probe.xi1:.6f}" == f"{1.0 / 3.0:.6f}"
    scan = lg.scan_transition(pot, rho, [0.005, 0.01, 0.02], m=256)
    assert f"{-lg.hbin(rho):.6f}" == f"{scan.S_curve:.6f}"
    # each bullet as the library's numbers print it, in the README's order
    assert bullets == [
        f"integrated interaction: lambda = 2 * 4^(r-1)/(1-r) + M/2 = {lam:g}",
        f"feasibility at rho = 1/4: xi1 = 1/3, xi2 = {probe.xi2:.4f}, xi3 = {probe.xi3:.6f}",
        f"entropy on the curve at rho = {rho}: S = -hbin({rho}) = {scan.S_curve:.6f}",
        f"kink constants at rho = {rho}: c = {scan.c:.4f}, sigma = {scan.sigma:g}, "
        f"c/sigma = {scan.kink_lower_bound:.4f}",
        f"measured one-sided slopes at rho = {rho}: {scan.left_slope:+.2f} (below), "
        f"{scan.right_slope:+.2f} (above); closed form from the m = 256 spectrum "
        f"{scan.spectral_left:+.4f} (k = {scan.k_below}), "
        f"{scan.spectral_right:+.4f} (k = {scan.k_above})",
    ]
