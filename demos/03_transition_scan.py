#!/usr/bin/env python3
"""Demo: first-order kink of the entropy along xi = lambda rho^2.

Shows that the curve point is reachable from both sides in two ways: the
paper's three closed-form test profiles, and the gate the scan applies, a
kernel spectrum with lambda_min < 0 < lambda_max over the modes k >= 1.
Then scans the entropy across the curve and checks the slope bound c/sigma
from the convexity gap of the binary entropy and the spectral radius of the
kernel operator, and sets the closed-form slopes of the kernel spectrum
beside the measured ones.  `latgas scan` writes the same records as CSV and
JSON.
"""

import latgas as lg

RHO = 0.23
pot = lg.Potential.power_plateau(0.5, 10.0)

probe = lg.feasibility_probe(pot, 0.25)
print("feasibility at rho=0.25:")
print(f"  single block  xi1 = {probe.xi1:.6f}")
print(f"  constant      xi2 = {probe.xi2:.6f}")
print(f"  split block   xi3 = {probe.xi3:.6f}")
print(f"  strict ordering certifies the curve point is interior: {probe.interior}")
modes = lg.cell_kernel(pot, 256).spectrum[1:]
print(f"scan gate at m=256: lambda_min = {modes.min():+.6f} (k = {modes.argmin() + 1}), "
      f"lambda_max = {modes.max():+.6f} (k = {modes.argmax() + 1}); "
      f"interior: {modes.min() < 0.0 < modes.max()}")

scan = lg.scan_transition(pot, RHO, deltas=[0.005, 0.01, 0.02], m=256)
print(f"\nconstants: c = {scan.c:.4f}, sigma = {scan.sigma:.4f}, "
      f"c/sigma = {scan.kink_lower_bound:.4f}")
print(f"entropy on the curve: {scan.S_curve:.8f} (= -hbin(rho))")
print("scan points:")
for p in scan.points:
    print(f"  xi={p.xi_target:.4f}  S={p.S:+.6f}  {p.branch:14s} beta={p.beta:+.3f}")
print(f"one-sided slopes: left {scan.left_slope:+.3f}, right {scan.right_slope:+.3f}")
print(f"closed form from the kernel spectrum: left {scan.spectral_left:+.3f} "
      f"(mode k = {scan.k_below}), right {scan.spectral_right:+.3f} (mode k = {scan.k_above}); "
      f"supercritical: {scan.supercritical}")
print(f"both exceed c/sigma in magnitude -> first-order kink: {scan.kink_ok}")
