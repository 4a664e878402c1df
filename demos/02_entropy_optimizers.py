#!/usr/bin/env python3
"""Demo: entropy-maximizing occupancy profiles on and around the curve.

Solves the constrained variational problem at rho = 0.23 for three energy
targets: on the curve xi = lambda rho^2 (constant optimizer), just below
(one bump), and just above (several bumps).  `latgas solve` writes the
same records as CSV and JSON.
"""

import latgas as lg

RHO = 0.23
DELTA = 0.02


def sketch(values, cells=32):
    v = lg.block_average(values, cells)
    lo, hi = v.min(), v.max()
    if hi - lo < 1e-9:
        return "(flat)"
    bars = ((v - lo) / (hi - lo) * 8).astype(int)
    return "".join(" .:-=+*#%"[b] for b in bars)


pot = lg.Potential.power_plateau(0.5, 10.0)
lam = lg.integrated_interaction(pot)
xi0 = lam * RHO ** 2

for tag, target in [("on_curve", xi0), ("below", xi0 - DELTA), ("above", xi0 + DELTA)]:
    res = lg.solve_entropy(pot, target, RHO, m=256)
    print(f"{tag:9s} xi={target:.4f}  branch={res.branch:14s} S={res.entropy_S:+.6f} "
          f"beta={res.multipliers.beta:+.3f} converged={res.converged} "
          f"morse={res.certificate['morse_index']}")
    print(f"          |{sketch(res.profile.values)}|")

print(f"\non the curve S equals -hbin(rho) = {-lg.hbin(RHO):.6f}; off the curve the")
print("optimizer is forced away from the constant profile and entropy drops.")
print("morse = 0: no direction that keeps both constraints raises the entropy (to second order).")
