#!/usr/bin/env python3
"""Demo: pair potentials, the integrated interaction, and kernel matrices.

Builds the plateau'd power-law interaction (r = 1/2, M = 10, periodic),
checks the closed-form integrated interaction against quadrature, and shows
that the cell-averaged kernel is circulant with every row averaging to the
integrated interaction.  The kernel is stored as its offset row, so both
checks read the row; the dense 256 x 256 table is never built.
"""

import numpy as np
from scipy import integrate

import latgas as lg

pot = lg.Potential.power_plateau(r=0.5, M=10.0)

print("psi(0)    =", lg.eval_psi(pot, 0.0), " (no self-interaction)")
print("psi(0.01) =", lg.eval_psi(pot, 0.01), " (power-law core)")
print("psi(0.30) =", lg.eval_psi(pot, 0.30), " (plateau)")
print("psi(0.90) =", lg.eval_psi(pot, 0.90), " (mirror of psi(0.10))")

lam = lg.integrated_interaction(pot)
quad, _ = integrate.quad(lambda t: lg.eval_psi(pot, t), 0, 1,
                         points=[0.25, 0.5, 0.75], limit=200)
print(f"\nintegrated interaction: closed form {lam}, quadrature {quad:.12f}")

K = lg.cell_kernel(pot, 256)
# the table is entry (i, j) = row[(j - i) mod m]: circulant by construction,
# and symmetric exactly when the mirrored offsets agree, row[k] == row[m - k]
mirrored = np.array_equal(K.row[1:], K.row[:0:-1])
print(f"kernel 256x256 from its row: symmetric={mirrored}, "
      f"every row averages to {K.row.mean():.12f}")

print("\nRiemann gap between lattice sums and cell integrals:")
for n in (32, 64, 128, 256):
    print(f"  n={n:4d}  discrepancy={lg.riemann_discrepancy(n, pot):.4f}")
print("(the gap shrinks with n: lattice energies converge to the continuum form)")
