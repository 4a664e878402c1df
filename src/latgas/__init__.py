"""Microcanonical entropy numerics for lattice gases with long-range interactions.

The package computes entropy-maximizing occupancy profiles under energy and
particle-density constraints, detects the first-order kink of the entropy
along the curve xi = lambda rho^2, and validates the continuum predictions
against exact enumeration and window-constrained Monte Carlo on finite
lattices.
"""

from .potential import (
    CONSTANT,
    POWER_PLATEAU,
    TABULATED,
    KernelMatrix,
    Potential,
    cell_kernel,
    eval_psi,
    integrated_interaction,
)
from .functional import (
    OccupancyProfile,
    apply_kernel,
    block_average,
    constant_profile,
    density_N,
    entropy_H,
    gradients,
    hbin,
    hbin_prime,
    indicator_profile,
    make_profile,
    profile_from_csv,
    profile_to_csv,
    xi,
)
from .lattice import (
    LatticeConfig,
    energy_density,
    make_config,
    particle_density,
    profile,
    riemann_discrepancy,
)
from .solver import (
    Multipliers,
    SolveResult,
    align_peak,
    classify_branch,
    default_seeds,
    solve_entropy,
    solve_multipliers,
)
from .transition import (
    FeasibilityProbe,
    TransitionScan,
    convexity_gap_constant,
    feasibility_probe,
    scan_transition,
    spectral_radius,
)
from .ensemble import (
    EnsembleWindow,
    McmcStats,
    compare_profile,
    enumerate_entropy,
    mcmc_sample,
)

__version__ = "0.1.0"
