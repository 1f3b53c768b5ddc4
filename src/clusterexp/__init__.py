"""Cluster and virial expansions for classical fluids: graph enumeration,
Mayer coefficients with exact 1D and Monte Carlo weights, formal power
series inversion, convergence certificates, a canonical-ensemble polymer
expansion, correlation-function series, and an Ornstein-Zernike /
Percus-Yevick solver."""

from .graphs import (
    Graph,
    GraphClass,
    EnrichedTree,
    EnumerationTooLarge,
    enumerate_graphs,
    enumerate_bicolored,
    enumerate_enriched_trees,
    prufer_trees,
)
from .potentials import (
    Kind,
    Potential,
    StabilityProfile,
    hard_rods,
    hard_spheres,
    square_well,
    lennard_jones,
    zero_potential,
    stability_profile,
)
from .weights import (
    CoefficientEstimate,
    count_graphs,
    graph_weight_exact_1d,
    graph_weight_periodic_1d,
    graph_weight_mc,
)
from .coefficients import mayer_b_n, irreducible_beta_n, a_kernel, beta_table
from .catalog import CatalogKey, CoefficientTable
from .series import (
    TruncatedSeries,
    lagrange_invert,
    enriched_tree_invert,
    eos_and_free_energy,
    dissymmetry_residual,
    density_from_activity,
)
from .convergence import (
    ConvergenceCertificate,
    activity_radius,
    canonical_radius,
    rooted_tree_fixpoint,
)
from .canonical import canonical_B_k, canonical_free_energy, direct_logZ_oracle
from .correlations import (
    CorrelationSeries,
    u_n_activity,
    rho_n_activity,
    h_n_density,
    c2_density,
    oz_residual_order,
    gc_correlation_oracle,
)
from .ozpy import RadialGrid, RadialFunctions, NonConvergence, solve_py, thermodynamics

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphClass", "EnrichedTree", "EnumerationTooLarge",
    "enumerate_graphs", "enumerate_bicolored", "enumerate_enriched_trees",
    "prufer_trees",
    "Kind", "Potential", "StabilityProfile", "hard_rods", "hard_spheres",
    "square_well", "lennard_jones", "zero_potential", "stability_profile",
    "CoefficientEstimate", "count_graphs", "graph_weight_exact_1d",
    "graph_weight_periodic_1d", "graph_weight_mc",
    "mayer_b_n", "irreducible_beta_n", "a_kernel", "beta_table",
    "CatalogKey", "CoefficientTable",
    "TruncatedSeries", "lagrange_invert",
    "enriched_tree_invert", "eos_and_free_energy", "dissymmetry_residual",
    "density_from_activity",
    "ConvergenceCertificate", "activity_radius",
    "canonical_radius", "rooted_tree_fixpoint",
    "canonical_B_k", "canonical_free_energy", "direct_logZ_oracle",
    "CorrelationSeries", "u_n_activity", "rho_n_activity", "h_n_density",
    "c2_density", "oz_residual_order", "gc_correlation_oracle",
    "RadialGrid", "RadialFunctions", "NonConvergence", "solve_py",
    "thermodynamics",
]
