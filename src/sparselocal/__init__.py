"""Weighted sparse rank-one inhomogeneous random graphs, their local
Galton-Watson limits, explicit neighbourhood couplings with closed-form
failure bounds, and Monte Carlo verification of the central-limit behaviour
of graph functionals."""

from .bounds import (BoundParams, VertexSetSummary, epsilon_rho_sequences, epsilon_v_bound,
                     eta_bound, structural_bounds)
from .coupling import (CouplingConfig, CouplingOutcome, couple_full,
                       couple_intermediate_to_limit,
                       couple_neighbourhood_to_intermediate, repair_independence)
from .explore import Neighbourhood, explore
from .graph import LazyGraph, WeightedGraph, sample_graph
from .harness import (ExperimentConfig, clt_experiment, coupling_experiment,
                      estimate_variance, ks_to_normal)
from .limit_trees import Population, rde_apply, rde_fixed_point
from .matching import Matching, dependent_edge_sum, max_weight_matching, max_weight_matchings
from .trees import RootedWeightedTree
from .weights import (EmpiricalSizeBiased, EmpiricalWeights, MomentSummary, WeightSpec,
                      moments, sample_empirical_weights)

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "VertexSetSummary", "epsilon_rho_sequences", "epsilon_v_bound",
    "eta_bound", "structural_bounds",
    "CouplingConfig", "CouplingOutcome", "couple_full",
    "couple_intermediate_to_limit", "couple_neighbourhood_to_intermediate",
    "repair_independence",
    "Neighbourhood", "explore",
    "LazyGraph", "WeightedGraph", "sample_graph",
    "ExperimentConfig", "clt_experiment", "coupling_experiment", "estimate_variance",
    "ks_to_normal",
    "Population", "rde_apply", "rde_fixed_point",
    "Matching", "dependent_edge_sum", "max_weight_matching", "max_weight_matchings",
    "RootedWeightedTree",
    "EmpiricalSizeBiased", "EmpiricalWeights", "MomentSummary", "WeightSpec",
    "moments", "sample_empirical_weights",
]
