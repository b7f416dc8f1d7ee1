"""Weighted sparse rank-one inhomogeneous random graphs, their local
Galton-Watson limits, explicit neighbourhood couplings with closed-form
failure bounds, and Monte Carlo verification of the central-limit behaviour
of graph functionals."""

from .bounds import (BoundParams, VertexSetSummary, clt_bound, epsilon_rho_sequences,
                     epsilon_v_bound, eta_bound, structural_bounds)
from .coupling import (CouplingConfig, CouplingOutcome, couple_full,
                       couple_intermediate_to_limit,
                       couple_neighbourhood_to_intermediate, repair_independence)
from .explore import Neighbourhood, explore, is_tree, to_rooted_tree
from .graph import (PerturbationSet, WeightedGraph, edge_probability, perturb,
                    sample_graph)
from .harness import (ExperimentConfig, clt_experiment, coupling_experiment,
                      estimate_variance, ks_to_normal)
from .limit_trees import (Population, rde_apply, rde_fixed_point,
                          sample_intermediate_tree, sample_limit_tree)
from .matching import (Matching, SandwichResult, delta_N, dependent_edge_sum,
                       envelope_bound, h_k, h_value, matching_sandwich,
                       max_weight_matching)
from .trees import RootedWeightedTree, canonical_code
from .weights import (EmpiricalSizeBiased, EmpiricalWeights, MomentSummary, WeightSpec,
                      moments, sample_empirical_weights, wasserstein_1d)

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "VertexSetSummary", "clt_bound", "epsilon_rho_sequences",
    "epsilon_v_bound", "eta_bound", "structural_bounds",
    "CouplingConfig", "CouplingOutcome", "couple_full",
    "couple_intermediate_to_limit", "couple_neighbourhood_to_intermediate",
    "repair_independence",
    "Neighbourhood", "explore", "is_tree", "to_rooted_tree",
    "PerturbationSet", "WeightedGraph", "edge_probability", "perturb", "sample_graph",
    "ExperimentConfig", "clt_experiment", "coupling_experiment", "estimate_variance",
    "ks_to_normal",
    "Population", "rde_apply", "rde_fixed_point",
    "sample_intermediate_tree", "sample_limit_tree",
    "Matching", "SandwichResult", "delta_N", "dependent_edge_sum", "envelope_bound",
    "h_k", "h_value", "matching_sandwich", "max_weight_matching",
    "RootedWeightedTree", "canonical_code",
    "EmpiricalSizeBiased", "EmpiricalWeights", "MomentSummary", "WeightSpec",
    "moments", "sample_empirical_weights", "wasserstein_1d",
]
