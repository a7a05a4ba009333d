"""Desk-scale simulator of classical and quantum CONGEST networks."""

from .graphs import Graph, bfs_distances, diameter_bruteforce, eccentricity, generate
from .engine import CostReport, NodePeaks, Word, default_bandwidth, run
from .procedures import (
    BfsTreeState,
    DfsNumbering,
    build_bfs_tree,
    dfs_numbering,
    elect_leader_and_ecc,
    set_S,
)
from .evaluation import evaluation_procedure, make_eval_context
from .qsearch import (
    AmplitudeState,
    QOptConfig,
    SearchCost,
    amplitude_amplify_decide,
    grover_iterate,
    quantum_maximize,
    setup_subset,
    setup_uniform,
)
from .diameter import approx_diameter, exact_diameter, exact_diameter_simple

__all__ = [
    "Graph",
    "bfs_distances",
    "eccentricity",
    "diameter_bruteforce",
    "generate",
    "CostReport",
    "NodePeaks",
    "Word",
    "default_bandwidth",
    "run",
    "BfsTreeState",
    "DfsNumbering",
    "build_bfs_tree",
    "dfs_numbering",
    "elect_leader_and_ecc",
    "set_S",
    "evaluation_procedure",
    "make_eval_context",
    "AmplitudeState",
    "QOptConfig",
    "SearchCost",
    "amplitude_amplify_decide",
    "grover_iterate",
    "quantum_maximize",
    "setup_subset",
    "setup_uniform",
    "exact_diameter",
    "exact_diameter_simple",
    "approx_diameter",
]
