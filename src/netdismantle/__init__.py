"""Generalized network dismantling at minimum node cost.

Dismantling asks for a cheapest node set whose removal leaves every
connected component at or below a size cap.  The solver here bisects the
current largest component along an approximate second eigenvector of a
cost-weighted Laplacian, removes a pruned 2-approximate weighted vertex
cover of the cut, repeats until the cap holds, then greedily reinserts
nodes the final state never needed.  Because single runs are cheap and
seed-sensitive, an ensemble mode runs many seeds and keeps the cheapest
solution.
"""

from .costs import CostMode, CostVector
from .dismantle import (
    DismantlingSolution,
    DismantlingTarget,
    SolutionMetadata,
    cost_of,
    dismantle,
    reinsert,
    replay_gcc_sizes,
)
from .ensemble import (
    DifferenceHistogram,
    EnsembleConfig,
    EnsembleReport,
    MemberResult,
    gcc_difference_histogram,
    run_ensemble,
    run_variability,
)
from .errors import (
    ComponentTooSmallError,
    DegenerateSpectrumError,
    EnsembleMemberError,
    InternalInvariantError,
    InvalidCostError,
    ParseError,
)
from .graph import ComponentDecomposition, Graph, Subgraph, components, full_mask, parse_edge_list
from .spectral import (
    Partition,
    WeightedLaplacianOperator,
    approx_fiedler,
    build_operator,
    fine_tune_partition,
    iteration_budget,
    sign_partition,
)
from .cover import CoverResult, cut_edges, prune_redundant, weighted_vertex_cover

__version__ = "0.1.0"

__all__ = [
    "CostMode",
    "CostVector",
    "DismantlingSolution",
    "DismantlingTarget",
    "SolutionMetadata",
    "cost_of",
    "dismantle",
    "reinsert",
    "replay_gcc_sizes",
    "DifferenceHistogram",
    "EnsembleConfig",
    "EnsembleReport",
    "MemberResult",
    "gcc_difference_histogram",
    "run_ensemble",
    "run_variability",
    "ComponentTooSmallError",
    "DegenerateSpectrumError",
    "EnsembleMemberError",
    "InternalInvariantError",
    "InvalidCostError",
    "ParseError",
    "ComponentDecomposition",
    "Graph",
    "Subgraph",
    "components",
    "full_mask",
    "parse_edge_list",
    "Partition",
    "WeightedLaplacianOperator",
    "approx_fiedler",
    "build_operator",
    "fine_tune_partition",
    "iteration_budget",
    "sign_partition",
    "CoverResult",
    "cut_edges",
    "prune_redundant",
    "weighted_vertex_cover",
    "__version__",
]
