"""Orderings and partitioners: random permutation and METIS-like multilevel."""

from .random_perm import (
    apply_symmetric_permutation,
    invert_permutation,
    random_symmetric_permutation,
)
from .weights import (
    balance_ratio,
    degree_vertex_weights,
    spgemm_vertex_weights,
    squaring_vertex_weights,
)
from .graph import AdjacencyGraph
from .coarsen import CoarseningLevel, coarsen_graph, coarsen_to_size, heavy_edge_matching
from .refine import greedy_kway_refine, is_balanced, partition_weights
from .metis_like import PartitionResult, partition_graph, partition_matrix
from .ordering import (
    Ordering,
    apply_ordering,
    identity_ordering,
    ordering_from_partition,
    rcm_ordering,
)

__all__ = [
    "apply_symmetric_permutation",
    "invert_permutation",
    "random_symmetric_permutation",
    "balance_ratio",
    "degree_vertex_weights",
    "spgemm_vertex_weights",
    "squaring_vertex_weights",
    "AdjacencyGraph",
    "CoarseningLevel",
    "coarsen_graph",
    "coarsen_to_size",
    "heavy_edge_matching",
    "greedy_kway_refine",
    "is_balanced",
    "partition_weights",
    "PartitionResult",
    "partition_graph",
    "partition_matrix",
    "Ordering",
    "apply_ordering",
    "identity_ordering",
    "ordering_from_partition",
    "rcm_ordering",
]
