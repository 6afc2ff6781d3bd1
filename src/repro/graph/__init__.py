"""Weighted graph substrate used by every query algorithm in :mod:`repro`.

The paper's algorithms only ever touch a graph through three operations:

* enumerate the (out-)neighbours of a node together with edge weights,
* enumerate the in-neighbours (equivalently, the out-neighbours on the
  transpose graph ``G^T``) for building the SDS-tree, and
* look up basic node metadata (degree, bichromatic class).

:class:`~repro.graph.graph.Graph` provides exactly that with adjacency-list
storage, and the rest of this subpackage supplies construction helpers,
serialisation, validation, statistics and bichromatic partitions.
"""

from repro.graph.graph import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CompactGraph
from repro.graph.overlay import OverlayGraph
from repro.graph.shm import (
    SharedGraphHandle,
    SharedGraphOwner,
    attach_compact_graph,
    share_compact_graph,
)
from repro.graph.partition import BichromaticPartition
from repro.graph.validation import validate_graph
from repro.graph.statistics import GraphStatistics, compute_statistics

__all__ = [
    "Graph",
    "GraphBuilder",
    "CompactGraph",
    "OverlayGraph",
    "SharedGraphHandle",
    "SharedGraphOwner",
    "share_compact_graph",
    "attach_compact_graph",
    "BichromaticPartition",
    "validate_graph",
    "GraphStatistics",
    "compute_statistics",
]
