"""MPI process placement onto cluster nodes.

Two standard policies:

* :func:`breadth_first_placement` — cyclic / round-robin over nodes, the
  default of most MPI launchers (``--map-by node``) and what the paper's
  process sweeps imply: 16 processes on an 8-node cluster means 2 per node.
* :func:`packed_placement` — fill each node's cores before moving on
  (``--map-by core``), kept for the placement ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import PlacementError
from ..validation import check_positive_int

__all__ = ["Placement", "breadth_first_placement", "packed_placement"]


@dataclass(frozen=True)
class Placement:
    """An immutable rank -> node assignment over a cluster."""

    cluster: ClusterSpec
    node_of_rank: Tuple[int, ...]
    policy: str

    def __post_init__(self) -> None:
        if not self.node_of_rank:
            raise PlacementError("placement must contain at least one rank")
        num_nodes = self.cluster.num_nodes
        nodes = np.fromiter(self.node_of_rank, np.intp, len(self.node_of_rank))
        outside = (nodes < 0) | (nodes >= num_nodes)
        if outside.any():
            rank = int(np.argmax(outside))
            raise PlacementError(
                f"rank {rank} placed on node {nodes[rank]}, cluster has {num_nodes}"
            )
        counts = np.bincount(nodes, minlength=num_nodes)
        per_node_cores = self.cluster.node.cores
        over = counts > per_node_cores
        if over.any():
            # name the over-full node that the lowest such rank sits on
            node = int(nodes[np.argmax(over[nodes])])
            raise PlacementError(
                f"node {node} assigned {counts[node]} ranks but has {per_node_cores} cores"
            )
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_counts", counts)

    @property
    def num_ranks(self) -> int:
        """Total MPI ranks placed."""
        return len(self.node_of_rank)

    @property
    def node_array(self) -> np.ndarray:
        """:attr:`node_of_rank` as a read-only ``intp`` array."""
        return self._nodes

    @property
    def nodes_used(self) -> List[int]:
        """Sorted node indices hosting at least one rank."""
        return np.flatnonzero(self._counts).tolist()

    def ranks_on_node(self, node: int) -> List[int]:
        """Rank ids assigned to ``node``."""
        return np.flatnonzero(self._nodes == node).tolist()

    def ranks_per_node(self, node: int) -> int:
        """Number of ranks on ``node`` (0 for unused nodes)."""
        if not 0 <= node < self._counts.size:
            return 0
        return int(self._counts[node])

    def max_ranks_per_node(self) -> int:
        """Largest per-node rank count."""
        return int(self._counts.max())


def breadth_first_placement(cluster: ClusterSpec, num_ranks: int) -> Placement:
    """Round-robin ranks over nodes: rank ``r`` lands on ``r % num_nodes``."""
    check_positive_int(num_ranks, "num_ranks", exc=PlacementError)
    if num_ranks > cluster.total_cores:
        raise PlacementError(
            f"{num_ranks} ranks exceed cluster capacity of {cluster.total_cores} cores"
        )
    mapping = tuple((np.arange(num_ranks) % cluster.num_nodes).tolist())
    return Placement(cluster=cluster, node_of_rank=mapping, policy="breadth-first")


def packed_placement(cluster: ClusterSpec, num_ranks: int) -> Placement:
    """Fill node 0's cores, then node 1's, and so on."""
    check_positive_int(num_ranks, "num_ranks", exc=PlacementError)
    if num_ranks > cluster.total_cores:
        raise PlacementError(
            f"{num_ranks} ranks exceed cluster capacity of {cluster.total_cores} cores"
        )
    cores = cluster.node.cores
    mapping = tuple((np.arange(num_ranks) // cores).tolist())
    return Placement(cluster=cluster, node_of_rank=mapping, policy="packed")
