"""Communication cost model: Hockney alpha-beta with standard collectives.

Point-to-point time between nodes ``a`` and ``b`` is
``hops(a, b) * alpha + bytes / beta`` where ``alpha`` is the per-hop latency
and ``beta`` the link bandwidth of the cluster's
:class:`~repro.cluster.nic.InterconnectSpec`.  Intra-node messages cost a
fixed small shared-memory latency plus a copy at (high) memory bandwidth.

Collectives use the classic algorithm costs (Thakur et al., "Optimization of
Collective Communication Operations in MPICH"):

* broadcast (binomial tree):       ``ceil(log2 p) * (alpha' + m/beta)``
* allreduce (recursive doubling /
  Rabenseifner for large m):       ``2 log2(p) alpha' + 2 m (p-1)/(p beta)``
* allgather (ring):                ``(p-1) alpha' + (p-1)/p * M/beta``
* alltoall (pairwise exchange):    ``(p-1) (alpha' + m/beta)``

with ``alpha'`` the mean inter-endpoint latency under the topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.cluster import ClusterSpec
from ..exceptions import SimulationError
from ..validation import check_non_negative, check_positive_int

__all__ = ["CommunicationModel"]

#: Latency of a shared-memory (intra-node) message.
_INTRA_NODE_LATENCY_S = 0.4e-6
#: Effective bytes/s of an intra-node copy (bounded by memory bandwidth).
_INTRA_NODE_BANDWIDTH = 4e9


@dataclass(frozen=True)
class CommunicationModel:
    """Message costs over a cluster's interconnect."""

    cluster: ClusterSpec

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def p2p_time(self, message_bytes: float, node_a: int, node_b: int) -> float:
        """Seconds to move one message between two ranks' nodes."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        if node_a == node_b:
            return _INTRA_NODE_LATENCY_S + message_bytes / _INTRA_NODE_BANDWIDTH
        nic = self.cluster.node.nic
        hops = self.cluster.topology.hops(node_a, node_b)
        return hops * nic.latency_s + message_bytes / nic.bandwidth

    def effective_latency(self) -> float:
        """Mean inter-endpoint latency (used inside collective formulas)."""
        nic = self.cluster.node.nic
        if self.cluster.num_nodes == 1:
            return _INTRA_NODE_LATENCY_S
        return self.cluster.topology.mean_hops() * nic.latency_s

    # ------------------------------------------------------------------
    # Collectives (p = participating ranks, m = bytes per rank)
    # ------------------------------------------------------------------
    def broadcast_time(self, message_bytes: float, num_ranks: int) -> float:
        """Binomial-tree broadcast of ``message_bytes`` to ``num_ranks``."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        rounds = math.ceil(math.log2(num_ranks))
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        return rounds * (alpha + message_bytes / beta)

    def allreduce_time(self, message_bytes: float, num_ranks: int) -> float:
        """Rabenseifner-style allreduce of ``message_bytes`` per rank."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        p = num_ranks
        return 2 * math.log2(p) * alpha + 2 * message_bytes * (p - 1) / (p * beta)

    def allgather_time(self, message_bytes_per_rank: float, num_ranks: int) -> float:
        """Ring allgather; each rank contributes ``message_bytes_per_rank``."""
        check_non_negative(message_bytes_per_rank, "message_bytes_per_rank", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        p = num_ranks
        total = message_bytes_per_rank * p
        return (p - 1) * alpha + (p - 1) / p * total / beta

    def alltoall_time(self, message_bytes_per_pair: float, num_ranks: int) -> float:
        """Pairwise-exchange all-to-all."""
        check_non_negative(message_bytes_per_pair, "message_bytes_per_pair", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        return (num_ranks - 1) * (alpha + message_bytes_per_pair / beta)

    def barrier_time(self, num_ranks: int) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` latency rounds."""
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        return math.ceil(math.log2(num_ranks)) * self.effective_latency()
