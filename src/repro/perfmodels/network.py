"""Effective-bandwidth (b_eff-style) network performance model — extension.

HPCC's b_eff measures the *average* per-process communication bandwidth
over a mix of ring and random-neighbour patterns at several message sizes.
The model averages the Hockney rate ``m / (alpha' + m/beta)`` over a
geometric ladder of message sizes (the b_eff rules use 21 sizes from 1 B to
1/128 of memory; a short ladder captures the same latency-vs-bandwidth
blend), with ``alpha'`` the topology's mean latency and ``beta`` the link
bandwidth shared by the ranks on a node.

Reported metric: aggregate bytes/s (``b_eff = avg_rank_bw x p``), matching
how the suite's other members report aggregate rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_positive, check_positive_int

__all__ = ["EffectiveBandwidthModel", "EffectiveBandwidthPrediction"]

#: Message-size ladder (bytes): latency-bound to bandwidth-bound.
DEFAULT_MESSAGE_SIZES: Tuple[float, ...] = (1e3, 8e3, 64e3, 512e3, 4e6)
#: Latency of a shared-memory (intra-node) message.
_INTRA_NODE_LATENCY_S = 0.4e-6
#: Effective bytes/s of an intra-node copy (bounded by memory bandwidth).
_INTRA_NODE_BANDWIDTH = 4e9


@dataclass(frozen=True)
class EffectiveBandwidthPrediction:
    """Predicted effective bandwidth of one run."""

    num_ranks: int
    rounds: int
    time_s: float
    per_rank_bandwidth: float
    aggregate_bandwidth: float
    bytes_moved: float


@dataclass(frozen=True)
class EffectiveBandwidthModel:
    """b_eff-style predictor for one cluster."""

    cluster: ClusterSpec
    message_sizes: Tuple[float, ...] = DEFAULT_MESSAGE_SIZES

    def __post_init__(self) -> None:
        if not self.message_sizes:
            raise BenchmarkError("need at least one message size")
        for m in self.message_sizes:
            check_positive(m, "message size", exc=BenchmarkError)

    def per_rank_bandwidth(self, num_ranks: int, *, ranks_per_node: int = 0) -> float:
        """Mean bytes/s per rank across the message-size ladder.

        The node's link is shared by its ranks, so per-rank bandwidth
        divides by ranks-per-node; single-node runs exchange through
        shared memory at the intra-node rate.
        """
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        k = min(k, num_ranks)
        # alpha' is the fabric's mean endpoint-to-endpoint latency (shared
        # memory on a one-node machine)
        if self.cluster.num_nodes == 1:
            alpha = _INTRA_NODE_LATENCY_S
        else:
            alpha = self.cluster.topology.mean_hops() * self.cluster.node.nic.latency_s
        if math.ceil(num_ranks / k) <= 1:
            beta = _INTRA_NODE_BANDWIDTH
        else:
            beta = self.cluster.node.nic.bandwidth / k
        rates = [m / (alpha + m / beta) for m in self.message_sizes]
        # b_eff uses a logarithmic average over sizes: plain mean over the
        # geometric ladder is equivalent
        return sum(rates) / len(rates)

    def predict(
        self, num_ranks: int, *, rounds: int = 1000, ranks_per_node: int = 0
    ) -> EffectiveBandwidthPrediction:
        """Predict ``rounds`` sweeps of the message ladder per rank."""
        check_positive_int(rounds, "rounds", exc=BenchmarkError)
        per_rank = self.per_rank_bandwidth(num_ranks, ranks_per_node=ranks_per_node)
        bytes_per_round = sum(self.message_sizes)
        time_s = rounds * bytes_per_round / per_rank
        return EffectiveBandwidthPrediction(
            num_ranks=num_ranks,
            rounds=rounds,
            time_s=time_s,
            per_rank_bandwidth=per_rank,
            aggregate_bandwidth=per_rank * num_ranks,
            bytes_moved=rounds * bytes_per_round * num_ranks,
        )

    def rounds_for_time(
        self, target_seconds: float, num_ranks: int, *, ranks_per_node: int = 0
    ) -> int:
        """Round count whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        one = self.predict(num_ranks, rounds=1, ranks_per_node=ranks_per_node)
        return max(1, round(target_seconds / one.time_s))
