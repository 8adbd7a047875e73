"""STREAM Triad performance model.

STREAM's Triad kernel (``c = alpha * a + b``) streams three arrays through
DRAM; its sustained rate per socket is capped at the socket's
STREAM-sustainable bandwidth and is reached once
:attr:`~repro.cluster.memory.MemorySpec.cores_to_saturate` cores stream
concurrently.  Below saturation a single core's rate is
``socket_sustained / cores_to_saturate``.

Ranks are assumed spread evenly over a node's sockets (the usual
``--bind-to socket`` round robin), so a node with ``k`` ranks sustains::

    sum over sockets of min(ranks_on_socket * per_core_rate, socket_sustained)

The benchmark's reported number is the aggregate MB/s across all ranks —
this is how multi-node STREAM sweeps are conventionally summed, and it makes
the memory benchmark's performance scale with machine size like HPL's does,
which the TGI normalization (REE) relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_positive, check_positive_int

__all__ = [
    "StreamModel",
    "StreamPrediction",
    "TRIAD_BYTES_PER_ELEMENT",
    "ARRAY_ELEMENTS",
]

#: Triad traffic per element per iteration: read a, read b, write c.
#: (STREAM's official accounting ignores the write-allocate fill.)
TRIAD_BYTES_PER_ELEMENT = 3 * 8
#: Per-rank array length: the STREAM reference size, 20 M doubles, which
#: dwarfs any last-level cache of the machines modelled.
ARRAY_ELEMENTS = 20_000_000


@dataclass(frozen=True)
class StreamPrediction:
    """Predicted timing and bandwidth of one STREAM run."""

    num_ranks: int
    array_elements: int
    iterations: int
    time_s: float
    aggregate_bandwidth: float  # bytes/s summed over ranks

    @property
    def per_rank_bandwidth(self) -> float:
        """Mean bytes/s each rank sustains."""
        return self.aggregate_bandwidth / self.num_ranks


@dataclass(frozen=True)
class StreamModel:
    """STREAM Triad predictor for one cluster."""

    cluster: ClusterSpec

    def per_core_bandwidth(self) -> float:
        """Bytes/s a single streaming core sustains."""
        mem = self.cluster.node.memory
        return mem.sustained_bandwidth / mem.cores_to_saturate

    def node_bandwidth(self, ranks_on_node: int) -> float:
        """Sustained Triad bytes/s of one node running ``ranks_on_node`` ranks."""
        check_positive_int(ranks_on_node, "ranks_on_node", exc=BenchmarkError)
        node = self.cluster.node
        if ranks_on_node > node.cores:
            raise BenchmarkError(
                f"{ranks_on_node} ranks exceed {node.cores} cores per node"
            )
        mem = node.memory
        per_core = self.per_core_bandwidth()
        base, extra = divmod(ranks_on_node, node.sockets)
        total = 0.0
        for socket in range(node.sockets):
            on_socket = base + (1 if socket < extra else 0)
            total += min(on_socket * per_core, mem.sustained_bandwidth)
        return total

    def predict(
        self, num_ranks: int, *, iterations: int = 100, ranks_per_node: int = 0
    ) -> StreamPrediction:
        """Predict a run of ``iterations`` Triad sweeps per rank.

        Each rank sweeps :data:`ARRAY_ELEMENTS`-long arrays (read at call
        time), assumed DRAM-resident.  ``ranks_per_node`` defaults to the
        breadth-first value.
        """
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        check_positive_int(iterations, "iterations", exc=BenchmarkError)
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        k = min(k, num_ranks)
        node_bw = self.node_bandwidth(k)
        per_rank_bw = node_bw / k
        bytes_per_rank = iterations * ARRAY_ELEMENTS * TRIAD_BYTES_PER_ELEMENT
        time_s = bytes_per_rank / per_rank_bw
        return StreamPrediction(
            num_ranks=num_ranks,
            array_elements=ARRAY_ELEMENTS,
            iterations=iterations,
            time_s=time_s,
            aggregate_bandwidth=per_rank_bw * num_ranks,
        )

    def iterations_for_time(
        self, target_seconds: float, num_ranks: int, *, ranks_per_node: int = 0
    ) -> int:
        """Iteration count whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        one = self.predict(num_ranks, iterations=1, ranks_per_node=ranks_per_node)
        return max(1, round(target_seconds / one.time_s))
