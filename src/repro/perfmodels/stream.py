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

One formula per term: :func:`per_core_bandwidth`, :func:`node_bandwidth`,
:func:`sweep_time` and :func:`iterations_for_time` are elementwise over
plain numbers or NumPy arrays.  :class:`StreamModel` calls them with one
cluster's numbers; the batched fleet evaluator (:mod:`repro.fleet.evaluate`)
calls them with per-system spec columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_positive, check_positive_int

__all__ = [
    "StreamModel",
    "StreamPrediction",
    "TRIAD_BYTES_PER_ELEMENT",
    "ARRAY_ELEMENTS",
    "per_core_bandwidth",
    "node_bandwidth",
    "sweep_time",
    "iterations_for_time",
]

#: Triad traffic per element per iteration: read a, read b, write c.
#: (STREAM's official accounting ignores the write-allocate fill.)
TRIAD_BYTES_PER_ELEMENT = 3 * 8
#: Per-rank array length: the STREAM reference size, 20 M doubles, which
#: dwarfs any last-level cache of the machines modelled.
ARRAY_ELEMENTS = 20_000_000


def per_core_bandwidth(socket_bandwidth, cores_to_saturate):
    """Bytes/s one streaming core sustains below saturation (elementwise)."""
    return socket_bandwidth / cores_to_saturate


def node_bandwidth(ranks_on_node, sockets, socket_bandwidth, cores_to_saturate):
    """Sustained Triad bytes/s of one node running ``ranks_on_node`` ranks.

    Round robin over sockets, in closed form: ``extra`` sockets carry
    ``base + 1`` ranks and the rest ``base``; each socket is capped at its
    sustained bandwidth.  Elementwise.
    """
    per_core = per_core_bandwidth(socket_bandwidth, cores_to_saturate)
    base = np.floor(ranks_on_node / sockets)
    extra = ranks_on_node - base * sockets
    return extra * np.minimum((base + 1.0) * per_core, socket_bandwidth) + (
        sockets - extra
    ) * np.minimum(base * per_core, socket_bandwidth)


def sweep_time(iterations, per_rank_bandwidth):
    """Seconds for ``iterations`` Triad sweeps of one rank (elementwise).

    Each sweep moves :data:`ARRAY_ELEMENTS` elements of
    :data:`TRIAD_BYTES_PER_ELEMENT` bytes, both read at call time.
    """
    return iterations * ARRAY_ELEMENTS * TRIAD_BYTES_PER_ELEMENT / per_rank_bandwidth


def iterations_for_time(target_seconds, per_rank_bandwidth):
    """Sweep count (at least 1, as a float) lasting ~``target_seconds``.

    Elementwise; halves round to even.
    """
    return np.maximum(1.0, np.rint(target_seconds / sweep_time(1, per_rank_bandwidth)))


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
        return per_core_bandwidth(mem.sustained_bandwidth, mem.cores_to_saturate)

    def node_bandwidth(self, ranks_on_node: int) -> float:
        """Sustained Triad bytes/s of one node running ``ranks_on_node`` ranks."""
        check_positive_int(ranks_on_node, "ranks_on_node", exc=BenchmarkError)
        node = self.cluster.node
        if ranks_on_node > node.cores:
            raise BenchmarkError(
                f"{ranks_on_node} ranks exceed {node.cores} cores per node"
            )
        return float(
            node_bandwidth(
                ranks_on_node,
                node.sockets,
                node.memory.sustained_bandwidth,
                node.memory.cores_to_saturate,
            )
        )

    def _per_rank_bandwidth(self, num_ranks: int, ranks_per_node: int) -> float:
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        k = min(k, num_ranks)
        return self.node_bandwidth(k) / k

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
        per_rank_bw = self._per_rank_bandwidth(num_ranks, ranks_per_node)
        return StreamPrediction(
            num_ranks=num_ranks,
            array_elements=ARRAY_ELEMENTS,
            iterations=iterations,
            time_s=sweep_time(iterations, per_rank_bw),
            aggregate_bandwidth=per_rank_bw * num_ranks,
        )

    def iterations_for_time(
        self, target_seconds: float, num_ranks: int, *, ranks_per_node: int = 0
    ) -> int:
        """Iteration count whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        per_rank_bw = self._per_rank_bandwidth(num_ranks, ranks_per_node)
        return int(iterations_for_time(target_seconds, per_rank_bw))
