"""IOzone sequential-write performance model.

The paper runs only IOzone's write test, one instance per node, and reports
MB/s.  A write benchmark's measured rate blends two regimes:

* while the file still fits in free page cache, writes complete at memory
  speed (the *absorption window*);
* once the cache is saturated (or when the run ends with a mandated flush),
  writes proceed at the device's sustained sequential rate.

The cache window is :data:`CACHE_WINDOW_FRACTION` of node DRAM (a quarter,
a typical dirty-page ceiling), absorbed at :data:`CACHE_BANDWIDTH`, and the
device rate carries a fixed :data:`FILESYSTEM_EFFICIENCY`.  For the file
sizes the experiments use (several x DRAM) the device rate dominates, as it
must for an I/O benchmark to be meaningful — but the window is modelled so
tests can demonstrate the classic "IOzone lies for small files" artifact.

Aggregate performance over ``k`` nodes is ``k`` times the per-node rate
(node-local disks; no shared filesystem contention).

One formula per term: :func:`cache_window`, :func:`device_rate`,
:func:`write` and :func:`file_size_for_time` are elementwise over plain
numbers or NumPy arrays.  :class:`IOzoneModel` calls them with one
cluster's numbers; the batched fleet evaluator (:mod:`repro.fleet.evaluate`)
calls them with per-system spec columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_positive, check_positive_int

__all__ = [
    "IOzoneModel",
    "IOzonePrediction",
    "FILESYSTEM_EFFICIENCY",
    "CACHE_BANDWIDTH",
    "CACHE_WINDOW_FRACTION",
    "cache_window",
    "device_rate",
    "write",
    "file_size_for_time",
]

#: Fraction of the device's sequential rate the filesystem sustains
#: (journaling, metadata, and allocation overhead).
FILESYSTEM_EFFICIENCY = 0.92
#: Apparent bytes/s while writes land in the page cache.
CACHE_BANDWIDTH = 2.0e9
#: Share of node DRAM absorbed at memory speed before the device rate applies.
CACHE_WINDOW_FRACTION = 0.25


def cache_window(node_memory_bytes):
    """Bytes a node absorbs at memory speed (elementwise)."""
    return CACHE_WINDOW_FRACTION * node_memory_bytes


def device_rate(write_bandwidth):
    """Sustained filesystem write bytes/s of a device (elementwise)."""
    return write_bandwidth * FILESYSTEM_EFFICIENCY


def write(file_bytes, node_memory_bytes, write_bandwidth):
    """``(seconds, per-node bytes/s)`` of writing ``file_bytes`` on one node.

    Elementwise.  The blended rate is mathematically within
    ``[device_rate, CACHE_BANDWIDTH]``, but the float division can land a
    few ulps above the cache ceiling (e.g. when the file barely exceeds the
    absorption window), so it is clamped to honour that bound exactly.
    """
    absorbed = np.minimum(cache_window(node_memory_bytes), file_bytes)
    time_s = absorbed / CACHE_BANDWIDTH + (file_bytes - absorbed) / device_rate(
        write_bandwidth
    )
    return time_s, np.minimum(file_bytes / time_s, CACHE_BANDWIDTH)


def file_size_for_time(target_seconds, node_memory_bytes, write_bandwidth):
    """Per-node file size whose write lasts ~``target_seconds`` (elementwise)."""
    window = cache_window(node_memory_bytes)
    window_time = window / CACHE_BANDWIDTH
    return np.where(
        target_seconds <= window_time,
        np.maximum(1.0, target_seconds * CACHE_BANDWIDTH),
        window + (target_seconds - window_time) * device_rate(write_bandwidth),
    )


@dataclass(frozen=True)
class IOzonePrediction:
    """Predicted timing and rate of one IOzone write run."""

    num_nodes: int
    file_bytes: float
    time_s: float
    per_node_bandwidth: float  # measured bytes/s on each node
    aggregate_bandwidth: float  # summed over nodes


@dataclass(frozen=True)
class IOzoneModel:
    """IOzone write-test predictor for one cluster.

    The cache window, cache rate and filesystem efficiency are the module
    constants above, read at call time.
    """

    cluster: ClusterSpec

    def effective_cache_window(self) -> float:
        """The absorption window in bytes."""
        return cache_window(self.cluster.node.memory_bytes)

    def device_rate(self) -> float:
        """Sustained filesystem write bytes/s of one node."""
        return device_rate(self.cluster.node.storage.seq_write_bandwidth)

    def predict(self, num_nodes: int, *, file_bytes: float) -> IOzonePrediction:
        """Predict a write of ``file_bytes`` per node on ``num_nodes`` nodes."""
        check_positive_int(num_nodes, "num_nodes", exc=BenchmarkError)
        if num_nodes > self.cluster.num_nodes:
            raise BenchmarkError(
                f"{num_nodes} nodes exceed cluster size {self.cluster.num_nodes}"
            )
        check_positive(file_bytes, "file_bytes", exc=BenchmarkError)
        node = self.cluster.node
        time_s, per_node = write(
            file_bytes, node.memory_bytes, node.storage.seq_write_bandwidth
        )
        per_node = float(per_node)
        return IOzonePrediction(
            num_nodes=num_nodes,
            file_bytes=file_bytes,
            time_s=float(time_s),
            per_node_bandwidth=per_node,
            aggregate_bandwidth=per_node * num_nodes,
        )

    def file_size_for_time(self, target_seconds: float) -> float:
        """Per-node file size whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        node = self.cluster.node
        return float(
            file_size_for_time(
                target_seconds, node.memory_bytes, node.storage.seq_write_bandwidth
            )
        )
