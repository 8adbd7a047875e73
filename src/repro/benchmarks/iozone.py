"""The IOzone suite member (sequential write test).

One IOzone instance runs per node (the paper sweeps "different number of
nodes"), writing a node-local file.  The run is rendered as a single I/O
phase per participating node: core mostly blocked, disk streaming at its
sustained rate, a small memory share for the page-cache traffic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import BenchmarkError
from ..perfmodels.iozone import IOzoneModel
from ..sim.executor import ClusterExecutor
from ..sim.placement import breadth_first_placement
from ..sim.workload import Phase, PhaseKind, rank_programs
from .base import Benchmark, BuiltRun

__all__ = ["IOzoneBenchmark", "IOZONE_INTENSITY", "IOZONE_MEMORY"]

# Phase utilizations, read at build time here and by the batched fleet
# evaluator (repro.fleet.evaluate).
#: CPU intensity of the writer process (mostly blocked in write(2)).
IOZONE_INTENSITY = 0.15
#: Memory-bandwidth share of page-cache copies.
IOZONE_MEMORY = 0.05


class IOzoneBenchmark(Benchmark):
    """IOzone write test, stressing the I/O subsystem.

    Parameters
    ----------
    file_bytes:
        Per-node file size; ignored when ``target_seconds`` is given.
        Should be several times DRAM for cache-honest rates.
    target_seconds:
        If set, the file size is derived so the run lasts about this long.

    Note
    ----
    ``scale`` for this benchmark is the *node* count, matching the paper's
    Figure 4 x-axis.
    """

    name = "IOzone"
    metric_label = "B/s"

    def __init__(
        self,
        *,
        file_bytes: float = 64e9,
        target_seconds: Optional[float] = None,
    ):
        if file_bytes <= 0:
            raise BenchmarkError("file_bytes must be > 0")
        if target_seconds is not None and target_seconds <= 0:
            raise BenchmarkError("target_seconds must be > 0")
        self.file_bytes = file_bytes
        self.target_seconds = target_seconds

    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile an IOzone run on ``scale`` nodes (one writer per node)."""
        cluster = executor.cluster
        if scale > cluster.num_nodes:
            raise BenchmarkError(
                f"IOzone scale {scale} exceeds cluster's {cluster.num_nodes} nodes"
            )
        model = IOzoneModel(cluster=cluster)
        file_bytes = self.file_bytes
        if self.target_seconds is not None:
            file_bytes = model.file_size_for_time(self.target_seconds)
        prediction = model.predict(scale, file_bytes=file_bytes)

        # One rank per node: breadth-first placement of `scale` ranks puts
        # rank i on node i.
        placement = breadth_first_placement(cluster, scale)
        write = Phase(
            kind=PhaseKind.IO,
            duration_s=prediction.time_s,
            cpu_intensity=IOZONE_INTENSITY,
            memory=IOZONE_MEMORY,
            storage=1.0,
            label="iozone-write",
        )
        template = (write,)
        programs = rank_programs(template, scale)
        details: Dict[str, float] = {
            "file_bytes": float(file_bytes),
            "per_node_bandwidth": prediction.per_node_bandwidth,
            "predicted_time_s": prediction.time_s,
        }
        return BuiltRun(
            placement=placement,
            programs=programs,
            performance=prediction.aggregate_bandwidth,
            details=details,
        )
