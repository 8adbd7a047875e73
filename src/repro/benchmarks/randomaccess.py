"""The RandomAccess (GUPS) suite member — extension beyond the paper.

Exercises memory *latency* (HPCC's complement to STREAM's bandwidth test).
Power profile: cores mostly stalled on cache misses (low intensity), DRAM
moderately busy (random accesses waste most of each burst), NIC busy when
the bucketed exchange is network-bound.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import BenchmarkError
from ..perfmodels.randomaccess import RandomAccessModel
from ..sim.executor import ClusterExecutor
from ..sim.placement import breadth_first_placement
from ..sim.workload import Phase, PhaseKind, barrier, rank_programs
from .base import Benchmark, BuiltRun

__all__ = ["RandomAccessBenchmark"]

#: Stalled-on-miss core intensity.
_GUPS_INTENSITY = 0.35
#: DRAM utilization: random 8 B updates waste most of each 64 B burst, so
#: even a saturated controller moves a modest fraction of peak bandwidth.
_GUPS_MEMORY = 0.35


class RandomAccessBenchmark(Benchmark):
    """HPCC RandomAccess, stressing memory latency (reports updates/s).

    Parameters
    ----------
    updates_per_rank:
        Updates each rank issues; ignored when ``target_seconds`` is set.
    target_seconds:
        If set, the update count is derived per scale point.
    model_kwargs:
        Extra parameters for :class:`~repro.perfmodels.randomaccess.RandomAccessModel`.
    """

    name = "RandomAccess"
    metric_label = "UP/s"

    def __init__(
        self,
        *,
        updates_per_rank: float = 4e9,
        target_seconds: Optional[float] = None,
        rounds: int = 2,
        **model_kwargs,
    ):
        if updates_per_rank <= 0:
            raise BenchmarkError("updates_per_rank must be > 0")
        if target_seconds is not None and target_seconds <= 0:
            raise BenchmarkError("target_seconds must be > 0")
        if rounds < 1:
            raise BenchmarkError("rounds must be >= 1")
        self.updates_per_rank = updates_per_rank
        self.target_seconds = target_seconds
        self.rounds = rounds
        self.model_kwargs = dict(model_kwargs)

    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile a GUPS run on ``scale`` MPI ranks (breadth-first)."""
        cluster = executor.cluster
        model = RandomAccessModel(cluster=cluster, **self.model_kwargs)
        placement = breadth_first_placement(cluster, scale)
        ranks_per_node = placement.max_ranks_per_node()
        updates = self.updates_per_rank
        if self.target_seconds is not None:
            updates = model.updates_for_time(
                self.target_seconds, scale, ranks_per_node=ranks_per_node
            )
        prediction = model.predict(
            scale, updates_per_rank=updates, ranks_per_node=ranks_per_node
        )
        nic_util = 0.9 if prediction.network_limited else 0.2
        slice_s = prediction.time_s / self.rounds
        update_phase = Phase(
            kind=PhaseKind.MEMORY,
            duration_s=slice_s,
            cpu_intensity=_GUPS_INTENSITY,
            memory=_GUPS_MEMORY / ranks_per_node,
            nic=min(1.0, nic_util / ranks_per_node),
            label="gups-update",
        )
        template = (update_phase, barrier()) * self.rounds
        programs = rank_programs(template, scale)
        details: Dict[str, float] = {
            "updates_per_rank": float(updates),
            "gups": prediction.gups,
            "network_limited": float(prediction.network_limited),
            "predicted_time_s": prediction.time_s,
        }
        return BuiltRun(
            placement=placement,
            programs=programs,
            performance=prediction.updates_per_second,
            details=details,
        )
