"""The effective-bandwidth suite member — extension beyond the paper.

Stresses the interconnect the way HPCC's b_eff does: ring/random exchanges
over a ladder of message sizes.  Power profile: cores blocked in MPI
(low intensity), NIC saturated.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import BenchmarkError
from ..perfmodels.network import EffectiveBandwidthModel
from ..sim.executor import ClusterExecutor
from ..sim.placement import breadth_first_placement
from ..sim.workload import barrier, comm_phase, rank_programs
from .base import Benchmark, BuiltRun

__all__ = ["EffectiveBandwidthBenchmark"]


class EffectiveBandwidthBenchmark(Benchmark):
    """b_eff-style network benchmark (reports aggregate bytes/s)."""

    name = "b_eff"
    metric_label = "B/s"

    def __init__(
        self,
        *,
        rounds: int = 1000,
        target_seconds: Optional[float] = None,
        phases: int = 4,
    ):
        if rounds < 1:
            raise BenchmarkError("rounds must be >= 1")
        if target_seconds is not None and target_seconds <= 0:
            raise BenchmarkError("target_seconds must be > 0")
        if phases < 1:
            raise BenchmarkError("phases must be >= 1")
        self.rounds = rounds
        self.target_seconds = target_seconds
        self.phases = phases

    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile a b_eff run on ``scale`` MPI ranks (breadth-first)."""
        cluster = executor.cluster
        model = EffectiveBandwidthModel(cluster=cluster)
        placement = breadth_first_placement(cluster, scale)
        ranks_per_node = placement.max_ranks_per_node()
        rounds = self.rounds
        if self.target_seconds is not None:
            rounds = model.rounds_for_time(
                self.target_seconds, scale, ranks_per_node=ranks_per_node
            )
        prediction = model.predict(scale, rounds=rounds, ranks_per_node=ranks_per_node)
        slice_s = prediction.time_s / self.phases
        exchange = comm_phase(
            slice_s, nic=min(1.0, 1.0 / ranks_per_node), label="beff-exchange"
        )
        template = (exchange, barrier()) * self.phases
        programs = rank_programs(template, scale)
        details: Dict[str, float] = {
            "rounds": float(rounds),
            "per_rank_bandwidth": prediction.per_rank_bandwidth,
            "predicted_time_s": prediction.time_s,
        }
        return BuiltRun(
            placement=placement,
            programs=programs,
            performance=prediction.aggregate_bandwidth,
            details=details,
        )
