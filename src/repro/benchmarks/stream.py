"""The STREAM suite member.

Renders a Triad run as ``rounds`` memory-bound super-steps separated by
barriers.  Each rank's share of its node's sustained bandwidth is taken
from the :class:`~repro.perfmodels.stream.StreamModel`, so a node's memory
utilization sums to the model's saturation level — this is what makes
STREAM's *power* profile differ from HPL's (DRAM fully active, cores at
reduced intensity), reproducing the power gap the paper measures between
the two benchmarks.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import BenchmarkError
from ..perfmodels.stream import StreamModel
from ..sim.executor import ClusterExecutor
from ..sim.placement import breadth_first_placement
from ..sim.workload import RankProgram, barrier, memory_phase
from .base import Benchmark, BuiltRun

__all__ = ["StreamBenchmark"]

#: CPU intensity of a core executing Triad (stalled on DRAM most cycles).
_STREAM_INTENSITY = 0.6


class StreamBenchmark(Benchmark):
    """STREAM Triad, stressing the memory subsystem.

    Each rank sweeps :data:`~repro.perfmodels.stream.ARRAY_ELEMENTS`-long
    arrays (the STREAM reference size).

    Parameters
    ----------
    iterations:
        Triad sweeps per rank; ignored when ``target_seconds`` is given.
    target_seconds:
        If set, the iteration count is derived per scale point so the run
        lasts approximately this long.
    intensity:
        CPU power intensity of a core executing Triad (mostly stalled on
        DRAM); see :class:`~repro.power.components.CPUPowerModel`.
    """

    name = "STREAM"
    metric_label = "B/s"

    def __init__(
        self,
        *,
        iterations: int = 100,
        target_seconds: Optional[float] = None,
        rounds: int = 4,
        intensity: float = _STREAM_INTENSITY,
    ):
        if iterations < 1:
            raise BenchmarkError("iterations must be >= 1")
        if target_seconds is not None and target_seconds <= 0:
            raise BenchmarkError("target_seconds must be > 0")
        if rounds < 1:
            raise BenchmarkError("rounds must be >= 1")
        if not 0 <= intensity <= 1:
            raise BenchmarkError("intensity must be in [0, 1]")
        self.intensity = intensity
        self.iterations = iterations
        self.target_seconds = target_seconds
        self.rounds = rounds

    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile a STREAM run on ``scale`` MPI ranks (breadth-first)."""
        cluster = executor.cluster
        model = StreamModel(cluster=cluster)
        placement = breadth_first_placement(cluster, scale)
        ranks_per_node = placement.max_ranks_per_node()
        iterations = self.iterations
        if self.target_seconds is not None:
            iterations = model.iterations_for_time(
                self.target_seconds, scale, ranks_per_node=ranks_per_node
            )
        prediction = model.predict(
            scale, iterations=iterations, ranks_per_node=ranks_per_node
        )
        # Fraction of the node's sustained bandwidth each rank consumes.
        node_sustained = cluster.node.sustained_memory_bandwidth
        per_rank_fraction = min(1.0, prediction.per_rank_bandwidth / node_sustained)

        slice_s = prediction.time_s / self.rounds
        triad = memory_phase(
            slice_s, memory=per_rank_fraction, intensity=self.intensity, label="triad"
        )
        template = (triad, barrier()) * self.rounds
        programs = tuple(RankProgram(rank=rank, phases=template) for rank in range(scale))

        details: Dict[str, float] = {
            "iterations": float(iterations),
            "array_elements": float(prediction.array_elements),
            "per_rank_bandwidth": prediction.per_rank_bandwidth,
            "predicted_time_s": prediction.time_s,
        }
        return BuiltRun(
            placement=placement,
            programs=programs,
            performance=prediction.aggregate_bandwidth,
            details=details,
        )
