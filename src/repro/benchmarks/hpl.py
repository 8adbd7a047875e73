"""The HPL suite member.

Compiles an :class:`~repro.perfmodels.hpl.HPLModel` prediction into rank
programs: the factorization is rendered as ``rounds`` alternating
compute/communicate super-steps separated by barriers (HPL's actual
``N/NB`` steps are far too fine to simulate individually and would only
refine the power trace below the meter's 1 Hz resolution).  All ranks carry
identical durations, so the simulated makespan equals the model's predicted
time and the reported GFLOPS equals the model's prediction.

Problem sizing policies:

* ``("fixed", N)`` — strong scaling with a fixed matrix (the paper's
  Figure 2 sweep);
* ``("memory", fraction)`` — classic capability sizing from DRAM.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..exceptions import BenchmarkError
from ..perfmodels import hpl as hpl_model
from ..perfmodels.hpl import HPLModel
from ..sim.executor import ClusterExecutor
from ..sim.placement import breadth_first_placement
from ..sim.workload import Phase, barrier, comm_phase, compute_phase, rank_programs
from .base import Benchmark, BuiltRun

__all__ = [
    "HPLBenchmark",
    "HPL_MEMORY_PER_RANK",
    "HPL_NIC_UTIL",
    "HPL_COMPUTE_INTENSITY",
    "HPL_COMM_INTENSITY",
]

# Phase utilizations, read at build time here and by the batched fleet
# evaluator (repro.fleet.evaluate).
#: Per-rank share of node memory bandwidth during the update kernel.
HPL_MEMORY_PER_RANK = 0.04
#: NIC utilization while a rank is in its communication super-step.
HPL_NIC_UTIL = 0.9
#: CPU intensity during the DGEMM-dominated compute super-steps.
HPL_COMPUTE_INTENSITY = 1.0
#: CPU intensity while blocked in MPI broadcasts: HPL links busy-poll, so a
#: "communicating" core still burns close to full power.
HPL_COMM_INTENSITY = 0.8


class HPLBenchmark(Benchmark):
    """High-Performance LINPACK, stressing the CPU subsystem.

    Parameters
    ----------
    sizing:
        ``("fixed", N)`` or ``("memory", fraction)``.
    rounds:
        Number of compute/communicate super-steps rendered.
    model_kwargs:
        Extra parameters for :class:`~repro.perfmodels.hpl.HPLModel`
        (``comm_volume_factor``, ``contention_threshold``, ...).
    """

    name = "HPL"
    metric_label = "FLOP/s"

    def __init__(
        self,
        *,
        sizing: Tuple[str, float] = ("memory", 0.8),
        rounds: int = 6,
        **model_kwargs,
    ):
        mode, value = sizing
        if mode not in ("fixed", "memory"):
            raise BenchmarkError(f"unknown sizing mode {mode!r}")
        if value <= 0:
            raise BenchmarkError(f"sizing value must be > 0, got {value}")
        if rounds < 1:
            raise BenchmarkError(f"rounds must be >= 1, got {rounds}")
        self.sizing = (mode, value)
        self.rounds = rounds
        self.model_kwargs = dict(model_kwargs)

    def _problem_size(self, model: HPLModel) -> int:
        mode, value = self.sizing
        if mode == "fixed":
            n = int(value)
            if n < hpl_model.BLOCK_SIZE:
                raise BenchmarkError(
                    f"fixed N={n} below block size {hpl_model.BLOCK_SIZE}"
                )
            return n
        return model.problem_size_from_memory(memory_fraction=value)

    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile an HPL run on ``scale`` MPI ranks (breadth-first placed)."""
        cluster = executor.cluster
        model = HPLModel(cluster=cluster, **self.model_kwargs)
        placement = breadth_first_placement(cluster, scale)
        ranks_per_node = placement.max_ranks_per_node()
        n = self._problem_size(model)
        prediction = model.predict(n, scale, ranks_per_node=ranks_per_node)

        rounds = self.rounds
        comp_slice = prediction.compute_time_s / rounds
        comm_slice = prediction.comm_time_s / rounds
        # With accelerators present, the hybrid DGEMM keeps every card busy;
        # each rank contributes its per-rank share of full GPU utilization.
        acc_share = 0.0
        if cluster.node.accelerators:
            acc_share = min(1.0, 1.0 / ranks_per_node)
        update = compute_phase(
            comp_slice,
            intensity=HPL_COMPUTE_INTENSITY,
            memory=HPL_MEMORY_PER_RANK,
            accelerator=acc_share,
            label="hpl-update",
        )
        step: Tuple[Phase, ...] = (update,)
        if comm_slice > 0:
            bcast = comm_phase(
                comm_slice, nic=HPL_NIC_UTIL, intensity=HPL_COMM_INTENSITY, label="hpl-bcast"
            )
            step += (bcast,)
        # Every rank runs the same super-steps, so all ranks share one template.
        template = (*step, barrier()) * rounds
        programs = rank_programs(template, scale)

        details: Dict[str, float] = {
            "problem_size": float(n),
            "flops": prediction.flops,
            "compute_time_s": prediction.compute_time_s,
            "comm_time_s": prediction.comm_time_s,
            "parallel_efficiency": prediction.parallel_efficiency,
            "predicted_time_s": prediction.total_time_s,
        }
        return BuiltRun(
            placement=placement,
            programs=programs,
            performance=prediction.performance_flops,
            details=details,
        )
