"""Cross-system batched evaluation of the full-machine benchmark suite.

:func:`evaluate_fleet` scores every system's HPL, STREAM and IOzone runs in
one NumPy pass per benchmark over
:class:`~repro.fleet.columns.FleetColumns`.  Performance calls the
models' own elementwise formulas with spec columns
(:func:`~repro.perfmodels.hpl.run_times`,
:func:`~repro.perfmodels.stream.node_bandwidth`,
:func:`~repro.perfmodels.iozone.write` and their sizing functions), the
same ones :class:`~repro.perfmodels.hpl.HPLModel`,
:class:`~repro.perfmodels.stream.StreamModel` and
:class:`~repro.perfmodels.iozone.IOzoneModel` call with one cluster's
numbers.  Power calls the power package's own elementwise formulas
(:func:`~repro.power.components.cpu_power`,
:func:`~repro.power.components.linear_power` and
:meth:`~repro.power.psu.PSUModel.wall_watts` with per-system ratings).
Every model constant — the CPU awake floor, PSU sizing, HPL block size,
element size and DGEMM efficiency, the STREAM array, the IOzone cache and
filesystem constants, and the benchmarks' phase utilizations — is read at
call time from the module that owns it, so the fleet and the simulator
price a machine alike.  A scalar oracle that calls the model objects one
system at a time lives in the test tree (``tests/oracles.py``); the
equivalence suites pin the batched path to it and to the simulator, also
with each constant perturbed in its owner.

Why an *analytic* path is exact here: a full-machine fleet job packs every
node identically (ranks = total cores, breadth-first), runs rank-uniform
programs, and hits no barrier waits — so each benchmark's node utilization
is piecewise constant and the simulator's ground-truth energy integral
collapses to ``sum(wall_watts(phase) * duration) / makespan`` per node.
The batched path evaluates exactly that, skipping per-rank program
objects, the event sweep, and the metering noise (it reports *true* model
power; the campaign path reports *metered* power).

Every system is computed, duplicates included: one pass over 1,024
systems costs under a millisecond, less than finding the duplicates would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..benchmarks import hpl as hpl_bench
from ..benchmarks import iozone as iozone_bench
from ..exceptions import FleetError
from ..experiments.config import PAPER_CONFIG, ExperimentConfig
from ..perfmodels import hpl as hpl_perf
from ..perfmodels import iozone as iozone_perf
from ..perfmodels import stream as stream_perf
from ..power.components import cpu_power, linear_power
from ..power.psu import PSUModel
from .columns import FleetColumns

__all__ = [
    "FLEET_BENCHMARKS",
    "FleetScores",
    "FleetEvaluation",
    "evaluate_fleet",
]

#: Suite members the fleet path scores, in suite order.
FLEET_BENCHMARKS: Tuple[str, ...] = ("HPL", "STREAM", "IOzone")


@dataclass(frozen=True, eq=False)
class FleetScores:
    """One benchmark's per-system results (arrays over the fleet)."""

    performance: np.ndarray
    time_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    efficiency: np.ndarray  # EE = performance / power (Eq. 2)


@dataclass(frozen=True, eq=False)
class FleetEvaluation:
    """Full-suite scores for a fleet.

    ``memo_unique[b]`` is how many systems benchmark ``b`` computed, which
    is every one of them: ``len(self)``.  The field stays because
    ``perfbench/tracer.py`` reads it to count fleet evaluations.
    """

    names: Tuple[str, ...]
    scores: Dict[str, FleetScores]
    memo_unique: Dict[str, int]

    def __len__(self) -> int:
        return len(self.names)

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(self.scores)

    def efficiency_matrix(self) -> np.ndarray:
        """``(systems, benchmarks)`` EE matrix in suite order."""
        return np.column_stack([self.scores[b].efficiency for b in self.scores])

    def system(self, i: int) -> Dict[str, Dict[str, float]]:
        """All of system ``i``'s numbers as plain floats (reports, tests)."""
        return {
            b: {
                "performance": float(s.performance[i]),
                "time_s": float(s.time_s[i]),
                "power_w": float(s.power_w[i]),
                "energy_j": float(s.energy_j[i]),
                "efficiency": float(s.efficiency[i]),
            }
            for b, s in self.scores.items()
        }


def _wall_watts(
    cols: FleetColumns,
    *,
    active,
    intensity,
    memory,
    storage,
    nic,
) -> np.ndarray:
    """``NodePowerModel.wall_power`` of every system, from spec columns.

    The component and PSU formulas are the power package's own; the
    utilization operands may be scalars or per-system arrays.
    """
    dc = (
        cols.base_watts
        + cpu_power(cols.cpu_idle_w, cols.cpu_tdp_w, cols.sockets, active, intensity)
        + linear_power(cols.mem_idle_w, cols.mem_active_w, memory, cols.sockets)
        + linear_power(cols.storage_idle_w, cols.storage_active_w, storage)
        + linear_power(cols.nic_idle_w, cols.nic_active_w, nic)
    )
    return PSUModel(rated_watts=cols.psu_rated_w).wall_watts(dc)


def _hpl(cols: FleetColumns, config: ExperimentConfig, reference: bool):
    if reference:
        n = hpl_perf.memory_problem_size(
            config.hpl_reference_memory_fraction * cols.num_nodes * cols.node_memory_bytes
        )
        if np.any(n < hpl_perf.BLOCK_SIZE):
            raise FleetError("memory too small for a single HPL block")
        # build_suite(reference=True): capability sizing, default model knobs.
        model = hpl_perf.HPLModel
        volume_factor, threshold, slope = (
            model.comm_volume_factor,
            model.contention_threshold,
            model.contention_slope,
        )
    else:
        if config.hpl_problem_size < hpl_perf.BLOCK_SIZE:
            raise FleetError(
                f"hpl_problem_size {config.hpl_problem_size} below block "
                f"size {hpl_perf.BLOCK_SIZE}"
            )
        n = np.full(len(cols), float(config.hpl_problem_size))
        volume_factor, threshold, slope = (
            config.hpl_comm_volume_factor,
            config.hpl_contention_threshold,
            config.hpl_contention_slope,
        )
    k = cols.node_cores  # ranks per node at full pack
    compute_t, volume_t, latency_t = hpl_perf.run_times(
        n,
        cols.total_cores,
        cols.clock_hz * cols.flops_per_cycle,
        hpl_perf.contention_factor(k, k, threshold, slope),
        cols.nic_bandwidth,
        cols.nic_latency_s,
        comm_volume_factor=volume_factor,
    )
    comm_t = volume_t + latency_t
    total_t = compute_t + comm_t
    w_compute = _wall_watts(
        cols,
        active=1.0,
        intensity=hpl_bench.HPL_COMPUTE_INTENSITY,
        memory=np.minimum(1.0, k * hpl_bench.HPL_MEMORY_PER_RANK),
        storage=0.0,
        nic=0.0,
    )
    w_comm = _wall_watts(
        cols,
        active=1.0,
        intensity=hpl_bench.HPL_COMM_INTENSITY,
        memory=0.0,
        storage=0.0,
        nic=np.minimum(1.0, k * hpl_bench.HPL_NIC_UTIL),
    )
    node_mean = (w_compute * compute_t + w_comm * comm_t) / total_t
    return hpl_perf.flop_count(n) / total_t, total_t, cols.num_nodes * node_mean


def _stream(cols: FleetColumns, config: ExperimentConfig):
    k = cols.node_cores
    per_rank_bw = (
        stream_perf.node_bandwidth(
            k, cols.sockets, cols.mem_sustained_bw, cols.mem_cores_to_saturate
        )
        / k
    )
    iterations = stream_perf.iterations_for_time(
        config.stream_target_seconds, per_rank_bw
    )
    per_rank_fraction = np.minimum(1.0, per_rank_bw / cols.node_sustained_bw)
    w = _wall_watts(
        cols,
        active=1.0,
        intensity=config.stream_intensity,
        memory=np.minimum(1.0, k * per_rank_fraction),
        storage=0.0,
        nic=0.0,
    )
    return (
        per_rank_bw * cols.total_cores,
        stream_perf.sweep_time(iterations, per_rank_bw),
        cols.num_nodes * w,
    )


def _iozone(cols: FleetColumns, config: ExperimentConfig):
    file_bytes = iozone_perf.file_size_for_time(
        config.iozone_target_seconds, cols.node_memory_bytes, cols.storage_write_bw
    )
    time_s, per_node = iozone_perf.write(
        file_bytes, cols.node_memory_bytes, cols.storage_write_bw
    )
    w = _wall_watts(
        cols,
        active=np.minimum(1.0, 1.0 / cols.node_cores),
        intensity=iozone_bench.IOZONE_INTENSITY,
        memory=iozone_bench.IOZONE_MEMORY,
        storage=1.0,
        nic=0.0,
    )
    return per_node * cols.num_nodes, time_s, cols.num_nodes * w


def evaluate_fleet(
    fleet,
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    reference: bool = False,
) -> FleetEvaluation:
    """Score every system's full-machine suite in one pass.

    Parameters
    ----------
    fleet:
        A sequence of :class:`~repro.cluster.cluster.ClusterSpec` or an
        already-packed :class:`~repro.fleet.columns.FleetColumns`.
    reference:
        Capability-sized HPL (reference-system semantics) for *every*
        member; used when scoring reference machines.

    """
    if isinstance(fleet, FleetColumns):
        cols = fleet
    else:
        specs = list(fleet)
        if not specs:
            raise FleetError("cannot evaluate an empty fleet")
        cols = FleetColumns.pack(specs)
    results = {
        "HPL": _hpl(cols, config, reference),
        "STREAM": _stream(cols, config),
        "IOzone": _iozone(cols, config),
    }
    scores = {
        b: FleetScores(
            performance=perf,
            time_s=time_s,
            power_w=power,
            energy_j=power * time_s,
            efficiency=perf / power,
        )
        for b, (perf, time_s, power) in results.items()
    }
    return FleetEvaluation(
        names=cols.names,
        scores=scores,
        memo_unique={b: len(cols) for b in scores},
    )
