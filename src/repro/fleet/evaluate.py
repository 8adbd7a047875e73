"""Cross-system batched evaluation of the full-machine benchmark suite.

:func:`evaluate_fleet` scores every system's HPL, STREAM and IOzone runs in
one NumPy pass per benchmark over
:class:`~repro.fleet.columns.FleetColumns`.  The performance terms restate
:class:`~repro.perfmodels.hpl.HPLModel`,
:class:`~repro.perfmodels.stream.StreamModel` and
:class:`~repro.perfmodels.iozone.IOzoneModel` over spec columns.  Power
calls the power package's own elementwise formulas
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

Content-keyed memoization: per benchmark, only the columns that enter its
score form the content key; systems sharing a key (grid sweeps, repeated
presets, duplicated era draws) are computed once and scattered back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

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
    """Full-suite scores for a fleet, plus memoization accounting.

    ``memo_unique[b]`` is how many distinct content keys benchmark ``b``
    actually computed; ``len(self) - memo_unique[b]`` results were shared.
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
    idx: np.ndarray,
    *,
    active,
    intensity,
    memory,
    storage,
    nic,
) -> np.ndarray:
    """``NodePowerModel.wall_power`` of systems ``idx``, from spec columns.

    The component and PSU formulas are the power package's own; the
    utilization operands may be scalars or per-system arrays.
    """
    sockets = cols.sockets[idx]
    dc = (
        cols.base_watts[idx]
        + cpu_power(cols.cpu_idle_w[idx], cols.cpu_tdp_w[idx], sockets, active, intensity)
        + linear_power(cols.mem_idle_w[idx], cols.mem_active_w[idx], memory, sockets)
        + linear_power(cols.storage_idle_w[idx], cols.storage_active_w[idx], storage)
        + linear_power(cols.nic_idle_w[idx], cols.nic_active_w[idx], nic)
    )
    return PSUModel(rated_watts=cols.psu_rated_w[idx]).wall_watts(dc)


def _memoized(
    key_columns: Sequence[np.ndarray],
    compute: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    n: int,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """Run ``compute`` once per distinct content key, scatter to all rows.

    ``key_columns`` are the spec columns a benchmark's score depends on;
    ``compute(idx)`` evaluates representative rows ``idx`` and returns
    ``(performance, time_s, power_w)`` arrays aligned with ``idx``.
    """
    everyone = np.arange(n)
    key = np.column_stack(key_columns)
    _, representatives, inverse = np.unique(
        key, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # numpy 2.x returns the keyed shape
    if representatives.size == n:
        return compute(everyone), n
    perf, time_s, power = compute(representatives)
    return (perf[inverse], time_s[inverse], power[inverse]), int(representatives.size)


def _power_key(cols: FleetColumns) -> List[np.ndarray]:
    """Columns every benchmark's power depends on."""
    return [
        cols.sockets,
        cols.cpu_tdp_w,
        cols.cpu_idle_w,
        cols.mem_idle_w,
        cols.mem_active_w,
        cols.storage_idle_w,
        cols.storage_active_w,
        cols.nic_idle_w,
        cols.nic_active_w,
        cols.base_watts,
        cols.psu_rated_w,
    ]


def _hpl_batched(
    cols: FleetColumns,
    config: ExperimentConfig,
    reference: bool,
):
    n_systems = len(cols)
    key = _power_key(cols) + [
        cols.num_nodes,
        cols.cpu_cores,
        cols.clock_hz,
        cols.flops_per_cycle,
        cols.nic_bandwidth,
        cols.nic_latency_s,
    ]
    block = hpl_perf.BLOCK_SIZE
    element_bytes = hpl_perf.BYTES_PER_ELEMENT
    dgemm = hpl_perf.DGEMM_EFFICIENCY
    if reference:
        key.append(cols.mem_capacity_bytes)
        threshold, slope, volume_factor = (
            hpl_perf.HPLModel.contention_threshold,
            hpl_perf.HPLModel.contention_slope,
            hpl_perf.HPLModel.comm_volume_factor,
        )
    else:
        if config.hpl_problem_size < block:
            raise FleetError(
                f"hpl_problem_size {config.hpl_problem_size} below block "
                f"size {block}"
            )
        threshold = config.hpl_contention_threshold
        slope = config.hpl_contention_slope
        volume_factor = config.hpl_comm_volume_factor

    def compute(idx: np.ndarray):
        k = cols.node_cores[idx]
        ranks = cols.total_cores[idx]
        if reference:
            total_bytes = (
                config.hpl_reference_memory_fraction
                * cols.num_nodes[idx]
                * cols.node_memory_bytes[idx]
            )
            n = np.floor(np.sqrt(total_bytes / element_bytes))
            n = n - np.mod(n, block)
            if np.any(n < block):
                raise FleetError("memory too small for a single HPL block")
        else:
            n = np.full(idx.size, float(config.hpl_problem_size))
        flops = (2.0 / 3.0) * n**3 + 2.0 * n**2
        core_peak = cols.clock_hz[idx] * cols.flops_per_cycle[idx]
        excess = np.maximum(0.0, k - threshold)
        slowdown = 1.0 + slope * excess / k
        compute_rate = ranks * core_peak * dgemm / slowdown
        compute_t = flops / compute_rate

        multi = ranks > 1
        safe_ranks = np.where(multi, ranks, 2.0)  # keep log2/sqrt well-defined
        log_p = np.log2(safe_ranks)
        volume_bytes = (
            volume_factor * element_bytes * n**2 * log_p
            / np.sqrt(safe_ranks)
        )
        comm_volume_t = np.where(multi, volume_bytes / cols.nic_bandwidth[idx], 0.0)
        steps = np.maximum(1.0, np.floor(n / block))
        comm_latency_t = np.where(
            multi, 3.0 * steps * log_p * cols.nic_latency_s[idx], 0.0
        )
        comm_t = comm_volume_t + comm_latency_t
        total_t = compute_t + comm_t
        perf = flops / total_t

        w_compute = _wall_watts(
            cols,
            idx,
            active=1.0,
            intensity=hpl_bench.HPL_COMPUTE_INTENSITY,
            memory=np.minimum(1.0, k * hpl_bench.HPL_MEMORY_PER_RANK),
            storage=0.0,
            nic=0.0,
        )
        w_comm = _wall_watts(
            cols,
            idx,
            active=1.0,
            intensity=hpl_bench.HPL_COMM_INTENSITY,
            memory=0.0,
            storage=0.0,
            nic=np.minimum(1.0, k * hpl_bench.HPL_NIC_UTIL),
        )
        node_mean = (w_compute * compute_t + w_comm * comm_t) / total_t
        return perf, total_t, cols.num_nodes[idx] * node_mean

    return _memoized(key, compute, n_systems)


def _stream_batched(cols: FleetColumns, config: ExperimentConfig):
    n_systems = len(cols)
    key = _power_key(cols) + [
        cols.num_nodes,
        cols.cpu_cores,
        cols.mem_sustained_bw,
        cols.mem_cores_to_saturate,
    ]
    elements = stream_perf.ARRAY_ELEMENTS
    triad_bytes = stream_perf.TRIAD_BYTES_PER_ELEMENT

    def compute(idx: np.ndarray):
        k = cols.node_cores[idx]
        ranks = cols.total_cores[idx]
        per_core = cols.mem_sustained_bw[idx] / cols.mem_cores_to_saturate[idx]
        sockets = cols.sockets[idx]
        # Round-robin over sockets: `extra` sockets carry base+1 ranks.
        base = np.floor(k / sockets)
        extra = k - base * sockets
        socket_cap = cols.mem_sustained_bw[idx]
        node_bw = extra * np.minimum((base + 1.0) * per_core, socket_cap) + (
            sockets - extra
        ) * np.minimum(base * per_core, socket_cap)
        per_rank_bw = node_bw / k
        one_iter_s = (1 * elements * triad_bytes) / per_rank_bw
        iterations = np.maximum(
            1.0, np.round(config.stream_target_seconds / one_iter_s)
        )
        bytes_per_rank = iterations * elements * triad_bytes
        time_s = bytes_per_rank / per_rank_bw
        perf = per_rank_bw * ranks

        node_sustained = cols.node_sustained_bw[idx]
        per_rank_fraction = np.minimum(1.0, per_rank_bw / node_sustained)
        w = _wall_watts(
            cols,
            idx,
            active=1.0,
            intensity=config.stream_intensity,
            memory=np.minimum(1.0, k * per_rank_fraction),
            storage=0.0,
            nic=0.0,
        )
        return perf, time_s, cols.num_nodes[idx] * w

    return _memoized(key, compute, n_systems)


def _iozone_batched(cols: FleetColumns, config: ExperimentConfig):
    n_systems = len(cols)
    key = _power_key(cols) + [
        cols.num_nodes,
        cols.cpu_cores,
        cols.mem_capacity_bytes,
        cols.storage_write_bw,
    ]
    window_fraction = iozone_perf.CACHE_WINDOW_FRACTION
    fs_efficiency = iozone_perf.FILESYSTEM_EFFICIENCY
    cache_bw = iozone_perf.CACHE_BANDWIDTH

    def compute(idx: np.ndarray):
        window = window_fraction * cols.node_memory_bytes[idx]
        device_rate = cols.storage_write_bw[idx] * fs_efficiency
        window_time = window / cache_bw
        target = config.iozone_target_seconds
        file_bytes = np.where(
            target <= window_time,
            np.maximum(1.0, target * cache_bw),
            window + (target - window_time) * device_rate,
        )
        capped_window = np.minimum(window, file_bytes)
        device_bytes = file_bytes - capped_window
        time_s = capped_window / cache_bw + device_bytes / device_rate
        per_node = np.minimum(file_bytes / time_s, cache_bw)
        perf = per_node * cols.num_nodes[idx]

        w = _wall_watts(
            cols,
            idx,
            active=np.minimum(1.0, 1.0 / cols.node_cores[idx]),
            intensity=iozone_bench.IOZONE_INTENSITY,
            memory=iozone_bench.IOZONE_MEMORY,
            storage=1.0,
            nic=0.0,
        )
        return perf, time_s, cols.num_nodes[idx] * w

    return _memoized(key, compute, n_systems)


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

    Systems with identical benchmark-relevant spec columns are computed
    once (content-keyed memoization; see module docstring).
    """
    if isinstance(fleet, FleetColumns):
        cols = fleet
    else:
        specs = list(fleet)
        if not specs:
            raise FleetError("cannot evaluate an empty fleet")
        cols = FleetColumns.pack(specs)
    results = {
        "HPL": _hpl_batched(cols, config, reference),
        "STREAM": _stream_batched(cols, config),
        "IOzone": _iozone_batched(cols, config),
    }
    scores = {}
    memo_unique = {}
    for b, ((perf, time_s, power), unique) in results.items():
        energy = power * time_s
        scores[b] = FleetScores(
            performance=perf,
            time_s=time_s,
            power_w=power,
            energy_j=energy,
            efficiency=perf / power,
        )
        memo_unique[b] = unique
    return FleetEvaluation(names=cols.names, scores=scores, memo_unique=memo_unique)
