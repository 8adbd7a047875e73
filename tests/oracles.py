"""Reference oracles that the equivalence suites pin production against.

Each oracle is the slow, independently simple implementation of something
``src/`` computes the fast way:

* :func:`run_event_heap` — the event-heap discrete-event engine, against
  :meth:`repro.sim.engine.SimulationEngine.run_arrays`'s struct-of-arrays
  sweep;
* :func:`integrate_midpoint` — the midpoint-scan power integrator (per
  slice, per node, a Python rescan of every rank interval), against
  :meth:`repro.sim.executor.ClusterExecutor.integrate_power`'s sweep line;
* :func:`fold_add_at`, :func:`snap_cuts_unique` and :func:`remap_unique` —
  the sweep line's difference-matrix fold, cut snapping and phase-row
  compaction as ``np.add.at``/``np.subtract.at`` and ``np.unique`` wrote
  them, against :func:`repro.sim.executor._fold_levels`,
  :func:`repro.sim.executor._snap_cuts` and
  :func:`repro.sim.engine._compact_rows`, bit for bit;
* :func:`node_dc_power` — a node's DC watts summed straight from fresh
  component models, against the one pricing inside
  :meth:`repro.power.node_power.NodePowerModel.wall_power_and_breakdown`;
* :func:`evaluate_system` and :func:`scalar_fleet` — the per-system fleet
  scorer through the very model objects the simulator compiles, against
  :func:`repro.fleet.evaluate_fleet`'s batched pass;
* :func:`canonical_json_walk` — canonical JSON through a recursive Python
  walk that rebuilds every value, against
  :func:`repro.campaign.cache.canonical_json`'s single ``json.dumps`` call.
* :func:`generate_cluster_numpy` — the cluster generator drawing through
  ``Generator.choice`` and ``Generator.uniform``, against
  :func:`repro.cluster.generate_cluster`'s direct index and double draws.
* :func:`weighted_arithmetic_mean` — Eq. 9 as one dot product, against
  :func:`repro.core.tgi_from_components`'s Eq. 4.

The first two work on the per-rank :class:`RankInterval` list view;
:func:`interval_lists` and :func:`interval_arrays` convert between it and
the engine's columnar :class:`~repro.sim.engine.IntervalArrays`.

Pytest does not collect this module (its name does not match
``test_*.py``); tests import it as ``from .oracles import ...``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.benchmarks import hpl as hpl_bench
from repro.benchmarks import iozone as iozone_bench
from repro.cluster.cluster import ClusterSpec
from repro.cluster.cpu import CPUSpec
from repro.cluster.generator import ERAS
from repro.cluster.memory import MemorySpec
from repro.cluster.nic import InterconnectSpec
from repro.cluster.node import NodeSpec
from repro.cluster.storage import StorageSpec
from repro.exceptions import (
    FleetError,
    MetricError,
    ReproError,
    SimulationError,
    SpecError,
)
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.fleet.columns import require_batchable
from repro.fleet.evaluate import FLEET_BENCHMARKS, FleetEvaluation, FleetScores
from repro.perfmodels import hpl as hpl_perf
from repro.perfmodels.hpl import HPLModel
from repro.perfmodels.iozone import IOzoneModel
from repro.perfmodels.stream import StreamModel
from repro.power.components import (
    AcceleratorPowerModel,
    CPUPowerModel,
    MemoryPowerModel,
    NICPowerModel,
    NodeUtilization,
    StoragePowerModel,
)
from repro.power.node_power import NodePowerModel
from repro.power.trace import PiecewisePower
from repro.rng import RandomState, ensure_rng
from repro.sim.engine import _EPS, _WAIT_PHASE, IntervalArrays, SimulationEngine
from repro.sim.executor import ClusterExecutor, _assert_tiling, _snap_cuts
from repro.sim.placement import Placement
from repro.sim.workload import Phase, PhaseKind, RankProgram
from repro.units import GIB, gbps, mbps

__all__ = [
    "RankInterval",
    "interval_lists",
    "interval_arrays",
    "list_makespan",
    "run_event_heap",
    "integrate_midpoint",
    "fold_add_at",
    "snap_cuts_unique",
    "remap_unique",
    "node_dc_power",
    "evaluate_system",
    "scalar_fleet",
    "canonical_json_walk",
    "generate_cluster_numpy",
]


# ----------------------------------------------------------------------
# The per-rank interval view
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RankInterval:
    """One contiguous span of one rank's execution.

    ``slots=True`` because a 1k-rank run materializes hundreds of
    thousands of these; dropping the per-instance ``__dict__`` cuts both
    memory and attribute-access time in the integration hot loops.
    """

    rank: int
    t_start: float
    t_end: float
    phase: Phase

    @property
    def duration(self) -> float:
        """Seconds spanned."""
        return self.t_end - self.t_start


def interval_lists(arrays: IntervalArrays) -> List[List[RankInterval]]:
    """Materialize the per-rank ``RankInterval`` lists (index = rank id)."""
    out: List[List[RankInterval]] = [[] for _ in range(arrays.num_ranks)]
    phases = arrays.phases
    for r, t0, t1, row in zip(
        arrays.rank.tolist(),
        arrays.t_start.tolist(),
        arrays.t_end.tolist(),
        arrays.phase_row.tolist(),
    ):
        out[r].append(RankInterval(rank=r, t_start=t0, t_end=t1, phase=phases[row]))
    return out


def interval_arrays(intervals: Sequence[Sequence[RankInterval]]) -> IntervalArrays:
    """Flatten per-rank interval lists into columnar form."""
    flat = [iv for per_rank in intervals for iv in per_rank]
    n = len(flat)
    rank = np.fromiter((iv.rank for iv in flat), np.intp, n)
    t_start = np.fromiter((iv.t_start for iv in flat), float, n)
    t_end = np.fromiter((iv.t_end for iv in flat), float, n)
    phase_row = np.empty(n, dtype=np.intp)
    phases: List[Phase] = []
    row_of: Dict[int, int] = {}
    for k, iv in enumerate(flat):
        row = row_of.get(id(iv.phase))
        if row is None:
            row = len(phases)
            row_of[id(iv.phase)] = row
            phases.append(iv.phase)
        phase_row[k] = row
    return IntervalArrays(
        num_ranks=len(intervals),
        rank=rank,
        t_start=t_start,
        t_end=t_end,
        phase_row=phase_row,
        phases=phases,
        makespan=list_makespan(intervals),
    )


def list_makespan(intervals: Sequence[Sequence[RankInterval]]) -> float:
    """Completion time of the slowest rank."""
    return max((per_rank[-1].t_end if per_rank else 0.0) for per_rank in intervals)


# ----------------------------------------------------------------------
# Event-heap engine
# ----------------------------------------------------------------------

def run_event_heap(programs: Sequence[RankProgram]) -> List[List[RankInterval]]:
    """The original event-heap loop.

    An event queue keyed on (time, sequence number) drives rank
    progress; barriers collect arrivals and release all ranks at the
    max arrival time.  The production engine is built first, so both
    reject bad rank ids and mismatched barrier counts the same way.
    """
    SimulationEngine(programs)
    num_ranks = len(programs)
    phases_of = {p.rank: p.phases for p in programs}
    intervals: List[List[RankInterval]] = [[] for _ in range(num_ranks)]
    # Per-rank cursor into its phase list and local clock.
    cursor = [0] * num_ranks
    clock = [0.0] * num_ranks
    # Barrier bookkeeping: ordinal -> list of (arrival_time, rank).
    barrier_arrivals: Dict[int, List] = {}
    barrier_ordinal = [0] * num_ranks

    counter = itertools.count()
    heap: List = [(0.0, next(counter), r) for r in range(num_ranks)]
    heapq.heapify(heap)
    blocked: Dict[int, float] = {}  # rank -> arrival time at its barrier

    while heap:
        t, _, rank = heapq.heappop(heap)
        program = phases_of[rank]
        i = cursor[rank]
        if i >= len(program):
            continue  # rank already finished
        phase = program[i]
        if phase.kind is PhaseKind.BARRIER:
            ordinal = barrier_ordinal[rank]
            barrier_ordinal[rank] += 1
            cursor[rank] += 1
            arrivals = barrier_arrivals.setdefault(ordinal, [])
            arrivals.append((t, rank))
            blocked[rank] = t
            if len(arrivals) == num_ranks:
                release = max(at for at, _ in arrivals)
                for at, r in arrivals:
                    if release > at + _EPS:
                        intervals[r].append(
                            RankInterval(rank=r, t_start=at, t_end=release, phase=_WAIT_PHASE)
                        )
                    clock[r] = release
                    del blocked[r]
                    heapq.heappush(heap, (release, next(counter), r))
                # Released ordinals never collect another arrival;
                # dropping them keeps barrier bookkeeping O(ranks)
                # instead of O(ranks x barriers) over a long program.
                del barrier_arrivals[ordinal]
            continue
        # Ordinary phase: record its interval and schedule its end.
        t_end = t + phase.duration_s
        if phase.duration_s > 0:
            intervals[rank].append(
                RankInterval(rank=rank, t_start=t, t_end=t_end, phase=phase)
            )
        cursor[rank] += 1
        clock[rank] = t_end
        heapq.heappush(heap, (t_end, next(counter), rank))

    if blocked:
        stuck = sorted(blocked)
        raise SimulationError(
            f"deadlock: ranks {stuck} blocked at a barrier no other rank reaches"
        )
    _validate_continuity(intervals)
    return intervals


def _validate_continuity(intervals: List[List[RankInterval]]) -> None:
    for per_rank in intervals:
        t = 0.0
        for iv in per_rank:
            if iv.t_start < t - _EPS:
                raise SimulationError(
                    f"overlapping intervals for rank {iv.rank} at t={iv.t_start}"
                )
            if iv.t_start > t + _EPS:
                raise SimulationError(
                    f"gap in rank {iv.rank}'s timeline at t={t}..{iv.t_start}"
                )
            t = iv.t_end


# ----------------------------------------------------------------------
# Midpoint-scan power integrator
# ----------------------------------------------------------------------

def integrate_midpoint(
    executor: ClusterExecutor,
    placement: Placement,
    arrays: IntervalArrays,
    makespan: float,
) -> Tuple[PiecewisePower, Dict[str, float], Dict[str, object]]:
    """The original midpoint-scan integration.

    Returns the same ``(truth, breakdown, stats)`` triple as
    :meth:`~repro.sim.executor.ClusterExecutor.integrate_power`, priced
    with ``executor``'s node power model and metering boundary.
    """
    intervals = interval_lists(arrays)
    idle_wall = executor.node_power.idle_wall_power()
    # Per-node piecewise wall power as (breakpoints, watts-per-slice),
    # accumulating component DC joules along the way.
    breakdown: Dict[str, float] = {}
    node_curves: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for node in placement.nodes_used:
        node_curves[node] = _node_power_curve(
            executor, placement, node, intervals, makespan, breakdown
        )
    # Global breakpoints (snapped, so no sliver is silently dropped).
    cut_arrays = [np.array([0.0, makespan])]
    for starts, _ in node_curves.values():
        cut_arrays.append(starts)
    cut_list = _snap_cuts(np.concatenate(cut_arrays), makespan).tolist()
    idle_nodes = executor._idle_node_count(len(node_curves))
    executor._add_idle_breakdown(breakdown, idle_nodes, makespan)
    seg_starts: List[float] = []
    seg_watts: List[float] = []
    for t0, t1 in zip(cut_list, cut_list[1:]):
        mid = 0.5 * (t0 + t1)
        watts = idle_nodes * idle_wall
        for starts, node_watts in node_curves.values():
            idx = int(np.searchsorted(starts, mid, side="right") - 1)
            watts += float(node_watts[max(idx, 0)])
        seg_starts.append(t0)
        seg_watts.append(watts)
    starts_arr = np.array(seg_starts)
    ends_arr = np.array(cut_list[1:])
    _assert_tiling(starts_arr, ends_arr, makespan)
    truth = PiecewisePower.from_arrays(starts_arr, ends_arr, np.array(seg_watts))
    # Whatever the wall saw beyond the summed DC is conversion loss.
    breakdown["psu_loss"] = truth.energy() - sum(breakdown.values())
    n_segments = len(seg_watts)
    stats = {
        "segments_in": n_segments,
        "segments_out": n_segments,
        "compaction_ratio": 1.0,
    }
    return truth, breakdown, stats


def _node_power_curve(
    executor: ClusterExecutor,
    placement: Placement,
    node: int,
    intervals: List[List[RankInterval]],
    makespan: float,
    breakdown: Dict[str, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """(slice starts, wall watts per slice) for one node over [0, makespan].

    Side effect: adds the node's per-component DC joules to ``breakdown``.
    """
    node_intervals: List[RankInterval] = []
    for rank in placement.ranks_on_node(node):
        node_intervals.extend(intervals[rank])
    cuts = [0.0, makespan]
    for iv in node_intervals:
        cuts.append(iv.t_start)
        cuts.append(iv.t_end)
    cut_list = _snap_cuts(np.array(cuts), makespan).tolist()
    starts: List[float] = []
    watts: List[float] = []
    cores = executor.cluster.node.cores
    for t0, t1 in zip(cut_list, cut_list[1:]):
        mid = 0.5 * (t0 + t1)
        util = _slice_utilization(node_intervals, mid, cores)
        starts.append(t0)
        watts.append(executor.node_power.wall_power(util))
        parts = executor.node_power.component_breakdown(util)
        for component, dc_watts in parts.items():
            breakdown[component] = breakdown.get(component, 0.0) + dc_watts * (t1 - t0)
    return np.array(starts), np.array(watts)


def _slice_utilization(
    node_intervals: List[RankInterval], t: float, cores: int
) -> NodeUtilization:
    """Aggregate the demands of all ranks active on a node at time ``t``."""
    busy = 0
    intensity_sum = 0.0
    memory = storage = nic = accelerator = 0.0
    for iv in node_intervals:
        if iv.t_start - _EPS <= t < iv.t_end - _EPS:
            phase = iv.phase
            if phase.occupies_core:
                busy += 1
                intensity_sum += phase.cpu_intensity
            memory += phase.memory
            storage += phase.storage
            nic += phase.nic
            accelerator += phase.accelerator
    if busy == 0:
        return NodeUtilization.idle()
    return NodeUtilization(
        cpu_active_fraction=min(1.0, busy / cores),
        cpu_intensity=min(1.0, intensity_sum / busy),
        memory=min(1.0, memory),
        storage=min(1.0, storage),
        nic=min(1.0, nic),
        accelerator=min(1.0, accelerator),
    )


# ----------------------------------------------------------------------
# The sweep line's pieces as NumPy's set and scatter routines wrote them
# ----------------------------------------------------------------------

def fold_add_at(
    i_edge: np.ndarray, phase_row: np.ndarray, table: np.ndarray, num_cuts: int
) -> np.ndarray:
    """The ``(num_cuts, 6)`` demand levels through a difference matrix.

    ``i_edge`` holds every interval's start cut, then every interval's end
    cut.  ``np.add.at`` puts each interval's demand row on its start cut,
    ``np.subtract.at`` takes it off at its end cut, and one ``cumsum``
    runs down the cuts.
    """
    starts, ends = np.split(i_edge, 2)
    demands = table[phase_row]
    delta = np.zeros((num_cuts, 6))
    np.add.at(delta, starts, demands)
    np.subtract.at(delta, ends, demands)
    return np.cumsum(delta, axis=0)


def snap_cuts_unique(times: np.ndarray, makespan: float) -> np.ndarray:
    """Snapped breakpoints, deduplicated by ``np.unique`` before the ``_EPS`` merge."""
    arr = np.unique(np.clip(np.asarray(times, dtype=float), 0.0, makespan))
    keep = np.ones(arr.size, dtype=bool)
    np.greater(np.diff(arr), _EPS, out=keep[1:])
    reps = arr[keep]
    if makespan - reps[-1] <= _EPS:
        reps[-1] = makespan
    else:
        reps = np.append(reps, makespan)
    return reps


def remap_unique(rows: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The used rows of a ``size``-row table and each entry's position among them."""
    used, inverse = np.unique(rows, return_inverse=True)
    return used, inverse.astype(np.intp, copy=False)


def node_dc_power(node: NodeSpec, util):
    """DC watts of ``node`` at ``util`` from freshly built component models.

    Base, CPU, memory, storage and NIC are added left to right, then each
    accelerator card in turn.
    """
    total = (
        node.base_watts
        + CPUPowerModel(spec=node.cpu, sockets=node.sockets).power(util)
        + MemoryPowerModel(spec=node.memory, sockets=node.sockets).power(util)
        + StoragePowerModel(spec=node.storage).power(util)
        + NICPowerModel(spec=node.nic).power(util)
    )
    for card in node.accelerators:
        total += AcceleratorPowerModel(spec=card).power(util)
    return total


# ----------------------------------------------------------------------
# Per-system fleet scorer
# ----------------------------------------------------------------------

def _hpl_model(spec: ClusterSpec, config: ExperimentConfig, reference: bool) -> HPLModel:
    if reference:
        # build_suite(reference=True): capability sizing, default model knobs.
        return HPLModel(cluster=spec)
    return HPLModel(
        cluster=spec,
        comm_volume_factor=config.hpl_comm_volume_factor,
        contention_threshold=config.hpl_contention_threshold,
        contention_slope=config.hpl_contention_slope,
    )


def _pack_scores(performance: float, time_s: float, power_w: float) -> Dict[str, float]:
    return {
        "performance": performance,
        "time_s": time_s,
        "power_w": power_w,
        "energy_j": power_w * time_s,
        "efficiency": performance / power_w,
    }


def evaluate_system(
    spec: ClusterSpec,
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    reference: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Score one system's full-machine suite through the scalar models.

    Value-identical (to float associativity) to the *true* — unmetered —
    numbers of a full simulation job on the same spec, because a
    fully-packed uniform run has piecewise-constant utilization (see
    :mod:`repro.fleet.evaluate`).

    ``reference=True`` selects the capability-sized HPL used for
    reference-system runs (``build_suite(reference=True)`` semantics).
    """
    require_batchable(spec)
    node = spec.node
    power = NodePowerModel(node=node)
    k = node.cores  # ranks per node at full pack
    ranks = spec.total_cores

    # --- HPL ----------------------------------------------------------
    model = _hpl_model(spec, config, reference)
    if reference:
        n = model.problem_size_from_memory(
            memory_fraction=config.hpl_reference_memory_fraction
        )
    else:
        n = config.hpl_problem_size
        if n < hpl_perf.BLOCK_SIZE:
            raise FleetError(
                f"hpl_problem_size {n} below block size {hpl_perf.BLOCK_SIZE}"
            )
    pred = model.predict(n, ranks, ranks_per_node=k)
    w_compute = power.wall_power(
        NodeUtilization(
            cpu_active_fraction=1.0,
            cpu_intensity=hpl_bench.HPL_COMPUTE_INTENSITY,
            memory=min(1.0, k * hpl_bench.HPL_MEMORY_PER_RANK),
        )
    )
    w_comm = 0.0
    if pred.comm_time_s > 0:
        w_comm = power.wall_power(
            NodeUtilization(
                cpu_active_fraction=1.0,
                cpu_intensity=hpl_bench.HPL_COMM_INTENSITY,
                nic=min(1.0, k * hpl_bench.HPL_NIC_UTIL),
            )
        )
    node_mean = (
        w_compute * pred.compute_time_s + w_comm * pred.comm_time_s
    ) / pred.total_time_s
    hpl = _pack_scores(
        pred.performance_flops, pred.total_time_s, spec.num_nodes * node_mean
    )

    # --- STREAM -------------------------------------------------------
    stream = StreamModel(cluster=spec)
    iterations = stream.iterations_for_time(
        config.stream_target_seconds, ranks, ranks_per_node=k
    )
    spred = stream.predict(ranks, iterations=iterations, ranks_per_node=k)
    per_rank_fraction = min(
        1.0, spred.per_rank_bandwidth / node.sustained_memory_bandwidth
    )
    w_stream = power.wall_power(
        NodeUtilization(
            cpu_active_fraction=1.0,
            cpu_intensity=config.stream_intensity,
            memory=min(1.0, k * per_rank_fraction),
        )
    )
    stream_scores = _pack_scores(
        spred.aggregate_bandwidth, spred.time_s, spec.num_nodes * w_stream
    )

    # --- IOzone (one writer per node, all nodes) ----------------------
    iozone = IOzoneModel(cluster=spec)
    file_bytes = iozone.file_size_for_time(config.iozone_target_seconds)
    ipred = iozone.predict(spec.num_nodes, file_bytes=file_bytes)
    w_iozone = power.wall_power(
        NodeUtilization(
            cpu_active_fraction=min(1.0, 1.0 / k),
            cpu_intensity=iozone_bench.IOZONE_INTENSITY,
            memory=iozone_bench.IOZONE_MEMORY,
            storage=1.0,
        )
    )
    iozone_scores = _pack_scores(
        ipred.aggregate_bandwidth, ipred.time_s, spec.num_nodes * w_iozone
    )

    return {"HPL": hpl, "STREAM": stream_scores, "IOzone": iozone_scores}


def scalar_fleet(
    specs: Sequence[ClusterSpec],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    reference: bool = False,
) -> FleetEvaluation:
    """:func:`evaluate_system` per system, shaped like ``evaluate_fleet``.

    ``memo_unique`` counts every system, as the batched path's does.  Takes the
    same arguments as :func:`repro.fleet.evaluate_fleet`, so tests can
    substitute it for the batched path.
    """
    rows = [evaluate_system(spec, config, reference=reference) for spec in specs]
    scores = {
        b: FleetScores(
            **{
                field: np.array([row[b][field] for row in rows], dtype=float)
                for field in ("performance", "time_s", "power_w", "energy_j", "efficiency")
            }
        )
        for b in FLEET_BENCHMARKS
    }
    return FleetEvaluation(
        names=tuple(spec.name for spec in specs),
        scores=scores,
        memo_unique={b: len(rows) for b in FLEET_BENCHMARKS},
    )


# ----------------------------------------------------------------------
# Canonical JSON
# ----------------------------------------------------------------------

def _jsonable(obj):
    """Recursively convert dataclasses/tuples into JSON-compatible values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ReproError(
        f"cannot canonically serialize {type(obj).__name__!r} for cache keying"
    )


def canonical_json_walk(obj) -> str:
    """Stable JSON text for hashing: sorted keys, no whitespace drift."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Cluster generator
# ----------------------------------------------------------------------

def generate_cluster_numpy(
    seed: RandomState, *, era: str = "2011", name: str = ""
) -> ClusterSpec:
    """:func:`repro.cluster.generate_cluster` drawing through NumPy's methods.

    The generator as it was before its draws became direct index and double
    draws: four ``int(rng.choice(seq))`` and thirteen ``rng.uniform(lo, hi)``
    calls, in the same order as production.
    """
    if era not in ERAS:
        raise SpecError(f"unknown era {era!r}; available: {sorted(ERAS)}")
    template = ERAS[era]
    rng = ensure_rng(seed)

    clock = rng.uniform(*template.clock_ghz)
    cores = int(rng.choice(template.cores_per_socket))
    tdp = cores * template.tdp_per_core_w * rng.uniform(0.85, 1.2)
    cpu = CPUSpec(
        model=f"{template.name}-gen CPU {clock:.1f} GHz x{cores}",
        cores=cores,
        base_clock_hz=clock * 1e9,
        flops_per_cycle=template.flops_per_cycle,
        tdp_watts=tdp,
        idle_watts=template.idle_fraction * tdp,
    )
    # correlated quality draw: one "budget tier" knob nudges memory, disk,
    # and network together
    tier = rng.uniform(0.0, 1.0)
    channels = int(rng.choice(template.channels))
    stream_eff = (
        template.stream_efficiency[0]
        + (template.stream_efficiency[1] - template.stream_efficiency[0])
        * min(1.0, tier + rng.uniform(-0.15, 0.15))
    )
    stream_eff = min(max(stream_eff, template.stream_efficiency[0]), template.stream_efficiency[1])
    memory = MemorySpec(
        technology=f"{template.name}-gen DRAM",
        capacity_bytes=int(rng.choice(template.mem_per_core_gib)) * cores * GIB,
        channels=channels,
        channel_bandwidth=template.channel_bw_gbs * 1e9,
        stream_efficiency=stream_eff,
        cores_to_saturate=max(1, min(cores, int(round(cores * rng.uniform(0.3, 0.9))))),
        dimms=channels,
        dimm_idle_watts=rng.uniform(1.0, 3.0),
        dimm_active_watts=rng.uniform(3.5, 6.0),
    )
    disk_lo, disk_hi = template.disk_mbps
    disk_rate = disk_lo + (disk_hi - disk_lo) * min(1.0, tier + rng.uniform(-0.2, 0.2))
    disk_rate = min(max(disk_rate, disk_lo), disk_hi)
    storage = StorageSpec(
        model=f"{template.name}-gen {template.disk_kind.value}",
        kind=template.disk_kind,
        capacity_bytes=1e12,
        seq_write_bandwidth=mbps(disk_rate),
        seq_read_bandwidth=mbps(disk_rate * 1.2),
        idle_watts=rng.uniform(1.0, 6.0),
        active_watts=rng.uniform(6.0, 11.0),
    )
    nic_name, nic_gbs, nic_us = template.nic_tiers[
        1 if tier > 0.5 else 0
    ]
    nic = InterconnectSpec(
        name=nic_name,
        latency_s=nic_us * 1e-6,
        bandwidth=gbps(nic_gbs),
        idle_watts=rng.uniform(2.0, 10.0),
        active_watts=rng.uniform(10.0, 18.0),
    )
    node = NodeSpec(
        name=f"{template.name}-gen node (2x {cores} cores)",
        sockets=2,
        cpu=cpu,
        memory=memory,
        storage=storage,
        nic=nic,
        base_watts=rng.uniform(*template.base_watts),
    )
    num_nodes = int(rng.choice(template.node_counts))
    cluster_name = name or f"{template.name}-sys-{rng.integers(0, 10_000):04d}"
    return ClusterSpec(name=cluster_name, node=node, num_nodes=num_nodes)


# ----------------------------------------------------------------------
# Weighted arithmetic mean
# ----------------------------------------------------------------------

def weighted_arithmetic_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Eq. 9: ``sum(w_i x_i)`` with ``sum w = 1``."""
    arr = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != arr.shape or abs(float(w.sum()) - 1.0) > 1e-9:
        raise MetricError(f"need {arr.size} weights summing to 1, got {w.tolist()}")
    return float(w @ arr)
