"""Cluster executor: rank intervals -> node utilization -> metered power.

This is the glue between the discrete-event engine and the power substrate.
Given a placement and the engine's per-rank intervals it

1. builds, for every node, a piecewise-constant
   :class:`~repro.power.components.NodeUtilization` timeline (ranks sharing a
   node add their bandwidth demands, saturating at 1);
2. evaluates the node power model on every slice — *including idle nodes and
   idle tails*, because the wall-plug meter wraps the entire cluster for the
   entire run (paper Figure 1);
3. sums node wall power into a cluster-level ground-truth
   :class:`~repro.power.trace.PiecewisePower`;
4. samples it through the configured :class:`~repro.power.meter.WallPlugMeter`.

The result is a :class:`RunRecord` carrying both the exact and the measured
power/energy, so callers can use the measured values (as the paper does) and
tests can bound the measurement error.

Power integration
-----------------

Steps 1–3 are a sweep-line pipeline.  Per node, interval start/end events
become difference arrays (one signed ``np.bincount`` per demand column)
whose prefix sums give every component's demand per timeline slice in
O(n log n); the slices are priced in a handful of NumPy calls:
:meth:`~repro.power.node_power.NodePowerModel.wall_power_and_breakdown`
prices each component of a whole struct-of-arrays timeline once and sums
the wall watts from those prices.  The cross-node merge
``searchsorted``\\ s every node curve onto the global cut grid, sums a
nodes x cuts watts matrix, compacts runs of equal watts, and hands the
arrays to :meth:`~repro.power.trace.PiecewisePower.from_arrays`.

Breakpoints that float noise has pushed within ``_EPS`` of each other are
snapped onto a single representative *before* slicing, so no slice — and
none of its joules — is ever dropped, and the final segments must tile
``[0, makespan]`` exactly.  The original midpoint-scan integrator (per
slice, per node, a Python rescan of every rank interval) is kept in the
test tree (``tests/oracles.py``) as the scalar oracle; property tests
(``tests/test_power_integration.py``) pin the two to each other on
energy, attribution, and the power curve itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as tele
from ..cluster.cluster import ClusterSpec
from ..exceptions import SimulationError
from ..power.components import NodeUtilizationArray
from ..power.meter import WATTS_UP_PRO, WallPlugMeter
from ..power.node_power import NodePowerModel
from ..power.trace import PiecewisePower, PowerTrace
from ..rng import RandomState
from .engine import IntervalArrays, SimulationEngine
from .placement import Placement
from .workload import RankProgram

if TYPE_CHECKING:  # annotations only: the paper path loads neither package
    from ..faults import FaultInjector
    from ..timeline.model import RunTimeline, TimelineCapture

__all__ = ["ClusterExecutor", "RunRecord"]

_EPS = 1e-9


def _snap_cuts(times: np.ndarray, makespan: float) -> np.ndarray:
    """Sorted unique breakpoints over ``[0, makespan]`` with float noise merged.

    Raw cut candidates (interval starts/ends from every rank) can land
    within ``_EPS`` of each other when different ranks accumulate the same
    logical time through different float additions.  Slicing between such
    near-duplicates used to produce sub-``_EPS`` slivers that were silently
    dropped — leaking their joules.  Here every group of candidates closer
    than ``_EPS`` collapses onto a single representative, so all surviving
    slice widths exceed ``_EPS`` and the slices tile the span exactly.

    Callers always include ``0.0`` and ``makespan`` among ``times``; both
    survive as the exact first/last representative.
    """
    arr = np.sort(np.clip(np.asarray(times, dtype=float), 0.0, makespan))
    # Exact duplicates differ by 0 <= _EPS, so the neighbour mask drops them
    # along with the near-duplicates: no separate deduplication pass.
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.greater(arr[1:] - arr[:-1], _EPS, out=keep[1:])
    reps = arr[keep]
    if makespan - reps[-1] <= _EPS:
        # the group containing makespan is represented by makespan itself,
        # not by the group's smallest member, so the span closes exactly
        reps[-1] = makespan
    else:  # pragma: no cover - callers pass makespan in `times`
        reps = np.append(reps, makespan)
    return reps


def _fold_levels(
    i_edge: np.ndarray, phase_row: np.ndarray, table: np.ndarray, num_cuts: int
) -> List[Optional[np.ndarray]]:
    """Per demand column, the summed demand of the intervals open at each cut.

    ``i_edge`` holds every interval's start cut and then every interval's
    end cut; ``table[phase_row]`` is each interval's demand row.  Per
    column, one ``np.bincount`` adds the +demand of every start and the
    -demand of every end, and one ``cumsum`` runs the prefix.  ``bincount``
    accumulates in input order, so each cut sums its starts and then its
    ends in interval order: the same float additions as an
    ``np.add.at``/``np.subtract.at`` pair on a difference matrix.  A column
    no phase uses is ``None``: its levels are all ``+0.0``, with no
    arithmetic.
    """
    signed_rows = np.concatenate([phase_row, phase_row + len(table)])
    signed_table = np.concatenate([table, -table])
    return [
        np.cumsum(np.bincount(i_edge, column[signed_rows], num_cuts)) if used else None
        for column, used in zip(signed_table.T, table.any(axis=0))
    ]


def _assert_tiling(starts: np.ndarray, ends: np.ndarray, makespan: float) -> None:
    """Fail loudly if the segments do not tile ``[0, makespan]`` exactly."""
    if (
        starts.size == 0
        or starts[0] != 0.0
        or ends[-1] != makespan
        or not np.array_equal(ends[:-1], starts[1:])
    ):
        raise SimulationError(
            "internal error: power segments do not tile [0, makespan] exactly"
        )


@dataclass(frozen=True)
class RunRecord:
    """Everything measured (and the underlying truth) for one run."""

    label: str
    cluster: ClusterSpec
    num_ranks: int
    makespan_s: float
    truth: PiecewisePower
    trace: PowerTrace
    #: Where the joules went: DC energy per component class (``base``,
    #: ``cpu``, ``memory``, ``storage``, ``nic``, optionally
    #: ``accelerators``) plus ``psu_loss`` — sums to ``true_energy_j``.
    #: Empty for deserialized records (the attribution is not archived).
    energy_breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def measured_energy_j(self) -> float:
        """Trapezoidal energy from the meter log (what the paper reports)."""
        return self.trace.energy()

    @property
    def measured_mean_power_w(self) -> float:
        """Mean wall watts from the meter log."""
        return self.trace.mean_power()

    @property
    def true_energy_j(self) -> float:
        """Exact energy of the ground-truth power curve."""
        return self.truth.energy()

    @property
    def true_mean_power_w(self) -> float:
        """Exact mean wall watts."""
        return self.truth.mean_power()

    @property
    def measurement_error_fraction(self) -> float:
        """Relative error of measured vs. true energy."""
        true = self.true_energy_j
        if true == 0:
            return 0.0
        return (self.measured_energy_j - true) / true


class ClusterExecutor:
    """Runs rank programs on a cluster behind a wall-plug meter.

    Parameters
    ----------
    cluster:
        The machine.
    node_power:
        Power model applied to every node; defaults to
        ``NodePowerModel(node=cluster.node)``.
    meter:
        The metering instrument; defaults to a seeded Watts Up? PRO model.
    rng:
        Seed for the default meter (ignored when ``meter`` is given).
    faults:
        Optional :class:`~repro.faults.FaultInjector`.  When set, the
        default meter's spec is degraded per the plan (sample dropout) and
        every :meth:`execute` call may raise an injected
        :class:`~repro.exceptions.NodeCrashFault` — drawn deterministically
        from the plan's seed — after the engine runs but before any power
        is metered, modelling a node dying mid-phase.
    metering:
        Where the instrument sits:

        * ``"system"`` (default, the paper's Figure 1): the meter wraps the
          whole cluster — idle nodes bill power;
        * ``"active-nodes"``: only nodes hosting at least one rank are
          metered (a common lab shortcut).  Kept for the metering-boundary
          ablation; it visibly reshapes every EE curve.
    timelines:
        Optional list that arms power-timeline capture
        (:mod:`repro.timeline`): every :meth:`execute` call appends its
        run's :class:`~repro.timeline.model.RunTimeline` to it.  Without
        one, nothing is captured.
    """

    #: Valid metering boundaries.
    METERING_MODES = ("system", "active-nodes")

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        node_power: Optional[NodePowerModel] = None,
        meter: Optional[WallPlugMeter] = None,
        rng: RandomState = None,
        faults: Optional[FaultInjector] = None,
        metering: str = "system",
        timelines: Optional[List[RunTimeline]] = None,
    ):
        if metering not in self.METERING_MODES:
            raise SimulationError(
                f"metering must be one of {self.METERING_MODES}, got {metering!r}"
            )
        self.cluster = cluster
        self.node_power = node_power or NodePowerModel(node=cluster.node)
        self.faults = faults
        if meter is None:
            spec = faults.meter_spec(WATTS_UP_PRO) if faults else WATTS_UP_PRO
            meter = WallPlugMeter(spec, rng=rng)
        self.meter = meter
        self.metering = metering
        self.timelines = timelines

    # ------------------------------------------------------------------
    def execute(
        self,
        placement: Placement,
        programs: Sequence[RankProgram],
        *,
        label: str = "run",
    ) -> RunRecord:
        """Simulate the programs and return the metered record."""
        if placement.cluster is not self.cluster and placement.cluster != self.cluster:
            raise SimulationError("placement was built for a different cluster")
        if placement.num_ranks != len(programs):
            raise SimulationError(
                f"placement has {placement.num_ranks} ranks, got {len(programs)} programs"
            )
        intervals = SimulationEngine(programs).run_arrays()
        makespan = intervals.makespan
        if makespan <= 0:
            raise SimulationError("run has zero duration; no phases with time in any program")
        if self.faults is not None:
            self.faults.maybe_crash(
                label=label, makespan=makespan, num_nodes=self.cluster.num_nodes
            )
        # Disarmed timeline capture is this one None check; the timeline
        # model loads only when an executor is armed.
        capture = None
        if self.timelines is not None:
            from ..timeline.model import TimelineCapture

            capture = TimelineCapture()
        with tele.span("sim.power.integrate", label=label) as integrate_span:
            truth, breakdown, stats = self.integrate_power(
                placement, intervals, makespan, capture=capture
            )
            integrate_span.set(**stats)
        with tele.span("sim.power.meter", label=label):
            trace = self.meter.measure(truth)
        if capture is not None:
            from ..timeline.model import build_run_timeline

            with tele.span("sim.timeline.capture", label=label) as capture_span:
                run_timeline = build_run_timeline(
                    capture,
                    truth=truth,
                    trace=trace,
                    breakdown=breakdown,
                    label=label,
                    cluster_name=self.cluster.name,
                    num_ranks=placement.num_ranks,
                    num_nodes=self.cluster.num_nodes,
                    metering=self.metering,
                    idle_wall_w=self.node_power.idle_wall_power(),
                    max_node_wall_w=self.node_power.max_wall_power(),
                    idle_component_w=self.node_power.idle_component_breakdown(),
                )
                self.timelines.append(run_timeline)
                capture_span.set(
                    segments=run_timeline.segments,
                    slices=int(run_timeline.slice_wall_w.size),
                    components=len(run_timeline.components),
                )
            if tele.active():
                tele.count("tgi_timeline_runs_total")
        return RunRecord(
            label=label,
            cluster=self.cluster,
            num_ranks=placement.num_ranks,
            makespan_s=makespan,
            truth=truth,
            trace=trace,
            energy_breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    def integrate_power(
        self,
        placement: Placement,
        intervals: IntervalArrays,
        makespan: float,
        *,
        capture: Optional[TimelineCapture] = None,
    ) -> Tuple[PiecewisePower, Dict[str, float], Dict[str, object]]:
        """Fold the engine's columnar intervals into the cluster wall-power curve.

        Returns ``(truth, breakdown, stats)``: the ground-truth
        :class:`~repro.power.trace.PiecewisePower`, the component
        DC-energy attribution, and the integration statistics that
        :meth:`execute` attaches to the ``sim.power.integrate`` span
        (``segments_in``, ``segments_out``, ``compaction_ratio``).

        All active nodes are processed as contiguous *regions* of shared
        flat arrays rather than one node at a time: the
        :class:`~repro.sim.engine.IntervalArrays` provide the interval
        endpoints and deduplicated phase-demand rows directly, a single
        lexsort builds every node's snapped cut grid, one signed
        ``np.bincount`` and one ``cumsum`` per demand column fold that
        component's demand onto every slice of every node, and one
        :meth:`~repro.power.node_power.NodePowerModel.wall_power_and_breakdown`
        call prices the whole cluster, each component once.  Because every
        interval's +demand and -demand both land inside its node's region,
        the running prefix sum returns to zero at each region boundary, so
        one flat ``cumsum`` is safe across regions — there is no per-node
        Python loop anywhere on this path.

        With ``capture`` set, the integrator also stashes its columnar
        slice table (start/end/node/wall watts plus per-component DC
        watts) into the :class:`~repro.timeline.TimelineCapture` — these
        are references to arrays already computed, so armed capture adds
        no meaningful work here.

        Public so perf-watch scenarios can time the integration phase in
        isolation (the engine run happens in their setup).
        """
        # 1. The columnar form: interval endpoints plus per-interval rows
        # into the deduplicated phase-demand table.  Phases are heavily
        # shared across intervals (and interned for barrier waits), so
        # their demand vectors are gathered through the row-index table
        # instead of being re-read per interval.
        iv_start = np.asarray(intervals.t_start, dtype=float)
        iv_end = np.asarray(intervals.t_end, dtype=float)
        table = intervals.demand_table()  # (phases, 6)

        # Dense node rows 0..m-1 over the nodes actually hosting ranks:
        # a node's row is its position in the sorted ``nodes_used``.
        nodes_used = placement.nodes_used
        m = len(nodes_used)
        iv_node = np.searchsorted(nodes_used, placement.node_array)[intervals.rank]

        # 2. Per-node snapped cut grids, all at once: every endpoint plus
        # {0, makespan} per node, ordered by (node, time), deduplicated
        # within _EPS exactly as _snap_cuts does per node.  The sort is
        # stable, so its order does not depend on the node key's dtype;
        # the narrowest one that holds every row lets NumPy radix-sort it.
        node_rows = np.arange(m)
        ev_time = np.concatenate(
            [iv_start, iv_end, np.zeros(m), np.full(m, makespan)]
        )
        np.clip(ev_time, 0.0, makespan, out=ev_time)
        ev_node = np.concatenate([iv_node, iv_node, node_rows, node_rows])
        order = np.lexsort((ev_time, ev_node.astype(np.min_scalar_type(m))))
        ev_time = ev_time[order]
        ev_node = ev_node[order]
        new_region = np.empty(ev_node.size, dtype=bool)
        new_region[0] = True
        np.not_equal(ev_node[1:], ev_node[:-1], out=new_region[1:])
        keep = new_region.copy()
        keep[1:] |= (ev_time[1:] - ev_time[:-1]) > _EPS
        cut_time = ev_time[keep]
        cut_node = ev_node[keep]
        # Force each region's final cut to makespan (it represents the
        # snap group containing makespan), mirroring _snap_cuts.
        last_of_region = np.empty(cut_node.size, dtype=bool)
        last_of_region[-1] = True
        np.not_equal(cut_node[1:], cut_node[:-1], out=last_of_region[:-1])
        cut_time[last_of_region] = makespan
        has_slice = ~last_of_region

        # 3. Interval endpoints -> flat cut positions, one bisection for
        # all nodes: shifting each region by node_row * span keeps the
        # flat key array sorted and confines every lookup to its region.
        # Starts and ends share one lookup, starts first.
        span = makespan + 1.0
        cut_keys = cut_node * span + cut_time
        region_offset = iv_node * span
        edge_keys = np.concatenate([region_offset + iv_start, region_offset + iv_end])
        edge_keys += _EPS
        i_edge = np.searchsorted(cut_keys, edge_keys, side="right") - 1

        # 4. Difference arrays + one prefix sum fold every component onto
        # every slice.  Slice p lives between cuts p and p+1 of the same
        # region; each region's deltas cancel to zero by its last cut, so
        # the flat cumsum never bleeds across nodes.  An unused column's
        # levels, and so its utilization, are +0.0 on every slice: one
        # shared zeros array stands in for both.
        zeros = np.zeros(int(np.count_nonzero(has_slice)))
        levels = [
            zeros if level is None else level[has_slice]
            for level in _fold_levels(i_edge, intervals.phase_row, table, cut_time.size)
        ]
        slice_node = cut_node[has_slice]
        slice_start = cut_time[has_slice]
        widths = np.empty(cut_time.size)
        widths[:-1] = cut_time[1:] - cut_time[:-1]
        widths = widths[has_slice]

        # 5. Utilization and wall watts for every slice of every node in
        # one batched evaluation.  busy counts are sums of 0/1 floats —
        # exact, so the busy-== 0 -> idle() rule matches the scalar oracle.
        busy, intensity_sum = levels[0], levels[1]
        active = busy > 0
        mean_intensity = np.divide(
            intensity_sum, busy, out=np.zeros(busy.size), where=active
        )

        def demand(level: np.ndarray) -> np.ndarray:
            # Matches the scalar oracle: a node with no core-occupying rank
            # reports idle() — residual demands from non-occupying phases
            # are zeroed, and float cancellation noise is clipped away.
            if level is zeros:
                return zeros
            return np.where(active, np.clip(level, 0.0, 1.0), 0.0)

        util = NodeUtilizationArray(
            cpu_active_fraction=np.where(
                active, np.minimum(1.0, busy / self.cluster.node.cores), 0.0
            ),
            cpu_intensity=np.where(active, np.minimum(1.0, mean_intensity), 0.0),
            memory=demand(levels[2]),
            storage=demand(levels[3]),
            nic=demand(levels[4]),
            accelerator=demand(levels[5]),
        )
        watts, components = self.node_power.wall_power_and_breakdown(util)
        breakdown: Dict[str, float] = {}
        for component, dc_watts in components.items():
            breakdown[component] = float(np.dot(dc_watts, widths))
        idle_nodes = self._idle_node_count(m)
        self._add_idle_breakdown(breakdown, idle_nodes, makespan)
        if capture is not None:
            # Armed capture stashes references to arrays this pipeline
            # already computed.  Slice ends are the next cut of the same
            # region (exact floats; each region's final cut is makespan
            # and owns no slice, so its garbage end never survives).
            ends_all = np.empty_like(cut_time)
            ends_all[:-1] = cut_time[1:]
            capture.makespan = makespan
            capture.nodes_used = tuple(nodes_used)
            capture.idle_nodes = idle_nodes
            capture.set_slices(
                start=slice_start,
                end=ends_all[has_slice],
                node_row=slice_node,
                wall_w=watts,
                components=components,
            )

        # 6. Per-node compaction (drop breakpoints where the wall watts do
        # not change), then the cross-node merge: every compacted node
        # curve is sampled onto the global snapped cut grid with a single
        # region-keyed bisection, summed, and compacted again.
        first_slice = np.empty(slice_node.size, dtype=bool)
        first_slice[0] = True
        np.not_equal(slice_node[1:], slice_node[:-1], out=first_slice[1:])
        keep_c = first_slice.copy()
        keep_c[1:] |= watts[1:] != watts[:-1]
        c_start = slice_start[keep_c]
        c_watts = watts[keep_c]
        c_keys = slice_node[keep_c] * span + c_start

        cuts = _snap_cuts(
            np.concatenate([np.array([0.0, makespan]), c_start]), makespan
        )
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        sample_keys = (node_rows[:, None] * span + mids[None, :]).ravel()
        idx = np.searchsorted(c_keys, sample_keys, side="right") - 1
        idle_wall = self.node_power.idle_wall_power()
        total = idle_nodes * idle_wall + c_watts[idx].reshape(m, mids.size).sum(axis=0)

        # Compact runs of equal watts before constructing the truth curve.
        keep_g = np.ones(total.size, dtype=bool)
        np.not_equal(total[1:], total[:-1], out=keep_g[1:])
        seg_starts = cuts[:-1][keep_g]
        seg_ends = np.concatenate([seg_starts[1:], [makespan]])
        seg_watts = total[keep_g]
        _assert_tiling(seg_starts, seg_ends, makespan)
        truth = PiecewisePower.from_arrays(seg_starts, seg_ends, seg_watts)
        # Whatever the wall saw beyond the summed DC is conversion loss.
        breakdown["psu_loss"] = truth.energy() - sum(breakdown.values())
        stats = {
            "segments_in": int(total.size),
            "segments_out": int(seg_watts.size),
            "compaction_ratio": float(seg_watts.size / total.size) if total.size else 1.0,
        }
        return truth, breakdown, stats

    # -- idle-node accounting (shared with the midpoint-scan oracle) ------
    def _idle_node_count(self, used: int) -> int:
        if self.metering == "system":
            return self.cluster.num_nodes - used
        return 0  # active-nodes: unused nodes sit outside the meter

    def _add_idle_breakdown(self, breakdown: Dict[str, float], idle_nodes: int, makespan: float) -> None:
        if not idle_nodes:
            return
        for component, watts in self.node_power.idle_component_breakdown().items():
            breakdown[component] = (
                breakdown.get(component, 0.0) + idle_nodes * watts * makespan
            )
