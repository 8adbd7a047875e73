"""The run timeline: struct-of-arrays power curves for one executed run.

A :class:`RunTimeline` holds *references* to the columnar arrays the
integrator already computed — the cluster-total wall curve (the same
arrays the :class:`~repro.power.trace.PiecewisePower` truth adopts), the
per-node-slice table, the per-slice component DC watts, and the meter's
sample log.  Building one is O(1) array stashes plus a handful of scalars,
which is what keeps armed capture off the sim path's critical cost.

Capture is armed per executor: ``ClusterExecutor(..., timelines=[])``
has the integrator fill a :class:`TimelineCapture` on every run, and
:func:`build_run_timeline` wraps it into the timeline appended to that
list.  An executor without a list builds nothing.

Everything derived — the component grid, per-node energies, closure
checks — is computed lazily and cached on first use:

* the **component grid** is the exact union of every slice boundary
  (``np.unique`` over floats the sweep produced — no epsilon snapping, so
  no cross-node boundary shifting), with each component's cluster-wide DC
  watts accumulated by difference arrays;
* **psu_loss** is *defined* on that grid as the sampled total minus the
  component sum, so component closure holds exactly by construction, the
  same way the executor's energy breakdown defines it in joules.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import TimelineError
from ..power.trace import PiecewisePower, PowerTrace

__all__ = ["TimelineCapture", "RunTimeline", "build_run_timeline"]


class TimelineCapture:
    """Raw columnar arrays stashed by one power integration.

    The integrator fills it with references to arrays it already owns
    (O(1) per field): one flat slice table — ``(start, end, node_row,
    wall_w)`` plus one DC-watts column per component — ordered by node
    row.
    """

    __slots__ = (
        "makespan",
        "nodes_used",
        "idle_nodes",
        "slice_start",
        "slice_end",
        "slice_node",
        "slice_wall_w",
        "components",
    )

    def __init__(self) -> None:
        self.makespan: float = 0.0
        self.nodes_used: Tuple[int, ...] = ()
        self.idle_nodes: int = 0
        self.slice_start: Optional[np.ndarray] = None
        self.slice_end: Optional[np.ndarray] = None
        self.slice_node: Optional[np.ndarray] = None
        self.slice_wall_w: Optional[np.ndarray] = None
        self.components: Dict[str, np.ndarray] = {}

    def set_slices(
        self,
        *,
        start: np.ndarray,
        end: np.ndarray,
        node_row: np.ndarray,
        wall_w: np.ndarray,
        components: Dict[str, np.ndarray],
    ) -> None:
        self.slice_start = start
        self.slice_end = end
        self.slice_node = node_row
        self.slice_wall_w = wall_w
        self.components = components

    @property
    def filled(self) -> bool:
        return self.slice_start is not None


class RunTimeline:
    """Power timelines and attribution for one executed run."""

    def __init__(
        self,
        *,
        label: str,
        cluster_name: str,
        num_ranks: int,
        num_nodes: int,
        nodes_active: int,
        idle_nodes: int,
        makespan_s: float,
        metering: str,
        total_starts: np.ndarray,
        total_ends: np.ndarray,
        total_watts: np.ndarray,
        slice_start: np.ndarray,
        slice_end: np.ndarray,
        slice_node: np.ndarray,
        slice_wall_w: np.ndarray,
        components: Dict[str, np.ndarray],
        idle_wall_w: float,
        max_node_wall_w: float,
        idle_component_w: Dict[str, float],
        meter_times: np.ndarray,
        meter_watts: np.ndarray,
        measured_energy_j: float,
        true_energy_j: float,
        breakdown: Dict[str, float],
    ):
        self.label = label
        self.cluster_name = cluster_name
        self.num_ranks = num_ranks
        self.num_nodes = num_nodes
        self.nodes_active = nodes_active
        self.idle_nodes = idle_nodes
        self.makespan_s = makespan_s
        self.metering = metering
        self.total_starts = total_starts
        self.total_ends = total_ends
        self.total_watts = total_watts
        self.slice_start = slice_start
        self.slice_end = slice_end
        self.slice_node = slice_node
        self.slice_wall_w = slice_wall_w
        self.components = components
        self.idle_wall_w = idle_wall_w
        self.max_node_wall_w = max_node_wall_w
        self.idle_component_w = idle_component_w
        self.meter_times = meter_times
        self.meter_watts = meter_watts
        self.measured_energy_j = measured_energy_j
        self.true_energy_j = true_energy_j
        self.breakdown = dict(breakdown)
        self._grid: Optional[Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray]] = None

    # -- totals ---------------------------------------------------------
    @property
    def energy_j(self) -> float:
        """Exact integral of the captured total wall curve."""
        return float(
            np.sum((self.total_ends - self.total_starts) * self.total_watts)
        )

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.makespan_s

    @property
    def max_power_w(self) -> float:
        return float(self.total_watts.max())

    @property
    def segments(self) -> int:
        return int(self.total_watts.size)

    def total_timeline(self) -> PiecewisePower:
        """The total wall curve as a :class:`PiecewisePower`."""
        return PiecewisePower.from_arrays(
            self.total_starts, self.total_ends, self.total_watts
        )

    def meter_trace(self) -> PowerTrace:
        """The meter's sample log as a :class:`PowerTrace`."""
        return PowerTrace(self.meter_times, self.meter_watts)

    # -- component grid (lazy) ------------------------------------------
    def component_grid(self) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray]:
        """``(edges, levels, total_on_grid)`` for the component timelines.

        ``edges`` is the exact union of every slice boundary (length
        ``G + 1``); ``levels[name]`` is that component's cluster-wide DC
        watts on each of the ``G`` grid slices (idle nodes included);
        ``total_on_grid`` samples the captured total wall curve on the
        same slices.  ``levels["psu_loss"]`` is the total minus the
        component sum, so the levels sum to the total exactly.
        """
        if self._grid is not None:
            return self._grid
        edges = np.unique(
            np.concatenate(
                [
                    self.slice_start,
                    self.slice_end,
                    self.total_starts,
                    [0.0, self.makespan_s],
                ]
            )
        )
        if edges.size < 2:
            raise TimelineError("degenerate component grid")
        pos0 = np.searchsorted(edges, self.slice_start)
        pos1 = np.searchsorted(edges, self.slice_end)
        levels: Dict[str, np.ndarray] = {}
        for name, dc_watts in self.components.items():
            delta = np.bincount(
                pos0, weights=dc_watts, minlength=edges.size
            ) - np.bincount(pos1, weights=dc_watts, minlength=edges.size)
            level = np.cumsum(delta)[:-1]
            if self.idle_nodes:
                level = level + self.idle_nodes * self.idle_component_w.get(name, 0.0)
            levels[name] = level
        total_idx = np.maximum(
            np.searchsorted(self.total_starts, edges[:-1], side="right") - 1, 0
        )
        total_on_grid = self.total_watts[total_idx]
        component_sum = np.zeros(edges.size - 1)
        for level in levels.values():
            component_sum += level
        levels["psu_loss"] = total_on_grid - component_sum
        self._grid = (edges, levels, total_on_grid)
        return self._grid

    def component_energies(self) -> Dict[str, float]:
        """DC joules per component (plus ``psu_loss``) from the timelines."""
        edges, levels, _ = self.component_grid()
        widths = np.diff(edges)
        return {
            name: float(np.dot(level, widths)) for name, level in levels.items()
        }

    # -- per-node curves ------------------------------------------------
    def node_offsets(self) -> np.ndarray:
        """CSR offsets into the slice table, one span per active node row."""
        return np.searchsorted(
            self.slice_node, np.arange(self.nodes_active + 1)
        )

    def node_energies(self) -> np.ndarray:
        """Exact wall joules per active node row."""
        widths = self.slice_end - self.slice_start
        return np.bincount(
            self.slice_node,
            weights=self.slice_wall_w * widths,
            minlength=self.nodes_active,
        )

    def node_curve(self, node_row: int) -> PiecewisePower:
        """One active node's wall-power curve."""
        if not 0 <= node_row < self.nodes_active:
            raise TimelineError(
                f"node_row {node_row} out of range [0, {self.nodes_active})"
            )
        offsets = self.node_offsets()
        lo, hi = int(offsets[node_row]), int(offsets[node_row + 1])
        return PiecewisePower.from_arrays(
            self.slice_start[lo:hi], self.slice_end[lo:hi], self.slice_wall_w[lo:hi]
        )

    def __repr__(self) -> str:
        return (
            f"RunTimeline({self.label!r}, {self.cluster_name}, "
            f"{self.num_ranks} ranks, {self.segments} segments, "
            f"{self.energy_j:.1f} J)"
        )


def build_run_timeline(
    capture: TimelineCapture,
    *,
    truth: PiecewisePower,
    trace: PowerTrace,
    breakdown: Dict[str, float],
    label: str,
    cluster_name: str,
    num_ranks: int,
    num_nodes: int,
    metering: str,
    idle_wall_w: float,
    max_node_wall_w: float,
    idle_component_w: Dict[str, float],
) -> RunTimeline:
    """Wrap a filled :class:`TimelineCapture` into a :class:`RunTimeline`.

    Adopts the truth curve's arrays as the total timeline, so the
    conservation audit's total-vs-truth check is exact by construction.
    O(1) array stashes — the heavy lifting stays lazy.
    """
    if not capture.filled:
        raise TimelineError("capture was never filled by an integration")
    return RunTimeline(
        label=label,
        cluster_name=cluster_name,
        num_ranks=num_ranks,
        num_nodes=num_nodes,
        nodes_active=len(capture.nodes_used),
        idle_nodes=capture.idle_nodes,
        makespan_s=capture.makespan,
        metering=metering,
        total_starts=truth.starts_array,
        total_ends=truth.ends_array,
        total_watts=truth.watts_array,
        slice_start=capture.slice_start,
        slice_end=capture.slice_end,
        slice_node=capture.slice_node,
        slice_wall_w=capture.slice_wall_w,
        components=capture.components,
        idle_wall_w=idle_wall_w,
        max_node_wall_w=max_node_wall_w,
        idle_component_w=dict(idle_component_w),
        meter_times=trace.times,
        meter_watts=trace.watts,
        measured_energy_j=trace.energy(),
        true_energy_j=truth.energy(),
        breakdown=breakdown,
    )
