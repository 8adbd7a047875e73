"""Ambient timeline capture: arm/disarm mirroring the journal's emit path.

The executor's hot path never builds a timeline unless someone is
listening.  The contract is the same one :mod:`repro.journal` uses for
events and :mod:`repro.telemetry` uses for spans:

* **Disarmed** (the default): :func:`capturing` is a single read of a
  module-level global against ``None`` — the executor skips every capture
  branch.  Nothing is allocated, nothing is copied.
* **Armed** (a sink attached via :func:`attach_sink` or the
  :func:`collecting` context manager): the integrator stashes *references*
  to the columnar arrays they already computed into a
  :class:`TimelineCapture`, and :meth:`~repro.sim.executor.ClusterExecutor.execute`
  wraps them into a :class:`~repro.timeline.model.RunTimeline` handed to
  the sink.  All derived analysis (component grids, audits, binning) is
  lazy — it runs when an artifact or dashboard asks, not on the sim path.

Pool safety follows the journal: the sink is per-process state; campaign
workers arm their own sink around each job and ship artifacts via files,
never through the global.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import TimelineError

__all__ = [
    "TimelineCapture",
    "MemorySink",
    "attach_sink",
    "detach_sink",
    "ambient_sink",
    "capturing",
    "record",
    "collecting",
]


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


class MemorySink:
    """Collects every captured :class:`~repro.timeline.model.RunTimeline`."""

    def __init__(self) -> None:
        self.timelines: List[object] = []

    def add(self, timeline: object) -> None:
        self.timelines.append(timeline)


#: The ambient sink.  ``None`` means capture is disarmed — the executor's
#: fast path is exactly one read of this global.
_SINK: Optional[MemorySink] = None


def attach_sink(sink: MemorySink) -> None:
    """Arm timeline capture for this process."""
    global _SINK
    if _SINK is not None:
        raise TimelineError(
            "a timeline sink is already attached; detach it first "
            "(nested collecting() blocks are not supported)"
        )
    _SINK = sink


def detach_sink() -> None:
    """Disarm timeline capture (no-op when already disarmed)."""
    global _SINK
    _SINK = None


def ambient_sink() -> Optional[MemorySink]:
    """The currently attached sink, or ``None``."""
    return _SINK


def capturing() -> bool:
    """Whether a sink is armed (the executor's single disarmed check)."""
    return _SINK is not None


def record(timeline: object) -> None:
    """Hand a finished run timeline to the ambient sink, if any."""
    sink = _SINK
    if sink is None:
        return
    sink.add(timeline)


@contextmanager
def collecting() -> Iterator[List[object]]:
    """Arm capture for the block; yields the list the timelines land in.

    >>> with collecting() as timelines:
    ...     executor.execute(placement, programs)
    >>> timelines[0].energy_j  # doctest: +SKIP
    """
    sink = MemorySink()
    attach_sink(sink)
    try:
        yield sink.timelines
    finally:
        detach_sink()
