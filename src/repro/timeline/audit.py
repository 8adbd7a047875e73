"""Energy-conservation audit: the timeline must re-integrate to the record.

A captured timeline is only trustworthy if its integrals reproduce the
numbers the executor reported — the same joules TGI is computed from.
:func:`audit_run_timeline` checks four closures, each as a *relative*
error against the run's true energy, plus the downsampling bound:

1. **total vs truth** — the total timeline's integral vs the
   ``RunRecord``'s ``true_energy_j``;
2. **component closure** — the component timelines (including
   ``psu_loss``) must sum to the total;
3. **node closure** — per-node curves plus the idle-node floor must sum
   to the total;
4. **breakdown match** — each component timeline's joules vs the
   executor's ``energy_breakdown`` attribution;
5. **downsample closure** — the min-max binning's energy-preserving means
   must re-integrate to the total.

All five hold within ``1e-9`` relative under both metering boundaries
(property-tested in ``tests/test_timeline.py``); in practice the errors
are float-association noise around ``1e-13``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .downsample import minmax_bins
from .model import RunTimeline

__all__ = ["AuditReport", "audit_run_timeline", "DEFAULT_TOLERANCE"]

DEFAULT_TOLERANCE = 1e-9


@dataclass
class AuditReport:
    """Outcome of one conservation audit (all errors relative)."""

    label: str
    tolerance: float
    total_vs_truth: float
    component_closure: float
    node_closure: float
    breakdown_match: float
    downsample_closure: float
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = self.worst <= self.tolerance

    @property
    def worst(self) -> float:
        return max(
            self.total_vs_truth,
            self.component_closure,
            self.node_closure,
            self.breakdown_match,
            self.downsample_closure,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "tolerance": self.tolerance,
            "total_vs_truth": self.total_vs_truth,
            "component_closure": self.component_closure,
            "node_closure": self.node_closure,
            "breakdown_match": self.breakdown_match,
            "downsample_closure": self.downsample_closure,
            "worst": self.worst,
            "ok": self.ok,
        }


def _rel(delta: float, reference: float) -> float:
    if reference == 0.0:
        return abs(delta)
    return abs(delta) / abs(reference)


def audit_run_timeline(
    timeline: RunTimeline,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    bins: int = 64,
) -> AuditReport:
    """Run every conservation check against ``timeline``."""
    reference = timeline.true_energy_j
    total = timeline.energy_j

    # 1. total timeline vs the executor's reported truth
    total_vs_truth = _rel(total - reference, reference)

    # 2. component timelines (incl. psu_loss) sum to the total
    component_energies = timeline.component_energies()
    component_closure = _rel(sum(component_energies.values()) - total, reference)

    # 3. active-node curves plus the idle floor sum to the total
    node_total = float(timeline.node_energies().sum())
    idle_floor = (
        timeline.idle_nodes * timeline.idle_wall_w * timeline.makespan_s
    )
    node_closure = _rel(node_total + idle_floor - total, reference)

    # 4. each component's joules vs the executor's attribution
    errors: List[float] = []
    for name, joules in timeline.breakdown.items():
        errors.append(_rel(component_energies.get(name, 0.0) - joules, reference))
    breakdown_match = max(errors) if errors else 0.0

    # 5. binned means re-integrate to the total (the documented bound:
    # energy-preserving by construction, float rounding only)
    binned = minmax_bins(
        timeline.total_starts, timeline.total_ends, timeline.total_watts, bins
    )
    binned_energy = float(np.dot(binned["w_mean"], np.diff(binned["edges"])))
    downsample_closure = _rel(binned_energy - total, reference)

    return AuditReport(
        label=timeline.label,
        tolerance=tolerance,
        total_vs_truth=total_vs_truth,
        component_closure=component_closure,
        node_closure=node_closure,
        breakdown_match=breakdown_match,
        downsample_closure=downsample_closure,
    )
