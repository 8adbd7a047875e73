"""Pareto analysis of the performance-power trade space.

Single-number metrics (FLOPS/W, TGI) collapse a two-objective reality:
procurement actually faces a *frontier* of machines where more performance
costs more power.  These helpers identify that frontier so rankings can be
sanity-checked against it — a system that a metric ranks first while being
Pareto-dominated is a red flag for the metric or its weights.

Conventions: performance is maximized, power minimized.  Ties are kept
(two machines with identical coordinates are both on the frontier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from ..exceptions import MetricError
from ..validation import check_non_negative, check_positive

__all__ = ["ParetoPoint", "dominated_by"]


@dataclass(frozen=True)
class ParetoPoint:
    """One system's position in (performance, power) space."""

    name: str
    performance: float
    power_w: float

    def __post_init__(self) -> None:
        if not self.name:
            raise MetricError("point name must be non-empty")
        check_non_negative(self.performance, "performance", exc=MetricError)
        check_positive(self.power_w, "power_w", exc=MetricError)

    def dominates(self, other: "ParetoPoint") -> bool:
        """>= on performance, <= on power, strictly better on at least one."""
        if self.performance < other.performance or self.power_w > other.power_w:
            return False
        return self.performance > other.performance or self.power_w < other.power_w


def dominated_by(points: Sequence[ParetoPoint]) -> Mapping[str, List[str]]:
    """name -> names of points that dominate it (empty list = on frontier)."""
    if not points:
        raise MetricError("need at least one point")
    out = {}
    for p in points:
        out[p.name] = sorted(q.name for q in points if q.dominates(p))
    return out
