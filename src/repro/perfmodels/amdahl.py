"""Parallel efficiency: the share of ideal speedup a run achieves.

A public helper for scaling analyses outside the package; the suite's own
models report their efficiency directly (e.g.
:attr:`~repro.perfmodels.hpl.HPLPrediction.parallel_efficiency`).
"""

from __future__ import annotations

from ..exceptions import MetricError
from ..validation import check_positive, check_positive_int

__all__ = ["parallel_efficiency"]


def parallel_efficiency(speedup: float, num_processors: int) -> float:
    """``S / p`` — fraction of ideal speedup achieved."""
    check_positive(speedup, "speedup", exc=MetricError)
    check_positive_int(num_processors, "num_processors", exc=MetricError)
    return speedup / num_processors
