"""Resampling-based uncertainty for the paper's correlations.

Table II's Pearson coefficients are computed from **eight** scale points.
A correlation from eight samples carries a lot of uncertainty, which the
paper does not quantify; these tools do:

* :func:`bootstrap_pearson_ci` — percentile bootstrap confidence interval
  (pairs resampled with replacement; degenerate resamples with a constant
  series are redrawn);
* :func:`jackknife_pearson` — leave-one-out values, exposing how much a
  single scale point moves the coefficient;
* :func:`bootstrap_mean_ci` — percentile bootstrap interval for a plain
  mean, the baseline statistic behind perf-watch's regression verdicts
  (:mod:`repro.perfwatch.baseline`).

Resamples are drawn in blocks of about :data:`_BLOCK_ELEMENTS` indices and
each block is evaluated in one call, which bounds memory at any resample
count.  The blocks' rows are, in order, exactly the one-resample draws
``gen.integers(0, n, size=n)`` from the same generator stream, so the
intervals and the generator's end state do not depend on the block size.

Used by ``tests/test_analysis_bootstrap.py`` and the Table II discussion in
EXPERIMENTS.md; everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import MetricError
from ..rng import RandomState, ensure_rng
from .correlation import _pearson_rows, pearson

__all__ = [
    "BootstrapCI",
    "bootstrap_mean_ci",
    "bootstrap_pearson_ci",
    "jackknife_pearson",
]

#: Give up after this many redraws of a degenerate (constant) resample.
_MAX_REDRAWS = 1000

#: Indices per resample block: each (rows, n) temporary is at most 512 KB,
#: whatever the resample count.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap estimate with its percentile interval."""

    estimate: float
    low: float
    high: float
    confidence: float
    resamples: int

    @property
    def width(self) -> float:
        """Interval width — the honest error bar on the estimate."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def _draw_block(gen: np.random.Generator, n: int, need: int) -> np.ndarray:
    """The next ``min(need, block)`` resamples' indices, one row each."""
    block = max(1, _BLOCK_ELEMENTS // n)
    return gen.integers(0, n, size=(min(need, block), n))


def bootstrap_pearson_ci(
    x: Sequence[float],
    y: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: RandomState = None,
) -> BootstrapCI:
    """Percentile-bootstrap CI for the Pearson coefficient of (x, y)."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if not 0 < confidence < 1:
        raise MetricError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 10:
        raise MetricError(f"resamples must be >= 10, got {resamples}")
    estimate = pearson(x_arr, y_arr)  # validates inputs
    gen = ensure_rng(rng)
    stats: List[np.ndarray] = []
    need = resamples
    redraws = 0
    while need:
        idx = _draw_block(gen, x_arr.size, need)
        xs, ys = x_arr[idx], y_arr[idx]
        # A resample with a constant series is redrawn.  A block holds at
        # most ``need`` rows, all of which a one-at-a-time loop would draw.
        kept = (np.ptp(xs, axis=1) != 0) & (np.ptp(ys, axis=1) != 0)
        redraws += kept.size - int(kept.sum())
        if redraws > _MAX_REDRAWS:
            raise MetricError(
                "too many degenerate bootstrap resamples; series nearly constant"
            )
        if not kept.all():  # boolean indexing copies; most blocks keep all
            xs, ys = xs[kept], ys[kept]
        stats.append(_pearson_rows(xs, ys))
        need -= stats[-1].size
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(np.concatenate(stats), [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
        resamples=resamples,
    )


def bootstrap_mean_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: RandomState = None,
) -> BootstrapCI:
    """Percentile-bootstrap CI for the mean of ``values``.

    Unlike :func:`bootstrap_pearson_ci`, degenerate resamples are fine —
    a constant series has a perfectly well-defined mean — so a
    zero-variance input collapses the interval to a point, and a
    single-sample input yields ``low == high == estimate``.  Both cases
    matter to perf-watch: a scenario whose history is one run, or whose
    timings are quantized to identical values, still needs a baseline.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise MetricError("bootstrap_mean_ci needs a non-empty 1-D series")
    if not np.isfinite(arr).all():
        raise MetricError("bootstrap_mean_ci requires finite values")
    if not 0 < confidence < 1:
        raise MetricError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 10:
        raise MetricError(f"resamples must be >= 10, got {resamples}")
    estimate = float(arr.mean())
    if arr.size == 1 or np.ptp(arr) == 0:
        return BootstrapCI(
            estimate=estimate,
            low=estimate,
            high=estimate,
            confidence=confidence,
            resamples=resamples,
        )
    gen = ensure_rng(rng)
    means: List[np.ndarray] = []
    need = resamples
    while need:
        means.append(arr[_draw_block(gen, arr.size, need)].mean(axis=1))
        need -= means[-1].size
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(np.concatenate(means), [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
        resamples=resamples,
    )


def jackknife_pearson(x: Sequence[float], y: Sequence[float]) -> List[Tuple[int, float]]:
    """Leave-one-out Pearson values: ``[(left_out_index, r), ...]``.

    A large spread across entries means one scale point carries the
    correlation — worth knowing before trusting an 8-point coefficient.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    pearson(x_arr, y_arr)  # validates
    n = x_arr.size
    if n < 3:
        raise MetricError("jackknife needs at least 3 samples")
    # Row i of the (n, n - 1) gathers is the series without point i.
    others = ~np.eye(n, dtype=bool)
    xs = np.broadcast_to(x_arr, (n, n))[others].reshape(n, n - 1)
    ys = np.broadcast_to(y_arr, (n, n))[others].reshape(n, n - 1)
    if (np.ptp(xs, axis=1) == 0).any() or (np.ptp(ys, axis=1) == 0).any():
        raise MetricError("PCC undefined for a constant series")
    return list(enumerate(_pearson_rows(xs, ys).tolist()))
