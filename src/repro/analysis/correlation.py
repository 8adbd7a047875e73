"""Correlation measures (paper Eq. 17 and Table II).

The paper quantifies how well each TGI variant tracks the individual
benchmarks' energy-efficiency curves with the Pearson correlation
coefficient (PCC, Eq. 17).  One row-wise kernel, :func:`_pearson_rows`,
evaluates it for every row of two ``(B, n)`` arrays; :func:`pearson` runs it
on one row, and the bootstrap and jackknife (:mod:`.bootstrap`) on all their
resamples at once.  The ``n-1`` of Eq. 17's sample standard deviations
cancels in the ratio.  :func:`spearman` is provided for rank-robustness
checks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import MetricError

__all__ = ["pearson", "spearman"]


def _validate_pair(x: Sequence[float], y: Sequence[float]):
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1:
        raise MetricError("inputs must be 1-D")
    if x_arr.size != y_arr.size:
        raise MetricError(f"length mismatch: {x_arr.size} vs {y_arr.size}")
    if x_arr.size < 2:
        raise MetricError("correlation needs at least 2 samples")
    if not (np.isfinite(x_arr).all() and np.isfinite(y_arr).all()):
        raise MetricError("inputs must be finite")
    return x_arr, y_arr


def _unit_deviations(a: np.ndarray) -> np.ndarray:
    """Each row's deviations from its mean, scaled by a power of two so the
    largest lies in [0.5, 1).

    The scaling is exact, so it changes no ordinary result; it keeps the
    kernel's squares and cross products from underflowing (spreads under
    ~1e-154) or overflowing (over ~1e154).
    """
    d = a - a.mean(axis=-1, keepdims=True)
    # In place, with max|d| from two reductions: fewer fresh (B, n)
    # temporaries means fewer page faults per bootstrap block.
    peak = np.maximum(d.max(axis=-1, keepdims=True), -d.min(axis=-1, keepdims=True))
    return np.ldexp(d, -np.frexp(peak)[1], out=d)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Stacked (1, n) @ (n, 1) products: each row goes through the same BLAS
    # dot as a 1-D ``a @ b``, so a row's sum is bit-identical to it
    # (``einsum``/``(a * b).sum(-1)`` round differently).
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _pearson_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Eq. 17 for every row of two ``(B, n)`` float arrays, clipped to [-1, 1].

    A row whose deviations are all zero gives NaN.  Callers screen exactly
    constant rows first: the mean of equal values need not be exactly that
    value in float64, and the scaling would blow its residue up into a
    meaningless coefficient.
    """
    dx = _unit_deviations(xs)
    dy = _unit_deviations(ys)
    with np.errstate(invalid="ignore"):
        r = _row_dots(dx, dy) / (
            np.sqrt(_row_dots(dx, dx)) * np.sqrt(_row_dots(dy, dy))
        )
    return np.clip(r, -1.0, 1.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Eq. 17: sample Pearson correlation coefficient in [-1, 1].

    Raises :class:`~repro.exceptions.MetricError` when either series is
    constant (the coefficient is undefined).
    """
    x_arr, y_arr = _validate_pair(x, y)
    # An exactly-constant series is degenerate regardless of roundoff: the
    # mean subtraction can leave nonzero residue (mean of n equal values
    # need not be exactly that value in float64), which the kernel would
    # scale into a meaningless coefficient.
    if np.all(x_arr == x_arr[0]) or np.all(y_arr == y_arr[0]):
        raise MetricError("PCC undefined for a constant series")
    r = _pearson_rows(x_arr[None, :], y_arr[None, :])[0]
    if np.isnan(r):
        # Finite inputs whose sum overflows float64 leave no finite mean.
        raise MetricError("PCC undefined: the series overflow float64")
    return float(r)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average (midrank) ranks, 1-based, ties shared.

    A run of equal values spanning sorted positions ``[i, j]`` all get rank
    ``(i + j) / 2 + 1``.  Vectorized: fleets of repeated hardware hand this
    function thousands-long vectors where most entries sit in tie runs
    (identical systems score identically), and a Python-loop walk over them
    dominates the diagnostics cost.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    n = values.size
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=starts[1:])
    group_of = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)  # each group's first sorted position
    last = np.append(first[1:], n) - 1  # ... and its last, inclusive
    midrank = 0.5 * (first + last) + 1.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = midrank[group_of]
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on average ranks.

    Heavy ties are fine — midranks keep the statistic well-defined (never
    NaN) as long as each series takes at least two distinct values.  A
    fully-constant series (every system scoring the same) has no
    rank ordering at all, so it raises
    :class:`~repro.exceptions.MetricError` exactly like :func:`pearson`.
    """
    x_arr, y_arr = _validate_pair(x, y)
    return pearson(_ranks(x_arr), _ranks(y_arr))

