"""Power time series: the exact (piecewise-constant) truth and sampled traces.

Two representations:

* :class:`PiecewisePower` — the simulator's ground truth: wall power as a
  piecewise-constant function of time.  Its energy integral is exact.
* :class:`PowerTrace` — what a meter produces: (timestamp, watts) samples.
  Its energy is the trapezoidal integral, exactly the arithmetic one applies
  to a real Watts Up? log file.

Keeping both lets tests quantify the measurement error the paper's
methodology inherits from 1 Hz wall-plug metering (see
``benchmarks/bench_ablation_meter.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import PowerModelError
from ..units import format_energy, format_power, format_time

__all__ = ["PiecewisePower", "PowerTrace"]


class PiecewisePower:
    """Piecewise-constant wall power over ``[0, duration]``.

    Built from ``(t_start, t_end, watts)`` segments that must tile the
    interval without gaps or overlaps (zero-length segments are dropped).
    """

    def __init__(self, segments: Iterable[Tuple[float, float, float]]):
        cleaned: List[Tuple[float, float, float]] = []
        for t0, t1, w in segments:
            if t1 < t0:
                raise PowerModelError(f"segment ends before it starts: ({t0}, {t1})")
            if w < 0:
                raise PowerModelError(f"negative power {w} in segment ({t0}, {t1})")
            if t1 > t0:
                cleaned.append((float(t0), float(t1), float(w)))
        cleaned.sort(key=lambda s: s[0])
        if not cleaned:
            raise PowerModelError("PiecewisePower needs at least one non-empty segment")
        for prev, cur in zip(cleaned, cleaned[1:]):
            if abs(prev[1] - cur[0]) > 1e-9:
                raise PowerModelError(
                    f"segments must tile time: gap/overlap between t={prev[1]} and t={cur[0]}"
                )
        self._starts = np.array([s[0] for s in cleaned])
        self._ends = np.array([s[1] for s in cleaned])
        self._watts = np.array([s[2] for s in cleaned])

    @property
    def t_start(self) -> float:
        """Start of the covered interval."""
        return float(self._starts[0])

    @property
    def starts_array(self) -> np.ndarray:
        """Segment start times (read-only view)."""
        view = self._starts.view()
        view.flags.writeable = False
        return view

    @property
    def ends_array(self) -> np.ndarray:
        """Segment end times (read-only view)."""
        view = self._ends.view()
        view.flags.writeable = False
        return view

    @property
    def watts_array(self) -> np.ndarray:
        """Segment watts (read-only view)."""
        view = self._watts.view()
        view.flags.writeable = False
        return view

    @property
    def duration(self) -> float:
        """Length of the covered interval in seconds."""
        return float(self._ends[-1] - self._starts[0])

    @property
    def segments(self) -> List[Tuple[float, float, float]]:
        """The (t_start, t_end, watts) segments."""
        return list(zip(self._starts.tolist(), self._ends.tolist(), self._watts.tolist()))

    def power_at(self, t):
        """Wall watts at time ``t`` (right-continuous; endpoint included).

        Elementwise: a time gives a float, an array of times an array.
        """
        times = np.asarray(t, dtype=float)
        if times.size and (
            times.min() < self._starts[0] - 1e-12 or times.max() > self._ends[-1] + 1e-12
        ):
            raise PowerModelError(
                f"t={t} outside covered interval [{self._starts[0]}, {self._ends[-1]}]"
            )
        idx = np.minimum(np.searchsorted(self._ends, times, side="left"), len(self._watts) - 1)
        watts = self._watts[idx]
        return watts if watts.ndim else float(watts)

    def energy(self) -> float:
        """Exact energy in joules over the whole interval."""
        return float(np.sum((self._ends - self._starts) * self._watts))

    def mean_power(self) -> float:
        """Exact time-averaged watts."""
        return self.energy() / self.duration

    def max_power(self) -> float:
        """Peak watts."""
        return float(self._watts.max())

    @classmethod
    def constant(cls, watts: float, duration: float) -> "PiecewisePower":
        """A constant-power interval (convenience for tests/examples)."""
        return cls([(0.0, duration, watts)])

    @classmethod
    def from_arrays(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        watts: np.ndarray,
    ) -> "PiecewisePower":
        """Trusted constructor for pre-validated segment arrays.

        The per-segment Python validation in ``__init__`` is O(segments)
        interpreter work — measurable when the sweep-line integrator hands
        over tens of thousands of segments per run.  Callers promise the
        arrays are already sorted, non-negative, tiling, and non-empty
        (the integrator asserts exact tiling before calling); only O(1)
        structural checks run here.  The arrays are adopted, not copied.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        watts = np.asarray(watts, dtype=float)
        if not (starts.ndim == ends.ndim == watts.ndim == 1):
            raise PowerModelError("segment arrays must be 1-D")
        if not (starts.size == ends.size == watts.size):
            raise PowerModelError(
                f"segment arrays differ in length: "
                f"{starts.size}/{ends.size}/{watts.size}"
            )
        if starts.size == 0:
            raise PowerModelError("PiecewisePower needs at least one non-empty segment")
        self = cls.__new__(cls)
        self._starts = starts
        self._ends = ends
        self._watts = watts
        return self

    def __repr__(self) -> str:
        return (
            f"PiecewisePower({len(self._watts)} segments, "
            f"{format_time(self.duration)}, mean {format_power(self.mean_power())})"
        )


class PowerTrace:
    """Sampled (timestamp, watts) series — what a wall-plug meter logs.

    Samples may arrive unsorted (merged meter logs) — they are sorted on
    construction.  Duplicate timestamps are deduplicated when they agree
    on the watts; duplicates that *disagree* raise
    :class:`~repro.exceptions.PowerModelError`, because trapezoidal
    integration over a zero-width step silently mis-prices the
    neighbouring intervals.

    A trace is immutable: it copies the samples it is given and exposes
    read-only views, so it integrates them once and serves that energy
    to every later reader (the metric layer reads each run's mean power
    many times).
    """

    def __init__(self, times: Sequence[float], watts: Sequence[float]):
        times_arr = np.array(times, dtype=float)
        watts_arr = np.array(watts, dtype=float)
        if times_arr.ndim != 1 or watts_arr.ndim != 1:
            raise PowerModelError("times and watts must be 1-D")
        if times_arr.size != watts_arr.size:
            raise PowerModelError(
                f"times ({times_arr.size}) and watts ({watts_arr.size}) differ in length"
            )
        if times_arr.size < 1:
            raise PowerModelError("a PowerTrace needs at least one sample")
        if np.any(np.diff(times_arr) < 0):
            # stable, so equal-timestamp samples keep their input order and
            # the conflict check below sees them adjacent
            order = np.argsort(times_arr, kind="stable")
            times_arr = times_arr[order]
            watts_arr = watts_arr[order]
        duplicate = np.zeros(times_arr.size, dtype=bool)
        if times_arr.size > 1:
            np.equal(times_arr[1:], times_arr[:-1], out=duplicate[1:])
        if duplicate.any():
            conflict = duplicate.copy()
            conflict[1:] &= watts_arr[1:] != watts_arr[:-1]
            if conflict.any():
                t_bad = times_arr[conflict][0]
                raise PowerModelError(
                    f"conflicting duplicate samples at t={t_bad}: a timestamp "
                    "may repeat only with identical watts"
                )
            times_arr = times_arr[~duplicate]
            watts_arr = watts_arr[~duplicate]
        if np.any(watts_arr < 0):
            raise PowerModelError("power samples must be non-negative")
        self._times = times_arr
        self._watts = watts_arr
        self._energy: Optional[float] = None

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps in seconds (read-only view)."""
        view = self._times.view()
        view.flags.writeable = False
        return view

    @property
    def watts(self) -> np.ndarray:
        """Sampled watts (read-only view)."""
        view = self._watts.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return int(self._times.size)

    @property
    def duration(self) -> float:
        """Seconds spanned by the samples."""
        return float(self._times[-1] - self._times[0])

    def energy(self) -> float:
        """Trapezoidal energy in joules (0 for a single sample), integrated once."""
        if self._energy is None:
            self._energy = (
                float(np.trapezoid(self._watts, self._times)) if len(self) > 1 else 0.0
            )
        return self._energy

    def mean_power(self) -> float:
        """Time-weighted mean watts (simple mean for a single sample)."""
        if len(self) < 2:
            return float(self._watts[0])
        return self.energy() / self.duration

    def max_power(self) -> float:
        """Peak sampled watts."""
        return float(self._watts.max())

    def min_power(self) -> float:
        """Minimum sampled watts."""
        return float(self._watts.min())

    def slice(self, t0: float, t1: float) -> "PowerTrace":
        """Samples with ``t0 <= t <= t1`` (must contain at least one)."""
        if t1 < t0:
            raise PowerModelError(f"t1 ({t1}) must be >= t0 ({t0})")
        mask = (self._times >= t0) & (self._times <= t1)
        if not mask.any():
            raise PowerModelError(f"no samples in [{t0}, {t1}]")
        return PowerTrace(self._times[mask], self._watts[mask])

    def __repr__(self) -> str:
        return (
            f"PowerTrace({len(self)} samples over {format_time(self.duration)}, "
            f"mean {format_power(self.mean_power())}, "
            f"energy {format_energy(self.energy())})"
        )
