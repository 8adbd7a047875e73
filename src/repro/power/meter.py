"""Wall-plug power-meter model (the paper's Watts Up? PRO ES).

The paper measures energy by placing a Watts Up? PRO ES between the power
outlet and the system (Figure 1) and integrating its log.  The meter's
datasheet behaviour is modelled here:

* fixed-rate sampling (1 Hz for the PRO ES);
* a per-instrument gain error (the "+/- 1.5 %" spec), drawn once per meter
  from a seeded stream and then held — real gain error is a property of the
  unit, not of each sample;
* additive sample noise (the "+/- 3 counts" spec, 0.1 W per count);
* quantization to the display resolution (0.1 W).

:meth:`WallPlugMeter.measure` samples a :class:`~repro.power.trace.PiecewisePower`
ground truth into a :class:`~repro.power.trace.PowerTrace`, so every energy
number the benchmarks report has passed through the same measurement
pipeline as the paper's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..exceptions import MeterError
from ..rng import RandomState, child_rng
from ..validation import check_non_negative, check_positive
from .trace import PiecewisePower, PowerTrace

__all__ = ["MeterSpec", "WallPlugMeter", "WATTS_UP_PRO", "PERFECT_METER"]


@dataclass(frozen=True)
class MeterSpec:
    """Datasheet parameters of a wall-plug meter.

    Parameters
    ----------
    name:
        Instrument name.
    sample_interval_s:
        Seconds between samples.
    gain_error_fraction:
        Maximum relative gain error; the realized gain is drawn uniformly in
        ``[-g, +g]`` once per instrument.
    noise_counts:
        Additive sample noise amplitude in display counts (uniform).
    resolution_watts:
        Display resolution (one count).
    max_watts:
        Clipping ceiling of the instrument (the PRO ES tops out at ~1.8 kW;
        metering a large cluster requires one meter per circuit, modelled by
        summing node wall power before the instrument — set this high when
        modelling a logical "sum of meters").
    dropout_probability:
        Chance of any individual sample being lost (USB loggers drop
        records under host load).  The trace simply lacks those
        timestamps; trapezoidal integration bridges the gaps, which is
        exactly what post-processing a real log does.
    """

    name: str
    sample_interval_s: float = 1.0
    gain_error_fraction: float = 0.015
    noise_counts: float = 3.0
    resolution_watts: float = 0.1
    max_watts: float = float("inf")
    dropout_probability: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise MeterError("meter name must be non-empty")
        check_positive(self.sample_interval_s, "sample_interval_s", exc=MeterError)
        check_non_negative(self.gain_error_fraction, "gain_error_fraction", exc=MeterError)
        check_non_negative(self.noise_counts, "noise_counts", exc=MeterError)
        check_positive(self.resolution_watts, "resolution_watts", exc=MeterError)
        if not self.max_watts > 0:  # inf is a valid (uncapped) ceiling
            raise MeterError(f"max_watts must be > 0, got {self.max_watts!r}")
        if not 0.0 <= self.dropout_probability < 1.0:
            raise MeterError(
                f"dropout_probability must be in [0, 1), got {self.dropout_probability!r}"
            )

    def with_dropout(self, probability: float) -> "MeterSpec":
        """The same instrument losing each sample with ``probability``.

        Used by fault injection to degrade a meter without re-stating the
        rest of its datasheet; validation runs again on the copy.
        """
        return dataclasses.replace(self, dropout_probability=probability)


#: The instrument used in the paper, with an uncapped range so a single
#: logical meter can stand in for the per-circuit bank metering a cluster.
WATTS_UP_PRO = MeterSpec(name="Watts Up? PRO ES")

#: An error-free, infinitely fine meter for ablations.
PERFECT_METER = MeterSpec(
    name="ideal meter",
    sample_interval_s=0.1,
    gain_error_fraction=0.0,
    noise_counts=0.0,
    resolution_watts=1e-9,
)


class WallPlugMeter:
    """One metering instrument with a realized gain error.

    Parameters
    ----------
    spec:
        Datasheet parameters.
    rng:
        Seed or generator; the instrument's gain error and its sample-noise
        stream derive from it, so two meters built from the same seed read
        identically.
    """

    def __init__(self, spec: MeterSpec = WATTS_UP_PRO, *, rng: RandomState = None):
        self.spec = spec
        gain_rng = child_rng(rng, f"meter-gain:{spec.name}")
        self._gain = 1.0 + gain_rng.uniform(
            -spec.gain_error_fraction, spec.gain_error_fraction
        )
        self._noise_rng = child_rng(rng, f"meter-noise:{spec.name}")

    @property
    def realized_gain(self) -> float:
        """The instrument's realized multiplicative gain (close to 1)."""
        return float(self._gain)

    def measure(self, truth: PiecewisePower) -> PowerTrace:
        """Sample a ground-truth power curve into a meter log.

        Samples land at the middle of each sampling interval (the instrument
        integrates over its update period), starting at ``t_start``.  A run
        shorter than one interval still yields a single sample so that very
        quick benchmarks remain measurable — matching practice, where one
        reads the instantaneous display.
        """
        dt = self.spec.sample_interval_s
        n = max(1, int(np.floor(truth.duration / dt)))
        times = truth.t_start + (np.arange(n) + 0.5) * dt
        # Float noise can push only the *last* mid-interval sample past the
        # covered range; trim by bisection instead of a full boolean scan.
        end = truth.t_start + truth.duration
        times = times[: int(np.searchsorted(times, end, side="right"))]
        if times.size == 0:
            times = np.array([truth.t_start + truth.duration / 2.0])
        # One searchsorted prices every sample against the (compacted)
        # truth curve; noise, clipping, and quantization are elementwise.
        true_watts = truth.power_at(times)
        noise = self._noise_rng.uniform(
            -self.spec.noise_counts, self.spec.noise_counts, size=times.size
        ) * self.spec.resolution_watts
        read = true_watts * self._gain + noise
        read = np.clip(read, 0.0, self.spec.max_watts)
        quantized = np.round(read / self.spec.resolution_watts) * self.spec.resolution_watts
        if self.spec.dropout_probability > 0 and times.size > 1:
            kept = self._noise_rng.random(times.size) >= self.spec.dropout_probability
            kept[0] = True  # a log always has its first record
            times = times[kept]
            quantized = quantized[kept]
        return PowerTrace(times, quantized)

    def __repr__(self) -> str:
        return f"WallPlugMeter({self.spec.name}, gain={self._gain:.4f})"
