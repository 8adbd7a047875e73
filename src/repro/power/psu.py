"""Power-supply efficiency model.

The wall-plug meter in the paper measures *AC* power; the components draw
*DC*.  A PSU's efficiency depends on its load fraction — poor at very light
load, peaking around 50 %, sagging slightly toward 100 % — which matters
here because an idle cluster sits in the inefficient left part of the curve.

:class:`PSUModel` interpolates a measured (load-fraction, efficiency) curve;
the default points follow a typical non-80-PLUS server supply of the era
modelled.  :data:`IDEAL_PSU` (efficiency 1 everywhere) is provided for
ablations isolating the PSU's contribution to wall power.

Both conversions are elementwise: one DC draw or a timeline of them, on
one supply or — with an array ``rated_watts`` — one supply per system, as
the batched fleet evaluator prices a whole fleet at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import PowerModelError

__all__ = ["PSUModel", "DEFAULT_EFFICIENCY_CURVE", "IDEAL_PSU"]

#: (load fraction, efficiency) points for a typical late-2000s server PSU.
DEFAULT_EFFICIENCY_CURVE: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.60),
    (0.10, 0.75),
    (0.20, 0.83),
    (0.50, 0.87),
    (0.80, 0.86),
    (1.00, 0.84),
)


@dataclass(frozen=True)
class PSUModel:
    """Load-dependent AC->DC conversion.

    Parameters
    ----------
    rated_watts:
        DC output the supply is rated for, or an array of per-system
        ratings.  Node load fraction is ``dc_watts / rated_watts`` (clamped
        to [0, 1] — drawing beyond the rating is treated as full load
        rather than an error because the models occasionally overshoot
        nominal ceilings by a watt or two).
    curve:
        Monotone-in-load (load_fraction, efficiency) pairs; efficiency is
        linearly interpolated between points.
    """

    rated_watts: float | np.ndarray
    curve: Tuple[Tuple[float, float], ...] = DEFAULT_EFFICIENCY_CURVE

    def __post_init__(self) -> None:
        rated = np.asarray(self.rated_watts, dtype=float)
        if not np.all(np.isfinite(rated) & (rated > 0)):
            raise PowerModelError(
                f"rated_watts must be finite and > 0, got {self.rated_watts!r}"
            )
        if len(self.curve) < 2:
            raise PowerModelError("efficiency curve needs at least 2 points")
        loads = [p[0] for p in self.curve]
        effs = [p[1] for p in self.curve]
        if loads != sorted(loads):
            raise PowerModelError("efficiency curve loads must be sorted ascending")
        if loads[0] != 0.0 or loads[-1] != 1.0:
            raise PowerModelError("efficiency curve must span load fractions 0..1")
        for eff in effs:
            if not 0 < eff <= 1:
                raise PowerModelError(f"efficiency {eff} outside (0, 1]")
        # Cache the interpolation grid once: efficiency() sits on the hot
        # power-integration path and must not rebuild arrays per call.
        object.__setattr__(self, "_loads", np.array(loads, dtype=float))
        object.__setattr__(self, "_effs", np.array(effs, dtype=float))

    def efficiency(self, dc_watts):
        """Conversion efficiency at the given DC draw (elementwise)."""
        dc = np.asarray(dc_watts, dtype=float)
        if (dc < 0).any():
            raise PowerModelError(f"dc_watts must be >= 0, got {dc.min()}")
        load = np.minimum(dc / self.rated_watts, 1.0)
        return _scalar_or_array(np.interp(load, self._loads, self._effs))

    def wall_watts(self, dc_watts):
        """AC power drawn from the outlet for the given DC load (elementwise).

        A zero draw is zero wall power.  Numbers in, float out.
        """
        dc = np.asarray(dc_watts, dtype=float)
        return _scalar_or_array(np.where(dc == 0.0, 0.0, dc / self.efficiency(dc)))


def _scalar_or_array(values: np.ndarray):
    """A 0-d result as a plain float (it serializes like one), else the array."""
    return values if values.ndim else float(values)


#: Lossless supply for ablation studies.
IDEAL_PSU = PSUModel(rated_watts=1.0, curve=((0.0, 1.0), (1.0, 1.0)))
