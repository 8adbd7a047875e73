"""Alternative aggregators: the geometric-mean Green Index.

TGI (Eq. 4) is a weighted *arithmetic* mean of REE ratios.  The means
literature the paper cites (Smith 1988; John 2004) argues that ratios want
a *geometric* mean, because only the GM makes comparisons independent of
the normalization basis.  This module provides that variant and states the
theorem the tests verify:

**Reference invariance.**  For systems A, B and any references R, R'::

    GTGI_R(A) / GTGI_R(B) = prod_i (EE_A,i / EE_B,i)^{W_i}

The reference cancels, so the *ordering* (and even the ratio) of any two
systems under geometric TGI is the same under every reference — the
arithmetic TGI's pathology, where a reference weak on one subsystem can
invert two systems' order (Smith 1988), cannot occur.  The price: GTGI
loses the arithmetic mean's "work per total joule" reading (Eq. 8) and is
no longer inversely proportional to any single benchmark's energy, only
to their weighted geometric blend.

The paper's arithmetic choice is kept as the default everywhere; this
module exists to make the trade-off executable.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..benchmarks.suite import SuiteResult
from ..exceptions import MetricError
from .efficiency import EfficiencyMetric, PerformancePerWatt
from .ree import ReferenceSet
from .weights import ArithmeticMeanWeights, WeightingScheme, validate_weights

__all__ = ["geometric_tgi_from_components", "GeometricTGICalculator"]


def geometric_tgi_from_components(
    ree: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """``prod_i REE_i^{W_i}`` — the weighted geometric mean of the REEs."""
    if set(ree) != set(weights):
        raise MetricError(
            f"REE covers {sorted(ree)} but weights cover {sorted(weights)}"
        )
    validate_weights(dict(weights))
    log_sum = 0.0
    for name, value in ree.items():
        if value <= 0:
            raise MetricError(f"REE for {name!r} must be > 0, got {value!r}")
        log_sum += weights[name] * math.log(value)
    return math.exp(log_sum)


class GeometricTGICalculator:
    """Drop-in geometric variant of :class:`~repro.core.tgi.TGICalculator`.

    Only :meth:`compute_value` is provided (the ingredients view is the
    same as the arithmetic calculator's); use it when reference-invariant
    *orderings* matter more than the energy-proportionality reading.
    """

    def __init__(
        self,
        reference: ReferenceSet,
        *,
        weighting: Optional[WeightingScheme] = None,
        metric: Optional[EfficiencyMetric] = None,
    ):
        self.reference = reference
        self.weighting = weighting or ArithmeticMeanWeights()
        self.metric = metric or PerformancePerWatt()

    def compute_value(self, suite_result: SuiteResult) -> float:
        """Geometric TGI of one suite run."""
        self.reference.check_covers(suite_result.names)
        ree: Dict[str, float] = {}
        for result in suite_result.results:
            ee = self.metric.value(result)
            ree[result.benchmark] = self.reference.relative(result.benchmark, ee)
        weights = self.weighting.weights(suite_result)
        return geometric_tgi_from_components(ree, weights)
