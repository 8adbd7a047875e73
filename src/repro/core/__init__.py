"""The Green Index (TGI) — the paper's contribution.

The pipeline follows Section II's four-step algorithm:

1. :mod:`~repro.core.efficiency` — per-benchmark energy efficiency
   ``EE_i = performance_i / power_i`` (Eq. 2), pluggable so TGI can run on
   other efficiency metrics such as inverse EDP
   (:class:`~repro.core.efficiency.InverseEDP`);
2. :mod:`~repro.core.ree` — relative energy efficiency against a reference
   system, ``REE_i = EE_i / EE_ref,i`` (Eq. 3);
3. :mod:`~repro.core.weights` — weighting schemes with ``sum W_i = 1``:
   arithmetic mean (Eq. 6) and time/energy/power-weighted means
   (Eqs. 10-12);
4. :mod:`~repro.core.tgi` — ``TGI = sum W_i * REE_i`` (Eq. 4).

:mod:`~repro.core.ranking` provides SPEC-style ratings (Eq. 1) and
Green500-style system ranking; :mod:`~repro.core.properties` encodes the
"desired property" analysis of Section III (inverse proportionality to
energy, and the algebraic identities of Eqs. 13-15);
:mod:`~repro.core.report` renders results as text tables.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "efficiency": (
            "EfficiencyMetric",
            "PerformancePerWatt",
            "InverseEDP",
            "energy_efficiency",
        ),
        "ree": ("ReferenceSet", "relative_efficiency"),
        "weights": (
            "WeightingScheme",
            "ArithmeticMeanWeights",
            "TimeWeights",
            "EnergyWeights",
            "PowerWeights",
            "CustomWeights",
            "renormalize_weights",
            "validate_weights",
        ),
        "tgi": ("TGICalculator", "TGIResult", "TGISeries", "tgi_from_components"),
        "alternatives": ("GeometricTGICalculator", "geometric_tgi_from_components"),
        "workload_weights": (
            "ApplicationProfile",
            "WorkloadWeights",
            "CFD_PROFILE",
            "GENOMICS_PROFILE",
            "CHECKPOINT_HEAVY_PROFILE",
            "DENSE_LINALG_PROFILE",
        ),
        "ranking": ("RankedSystem", "rank_systems", "spec_rating"),
        "properties": (
            "inverse_energy_property_holds",
            "time_weighted_identity",
            "energy_weighted_identity",
            "power_weighted_identity",
        ),
        "report": ("format_suite_result", "format_tgi_result", "format_ranking"),
    },
)
