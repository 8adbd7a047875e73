"""Analysis tooling: correlation, central tendencies, scaling, sensitivity.

Supports the paper's evaluation (Section IV): the Pearson correlation
coefficient used for Table II (:mod:`~repro.analysis.correlation`), the
means studied by the related work it cites (Smith 1988, John 2004;
:mod:`~repro.analysis.stats`), characterization of energy-efficiency scaling
curves (:mod:`~repro.analysis.scaling`), and the weight-space sensitivity
study the paper lists as future work (:mod:`~repro.analysis.sensitivity`).
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "correlation": ("pearson", "spearman", "correlation_matrix"),
        "bootstrap": (
            "BootstrapCI",
            "bootstrap_mean_ci",
            "bootstrap_pearson_ci",
            "jackknife_pearson",
        ),
        "reference_sensitivity": (
            "tgi_under_reference",
            "ranking_under_references",
            "find_reference_flip",
        ),
        "pareto": ("ParetoPoint", "pareto_front", "dominated_by"),
        "stats": (
            "arithmetic_mean",
            "geometric_mean",
            "harmonic_mean",
            "weighted_arithmetic_mean",
            "weighted_harmonic_mean",
            "weighted_geometric_mean",
        ),
        "scaling": ("CurveShape", "characterize_curve", "relative_range"),
        "sensitivity": (
            "WeightSensitivity",
            "dominant_benchmark",
            "sweep_weight_simplex",
        ),
        "tables": ("render_table",),
    },
)
