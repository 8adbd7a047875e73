"""Analysis tooling: correlation, uncertainty, scaling, sensitivity.

Supports the paper's evaluation (Section IV): the Pearson correlation
coefficient used for Table II (:mod:`~repro.analysis.correlation`) and its
bootstrap/jackknife uncertainty (:mod:`~repro.analysis.bootstrap`),
characterization of energy-efficiency scaling curves
(:mod:`~repro.analysis.scaling`), and the weight-space sensitivity study the
paper lists as future work (:mod:`~repro.analysis.sensitivity`).
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "correlation": ("pearson", "spearman"),
        "bootstrap": (
            "BootstrapCI",
            "bootstrap_mean_ci",
            "bootstrap_pearson_ci",
            "jackknife_pearson",
        ),
        "pareto": ("ParetoPoint", "dominated_by"),
        "scaling": ("CurveShape", "characterize_curve", "relative_range"),
        "sensitivity": (
            "WeightSensitivity",
            "dominant_benchmark",
            "sweep_weight_simplex",
        ),
        "tables": ("render_table",),
    },
)
