"""repro — The Green Index (TGI) for HPC systems, with a simulated substrate.

A production-quality reproduction of Subramaniam & Feng, *The Green Index:
A Metric for Evaluating System-Wide Energy Efficiency in HPC Systems*
(IPDPSW 2012).

Quick tour
----------
>>> from repro import presets, ClusterExecutor, BenchmarkSuite
>>> from repro import HPLBenchmark, StreamBenchmark, IOzoneBenchmark
>>> from repro import ReferenceSet, TGICalculator
>>> fire = presets.fire()
>>> executor = ClusterExecutor(fire, rng=7)
>>> suite = BenchmarkSuite([
...     HPLBenchmark(sizing=("fixed", 36288)),
...     StreamBenchmark(target_seconds=45, intensity=0.4),
...     IOzoneBenchmark(target_seconds=45),
... ])
>>> result = suite.run(executor, cores=128)

Build a reference from another system's run, then compute TGI:

>>> # reference, ref_result = ...  (see repro.experiments.build_reference)
>>> # tgi = TGICalculator(reference).compute(result)

Subpackages
-----------
:mod:`repro.cluster`
    Hardware specifications and the paper's Fire/SystemG presets.
:mod:`repro.power`
    Component power models, PSU curves, the Watts Up? PRO meter model,
    power traces, cooling (centre-wide extension), DVFS.
:mod:`repro.sim`
    Discrete-event execution of phase-based MPI workloads on a metered
    cluster.
:mod:`repro.perfmodels`
    Analytic performance models (HPL, STREAM, IOzone, Amdahl, roofline).
:mod:`repro.kernels`
    Real host kernels validating the models at laptop scale.
:mod:`repro.benchmarks`
    The benchmark suite and scaling sweeps.
:mod:`repro.core`
    The TGI metric: EE, REE, weighting schemes, TGI, EDP, ranking,
    desired-property analysis, reports.
:mod:`repro.analysis`
    Pearson/Spearman correlation, means, curve characterization, weight
    sensitivity.
:mod:`repro.experiments`
    Drivers regenerating every table and figure of the paper.
:mod:`repro.telemetry`
    Observability: span tracing, a metrics registry with Prometheus
    export, and the Eq. 10-12 energy-attribution view.
:mod:`repro.faults`
    Deterministic fault injection (transient job failures, meter dropout,
    node crashes) exercising the campaign layer's containment, retry,
    and partial-TGI degradation paths.
"""

from . import _lazy

__version__ = "1.10.0"

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "cluster": ("presets", "ClusterSpec", "NodeSpec"),
        "benchmarks": (
            "Benchmark",
            "BenchmarkResult",
            "BenchmarkSuite",
            "HPLBenchmark",
            "StreamBenchmark",
            "IOzoneBenchmark",
            "ScalingSweep",
            "SweepResult",
            "SuiteResult",
        ),
        "core": (
            "ReferenceSet",
            "TGICalculator",
            "TGIResult",
            "TGISeries",
            "ArithmeticMeanWeights",
            "TimeWeights",
            "EnergyWeights",
            "PowerWeights",
            "CustomWeights",
            "rank_systems",
            "tgi_from_components",
        ),
        "power": ("NodePowerModel", "PowerTrace", "WallPlugMeter"),
        "sim": ("ClusterExecutor",),
        "campaign": (
            "CampaignJob",
            "CampaignResult",
            "CampaignRunner",
            "ClusterRef",
            "ResultCache",
        ),
        "telemetry": ("TelemetrySession",),
        "fleet": ("FleetRanking", "FleetRankingPipeline", "evaluate_fleet"),
        "exceptions": ("ReproError", "CampaignExecutionError", "InjectedFault"),
        "faults": ("FaultPlan", "FaultInjector"),
    },
)
__all__.append("__version__")
