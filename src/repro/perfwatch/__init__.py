"""perf-watch: continuous benchmarking with recorded history.

The paper's argument is longitudinal — efficiency claims only mean
something against a recorded trajectory of the same fixed workload — and
this subsystem applies that discipline to the repository itself:

:mod:`~repro.perfwatch.registry`
    :class:`BenchScenario` + the :func:`scenario` decorator; every
    ``benchmarks/bench_*.py`` script registers its measurements here, and
    :func:`discover` loads them without pytest.
:mod:`~repro.perfwatch.schema`
    :class:`BenchRecord` — the structured, content-addressable result
    form (params, repeats, wall/CPU times, derived metrics, environment
    fingerprint, library version, absolute UTC timestamp).
:mod:`~repro.perfwatch.store`
    :class:`HistoryStore` — append-only object store plus the repo-root
    ``BENCH_<scenario>.json`` trajectory files.
:mod:`~repro.perfwatch.baseline`
    Bootstrap-CI baselines and the improved/stable/regressed/no-baseline
    verdict (no naive thresholds).
:mod:`~repro.perfwatch.report`
    Terminal trend report, record comparison, and the ``--json`` payload.
:mod:`~repro.perfwatch.runner`
    Executes a scenario into a record, traced through telemetry, with
    opt-in cProfile hotspots.

Surfaced on the CLI as ``tgi bench run | list | report | compare``; see
``docs/perfwatch.md``.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "baseline": (
            "MetricVerdict",
            "Verdict",
            "classify_record",
            "classify_value",
            "overall_verdict",
        ),
        "contexts": ("reset_shared_context", "shared_context"),
        "registry": (
            "TIERS",
            "BenchScenario",
            "clear_registry",
            "default_bench_dir",
            "discover",
            "get_scenario",
            "register",
            "scenario",
            "scenarios",
        ),
        "report": (
            "ScenarioReport",
            "build_report",
            "render_compare",
            "render_report",
            "render_trajectory",
            "report_to_dict",
        ),
        "runner": ("run_scenario",),
        "schema": (
            "HIGHER_IS_BETTER",
            "LOWER_IS_BETTER",
            "PERFWATCH_VERSION",
            "BenchRecord",
            "MetricSpec",
            "MetricValue",
            "canonical_json",
            "environment_fingerprint",
            "record_from_dict",
            "record_key",
            "record_to_dict",
            "utc_timestamp",
        ),
        "store": ("DEFAULT_HISTORY_DIR", "HistoryStore", "trajectory_path"),
    },
)
