"""Each verb loads only what it runs; the lazy package roots keep every public name.

Every package root declares its exports in one table and imports a
submodule on first use (``repro/_lazy.py``), so what a path loads is what
its modules import.  Each path here runs in a fresh interpreter, because
the test process has long since imported everything:

* it imports what the matching ``perfbench`` workload's ``load()``
  imports, records ``sys.modules``, then runs one small op on the same
  code path;
* the modules listed for it must stay unloaded, and the op must import
  no ``repro`` module that set-up did not, so no cost moves from set-up
  into the op.

The public-surface checks compare against literals recorded while every
root still imported its whole subsystem, less the names deleted since: the
ambient journal and timeline-sink names (the writer and the timeline list
are now passed to the fault injector and the executor) and three scaling
laws nothing called (``amdahl_speedup``, ``gustafson_speedup``,
``karp_flatt_serial_fraction``).  To find what made a path heavy,
``PYTHONPATH=src python -X importtime -c "import repro.cli"`` prints each
import's cost and the module that asked for it.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Each package's ``__all__``, recorded while every root imported its whole
#: subsystem, less the 13 ambient journal/timeline names and the three
#: scaling laws deleted since.
PUBLIC = {
    "repro": (
        "ArithmeticMeanWeights Benchmark BenchmarkResult BenchmarkSuite "
        "CampaignExecutionError CampaignJob CampaignResult CampaignRunner "
        "ClusterExecutor ClusterRef ClusterSpec CustomWeights EnergyWeights "
        "FaultInjector FaultPlan FleetRanking FleetRankingPipeline HPLBenchmark "
        "IOzoneBenchmark InjectedFault NodePowerModel NodeSpec PowerTrace PowerWeights "
        "ReferenceSet ReproError ResultCache ScalingSweep StreamBenchmark SuiteResult "
        "SweepResult TGICalculator TGIResult TGISeries TelemetrySession TimeWeights "
        "WallPlugMeter __version__ evaluate_fleet presets rank_systems "
        "tgi_from_components"
    ),
    "repro.analysis": (
        "BootstrapCI CurveShape ParetoPoint WeightSensitivity arithmetic_mean "
        "bootstrap_mean_ci bootstrap_pearson_ci characterize_curve correlation_matrix "
        "dominant_benchmark dominated_by find_reference_flip geometric_mean "
        "harmonic_mean jackknife_pearson pareto_front pearson ranking_under_references "
        "relative_range render_table spearman sweep_weight_simplex tgi_under_reference "
        "weighted_arithmetic_mean weighted_geometric_mean weighted_harmonic_mean"
    ),
    "repro.benchmarks": (
        "Benchmark BenchmarkResult BenchmarkSuite EffectiveBandwidthBenchmark "
        "HPLBenchmark IOzoneBenchmark RandomAccessBenchmark ScalePoint ScalingSweep "
        "StreamBenchmark SuiteResult SweepResult run_sweep"
    ),
    "repro.campaign": (
        "CacheStats CampaignJob CampaignResult CampaignRunner ClusterRef "
        "InlineTransport JobOutcome MANIFEST_VERSION ProcessPoolTransport ResultCache "
        "WorkItem WorkResult WorkerTransport build_manifest cache_key canonical_json "
        "check_jobs execute_job execute_work_item fleet_jobs job_from_dict job_to_dict "
        "load_manifest manifest_core manifest_fingerprint paper_jobs payload_sweep "
        "run_cache_stats write_manifest"
    ),
    "repro.cluster": (
        "AcceleratorSpec CPUSpec ClusterSpec ERAS EraTemplate InterconnectSpec "
        "MemorySpec NodeSpec StorageKind StorageSpec Topology fat_tree_topology "
        "generate_cluster generate_fleet presets ring_topology star_topology"
    ),
    "repro.core": (
        "ApplicationProfile ArithmeticMeanWeights CFD_PROFILE CHECKPOINT_HEAVY_PROFILE "
        "CustomWeights DENSE_LINALG_PROFILE EfficiencyMetric EnergyWeights "
        "GENOMICS_PROFILE GeometricTGICalculator InverseEDP PerformancePerWatt "
        "PowerWeights RankedSystem ReferenceSet TGICalculator TGIResult TGISeries "
        "TimeWeights WeightingScheme WorkloadWeights edp_efficiency energy_efficiency "
        "energy_weighted_identity format_ranking format_suite_result format_tgi_result "
        "geometric_tgi_from_components inverse_energy_property_holds "
        "power_weighted_identity rank_systems relative_efficiency renormalize_weights "
        "spec_rating tgi_from_components time_weighted_identity validate_weights"
    ),
    "repro.experiments": (
        "EXPERIMENTS ExperimentConfig PAPER_CONFIG SharedContext build_executor "
        "build_reference build_suite config_from_dict config_to_dict execute_experiment "
        "get_experiment run_all run_experiment"
    ),
    "repro.fleet": (
        "FLEET_BENCHMARKS FleetColumns FleetDiagnostics FleetEvaluation FleetMember "
        "FleetRanking FleetRankingPipeline FleetRankingRow FleetScores evaluate_fleet "
        "generated_fleet_members is_batchable parse_weight_spec require_batchable"
    ),
    "repro.journal": (
        "Anomaly CrashingJournalWriter EVENT_TYPES JOURNAL_VERSION JobState "
        "JournalFollower JournalReport JournalWriter RUN_STATUSES RunProgress RunState "
        "ScanResult SimulatedCrash TRACE_FORMATS analyze_state apply_event "
        "attempt_table check_event chrome_trace journal_digest journal_trace_events "
        "new_run_id now_mono progress_from_state progress_to_dict read_events "
        "render_progress render_report replay replay_journal report_to_dict "
        "rusage_delta rusage_fields scan_journal telemetry_trace_events "
        "validate_event validate_events validate_trace"
    ),
    "repro.kernels": (
        "IOKernelResult LinalgKernelResult StreamKernelResult Timer "
        "file_write_bandwidth lu_solve_gflops stream_kernels triad_bandwidth"
    ),
    "repro.perfmodels": (
        "EffectiveBandwidthModel EffectiveBandwidthPrediction HPLModel HPLPrediction "
        "IOzoneModel IOzonePrediction RandomAccessModel RandomAccessPrediction "
        "RooflineModel StreamModel StreamPrediction arithmetic_intensity "
        "parallel_efficiency"
    ),
    "repro.perfwatch": (
        "BenchRecord BenchScenario DEFAULT_HISTORY_DIR HIGHER_IS_BETTER HistoryStore "
        "LOWER_IS_BETTER MetricSpec MetricValue MetricVerdict PERFWATCH_VERSION "
        "ScenarioReport TIERS Verdict build_report canonical_json classify_record "
        "classify_value clear_registry default_bench_dir discover "
        "environment_fingerprint get_scenario overall_verdict record_from_dict "
        "record_key record_to_dict register render_compare render_report "
        "render_trajectory report_to_dict reset_shared_context run_scenario scenario "
        "scenarios shared_context trajectory_path utc_timestamp"
    ),
    "repro.power": (
        "AcceleratorPowerModel COPCooling CPUPowerModel CoolingModel DVFSModel "
        "DVFSOperatingPoint FixedPUECooling IDEAL_PSU MemoryPowerModel MeterSpec "
        "NICPowerModel NodePowerModel NodeUtilization NodeUtilizationArray PSUModel "
        "PiecewisePower PowerTrace StoragePowerModel WATTS_UP_PRO WallPlugMeter "
        "average_power energy_delay_product energy_to_solution"
    ),
    "repro.sim": (
        "ClusterExecutor CommunicationModel IntervalArrays Phase PhaseKind Placement "
        "RankProgram RunRecord SimulationEngine barrier breadth_first_placement "
        "comm_phase compute_phase idle_phase io_phase memory_phase packed_placement"
    ),
    "repro.telemetry": (
        "AttributionRow Counter DEFAULT_TIME_BUCKETS_S Gauge Histogram Hotspot "
        "MetricsRegistry NULL_TRACER NullTracer Span TELEMETRY_VERSION TelemetrySession "
        "Tracer activate active attribution_to_dicts campaign_attribution count current "
        "deactivate gauge observe profile_callable profile_hotspots render_attribution "
        "render_slowest render_span_tree slowest_spans span span_from_dict span_to_dict "
        "suite_attribution traced use"
    ),
    "repro.timeline": (
        "AuditReport DEFAULT_THRESHOLDS DEFAULT_TOLERANCE FleetAggregator "
        "RunTimeline TIMELINE_SCHEMA_VERSION TimelineCapture artifact_path "
        "audit_run_timeline build_run_timeline discover_artifacts load_artifacts "
        "lttb_indices minmax_bins read_job_artifact render_dashboard run_summary "
        "scan_run write_job_artifact"
    ),
}

#: The submodules each package held as attributes after ``import repro`` then.
SUBMODULES = {
    "repro": (
        "analysis benchmarks campaign cluster core exceptions experiments faults fleet "
        "journal perfmodels power presets rng serialization sim telemetry timeline "
        "units validation"
    ),
    "repro.analysis": (
        "bootstrap correlation pareto reference_sensitivity scaling sensitivity stats "
        "tables"
    ),
    "repro.benchmarks": "base hpl iozone network randomaccess runner stream suite",
    "repro.campaign": "cache jobs manifest runner",
    "repro.cluster": (
        "accelerator cluster cpu generator memory nic node presets storage topology"
    ),
    "repro.core": (
        "alternatives edp efficiency properties ranking ree report tgi weights "
        "workload_weights"
    ),
    "repro.experiments": (
        "capability config curves registry runner tables tgi_curves uncertainty"
    ),
    "repro.fleet": "columns evaluate pipeline",
    "repro.journal": "events progress reader report trace_export writer",
    "repro.perfmodels": "amdahl hpl iozone network randomaccess roofline stream",
    "repro.power": "components cooling dvfs energy meter node_power psu trace",
    "repro.sim": "communication engine executor placement workload",
    "repro.telemetry": "attribution metrics profiling render session spans",
    "repro.timeline": "aggregate audit dashboard downsample lenses model",
}

_PROBE = """
import json, sys
{setup}
setup = set(sys.modules)
{op}
print(json.dumps({{"setup": sorted(setup), "op": sorted(set(sys.modules) - setup)}}))
"""

_CAMPAIGN_OP = """
import tempfile
from pathlib import Path
with tempfile.TemporaryDirectory() as tmp:
    jobs = paper_jobs(PAPER_CONFIG) + fleet_jobs(2)
    for leg in ("cold", "warm"):
        runner = CampaignRunner(
            cache=ResultCache(Path(tmp, "cache")), journal=Path(tmp, leg + ".jsonl")
        )
        assert runner.run(jobs).ok
"""

#: path -> (set-up imports, one op on the same code path, must not load).
PATHS = {
    "paper": (
        "from repro.experiments.config import PAPER_CONFIG\n"
        "from repro.experiments.runner import run_all\n"
        "import repro.experiments.registry",
        "run_all(PAPER_CONFIG)",
        (
            "repro.campaign",
            "repro.fleet",
            "repro.faults",
            "repro.journal",
            "repro.perfwatch",
            "repro.kernels",
            "repro.serialization",
            "repro.timeline",
            "repro.telemetry.profiling",
            "repro.telemetry.attribution",
            "repro.telemetry.render",
            "multiprocessing",
            "concurrent.futures.process",
        ),
    ),
    "fleet": (
        "from repro.fleet.pipeline import FleetRankingPipeline, generated_fleet_members",
        "FleetRankingPipeline().rank(generated_fleet_members(50))",
        (
            "repro.campaign.runner",
            "repro.experiments.runner",
            "repro.journal",
            "repro.timeline",
            "multiprocessing",
        ),
    ),
    "campaign": (
        "from repro.campaign.cache import ResultCache\n"
        "from repro.campaign.jobs import fleet_jobs, paper_jobs\n"
        "from repro.campaign.runner import CampaignRunner\n"
        "from repro.experiments.config import PAPER_CONFIG",
        _CAMPAIGN_OP,
        (
            "repro.fleet",
            "repro.journal.reader",
            "repro.journal.report",
            "repro.timeline.dashboard",
            "multiprocessing",
            # NumPy's ``np.unique`` and ``np.quantile`` import it on first
            # use; nothing a campaign runs calls either.
            "numpy.ma",
        ),
    ),
    "cli": (
        "import repro.cli",
        "",
        (
            "repro.campaign.runner",
            "repro.fleet",
            "repro.perfwatch",
            "repro.timeline.dashboard",
            "multiprocessing",
        ),
    ),
    # A fault injector records to the writer it is given, so it needs no
    # journal module of its own.
    "faults": ("import repro.faults", "", ("repro.journal",)),
}


def _python(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@lru_cache(maxsize=None)
def _modules(path: str) -> dict:
    setup, op, _ = PATHS[path]
    return _python(_PROBE.format(setup=setup, op=op))


def _under(modules, prefixes):
    return sorted(m for m in modules for p in prefixes if m == p or m.startswith(p + "."))


class TestLayering:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_path_leaves_cold_modules_unloaded(self, path):
        loaded = _modules(path)
        assert _under(loaded["setup"] + loaded["op"], PATHS[path][2]) == []

    @pytest.mark.parametrize("path", ["paper", "fleet", "campaign"])
    def test_op_imports_no_repro_module(self, path):
        assert _under(_modules(path)["op"], ["repro"]) == []


_SURFACE = """
import json, sys
import repro
public, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = {}
for pkg in public:
    node = repro
    for part in pkg.split(".")[1:]:
        node = getattr(node, part)
    listed = set(dir(node))
    missing = [n for n in public[pkg] + submodules.get(pkg, []) if not hasattr(node, n)]
    star = {}
    exec(f"from {pkg} import *", star)
    star.pop("__builtins__")
    try:
        node.no_such_name
        unknown = None
    except AttributeError as exc:
        unknown = str(exc)
    out[pkg] = {
        "all": sorted(node.__all__),
        "dir_lacks": sorted(set(node.__all__) - listed),
        "missing": missing,
        "star": sorted(star),
        "unknown": unknown,
        "hasattr_unknown": hasattr(node, "no_such_name"),
    }
out["__main__"] = [hasattr(repro, "__main__"), "repro.__main__" in sys.modules]
print(json.dumps(out))
"""


@lru_cache(maxsize=None)
def _surface() -> dict:
    public = {pkg: names.split() for pkg, names in PUBLIC.items()}
    submodules = {pkg: names.split() for pkg, names in SUBMODULES.items()}
    return _python(_SURFACE, json.dumps(public), json.dumps(submodules))


class TestPublicSurface:
    @pytest.mark.parametrize("pkg", sorted(PUBLIC))
    def test_every_recorded_name_resolves_by_attribute_path(self, pkg):
        assert _surface()[pkg]["missing"] == []

    @pytest.mark.parametrize("pkg", sorted(PUBLIC))
    def test_all_is_the_recorded_set(self, pkg):
        assert _surface()[pkg]["all"] == sorted(PUBLIC[pkg].split())

    @pytest.mark.parametrize("pkg", sorted(PUBLIC))
    def test_star_import_binds_exactly_all(self, pkg):
        surface = _surface()[pkg]
        assert surface["star"] == surface["all"]

    @pytest.mark.parametrize("pkg", sorted(PUBLIC))
    def test_dir_lists_all(self, pkg):
        assert _surface()[pkg]["dir_lacks"] == []

    @pytest.mark.parametrize("pkg", sorted(PUBLIC))
    def test_unknown_name_raises_the_standard_attribute_error(self, pkg):
        surface = _surface()[pkg]
        assert surface["unknown"] == f"module {pkg!r} has no attribute 'no_such_name'"
        assert surface["hasattr_unknown"] is False

    def test_dunder_probe_never_imports_a_submodule(self):
        # ``repro.__main__`` runs the CLI on import.
        assert _surface()["__main__"] == [False, False]


class TestLazyExports:
    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        root = tmp_path / "lazypkg"
        root.mkdir()
        (root / "__init__.py").write_text(
            "from repro import _lazy\n"
            "__getattr__, __dir__, __all__ = _lazy.exports(__name__, {'good': ('VALUE',)})\n"
        )
        (root / "good.py").write_text("VALUE = 1\n")
        (root / "broken.py").write_text("import no_such_dependency\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            yield importlib.import_module("lazypkg")
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
                del sys.modules[name]

    def test_first_access_imports_and_caches(self, package):
        assert "lazypkg.good" not in sys.modules
        assert package.VALUE == 1
        assert vars(package)["VALUE"] == 1

    def test_a_broken_submodule_raises_its_own_error(self, package):
        with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
            package.broken
