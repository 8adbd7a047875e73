"""Command-line interface.

::

    tgi list                     # available experiments
    tgi run fig5                 # regenerate one figure/table
    tgi run all                  # regenerate everything
    tgi rank                     # TGI ranking of the preset systems
    tgi specs                    # print the preset system spec sheets
    tgi campaign --workers 4     # parallel, cached measurement campaign
    tgi campaign --journal r.jl  # ... with the flight recorder armed
    tgi campaign --timeline tl/  # ... with per-job power timelines captured
    tgi campaign --resume r.jl --cache-dir c/   # crash-resume a journaled run
    tgi fleet rank --count 500   # Green500-style list of a generated fleet
    tgi watch r.jl               # live progress of an in-flight journaled run
    tgi tail r.jl -f             # stream journal events as they arrive
    tgi journal report r.jl      # post-run anomaly report (stragglers, storms)
    tgi journal validate r.jl    # schema-check every journal event
    tgi journal summary r.jl --json   # final progress snapshot, machine-readable
    tgi dashboard --timeline tl/ -o fleet.html  # self-contained fleet dashboard
    tgi trace                    # span tree + hot spots of an instrumented run
    tgi trace export --journal r.jl -o t.json   # Perfetto / chrome://tracing
    tgi bench run --quick        # perf-watch: run + record the quick tier
    tgi bench report --json      # regression verdicts from recorded history

Output contract: the machine-readable product of a command (tables,
fingerprints, traces, reports) goes to stdout; progress and bookkeeping go
to stderr and are silenced by the global ``--quiet`` flag.

Each verb is one ``_cmd_*(args) -> int`` handler bound to its subparser.
An option several verbs share is declared once, in a help-less parent
parser (``build_parser`` lists them all).  The recorder outputs are
``--journal PATH`` (run, campaign, fleet rank), which arms the append-only
flight recorder of ``docs/observability.md``; ``--telemetry PATH`` (those
three and bench run), which writes a JSON trace with a ``.prom``
Prometheus dump beside it; and ``--timeline DIR`` (campaign, fleet rank,
which also share ``--workers/--cache-dir`` and ``--era/--fleet-seed``).
In ``dashboard`` and ``trace export`` the three recorder option names
denote input files.

Also reachable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from . import __version__
from . import journal as jrnl
from . import telemetry as tele
from .analysis.tables import render_table
from .benchmarks import BenchmarkSuite
from .cluster import presets
from .core import TGICalculator, format_ranking, rank_systems
from .exceptions import ReproError
from .experiments import (
    EXPERIMENTS,
    PAPER_CONFIG,
    SharedContext,
    build_suite,
    get_experiment,
)
from .sim import ClusterExecutor
from .units import format_bytes, format_flops, format_power

__all__ = ["main", "build_parser", "Console"]

#: ``rank --profile`` flags -> application profiles in :mod:`repro.core`.
_PROFILE_BY_FLAG = {
    "cfd": "CFD_PROFILE",
    "genomics": "GENOMICS_PROFILE",
    "checkpoint": "CHECKPOINT_HEAVY_PROFILE",
    "dense-linalg": "DENSE_LINALG_PROFILE",
}


class Console:
    """Routes CLI output: results to stdout, status to stderr.

    ``out`` carries the command's product — what a pipe or redirect should
    capture.  ``status`` carries progress/bookkeeping and is dropped under
    ``--quiet``.  ``error`` always reaches stderr.
    """

    def __init__(self, *, quiet: bool = False):
        self.quiet = quiet

    def out(self, text: str = "") -> None:
        print(text)

    def status(self, text: str = "") -> None:
        if not self.quiet:
            print(text, file=sys.stderr)

    def error(self, text: str) -> None:
        print(text, file=sys.stderr)


#: The process-wide console; ``main`` configures quietness from the flags.
_console = Console()


def _json_out(payload) -> None:
    """Print a ``--json`` payload: pure JSON on stdout, nothing else.

    Every machine-readable mode (``journal report --json``, ``journal
    summary --json``, ``bench report --json``) goes through here so the
    contract stays uniform: stdout parses as one JSON document; status and
    warnings ride stderr only.
    """
    _console.out(json.dumps(payload, indent=2, sort_keys=True))


def _leaf(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Register one verb: its subparser, bound to its ``(args) -> int`` handler."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="tgi",
        description="The Green Index (TGI) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status output on stderr (results still print to stdout)",
    )

    # Options shared by several verbs, each declared once; a verb takes a
    # group by naming it in ``parents=``.
    shared = functools.partial(argparse.ArgumentParser, add_help=False)
    journal_out = shared()
    journal_out.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="arm the flight recorder: append lifecycle events to this JSONL "
        "file (follow live with `tgi watch PATH`)",
    )
    telemetry_out = shared()
    telemetry_out.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="collect spans/metrics and write the telemetry JSON here "
        "(Prometheus text lands beside it with a .prom suffix)",
    )
    timeline_out = shared()
    timeline_out.add_argument(
        "--timeline",
        default=None,
        metavar="DIR",
        help="capture per-job power timelines into DIR as "
        "<job>.timeline.json artifacts (render with `tgi dashboard`)",
    )
    execution = shared()
    execution.add_argument(
        "--workers", type=int, default=1, help="process-pool width (1 = serial)"
    )
    execution.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (omit to disable caching)",
    )
    fleet_generation = shared()
    fleet_generation.add_argument(
        "--era",
        choices=("2008", "2011", "2015", "2021"),
        default="2011",
        help="era template for the generated fleet",
    )
    fleet_generation.add_argument(
        "--fleet-seed", type=int, default=20110615, help="fleet generation seed"
    )
    system = shared()
    system.add_argument(
        "--system",
        choices=presets.__all__,
        default="fire",
        help="preset system to measure",
    )
    cores = shared()
    cores.add_argument(
        "--cores",
        type=int,
        default=0,
        help="MPI ranks per system (default: each system's full machine)",
    )
    journal_in = shared()
    journal_in.add_argument("journal", help="journal path (as passed to --journal)")
    follow = shared(parents=[journal_in])
    follow.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval (default: 0.5)",
    )
    follow.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="stop following after this long (0 = follow until run.stop)",
    )
    as_json = shared()
    as_json.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout (status stays on stderr)",
    )
    history = shared()
    history.add_argument(
        "--history",
        default=None,
        metavar="DIR",
        help="history store directory (default: .perfwatch)",
    )
    bench_dir = shared()
    bench_dir.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="directory of bench_*.py scripts to discover (default: ./benchmarks)",
    )
    output = shared()
    output.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the result here (default: stdout)",
    )
    scenario = shared()
    scenario.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="ID",
        help="only this scenario (repeatable; overrides `bench run --quick`)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "list", _cmd_list, help="list available experiments")

    run = _leaf(
        sub, "run", _cmd_run, parents=[telemetry_out, journal_out],
        help="run an experiment (or 'all')",
    )
    run.add_argument("experiment", help="experiment id (fig2..fig6, table1, table2) or 'all'")
    run.add_argument(
        "--plot", action="store_true", help="also render figure series as ASCII charts"
    )

    rank = _leaf(
        sub, "rank", _cmd_rank, parents=[cores], help="rank the preset systems by TGI"
    )
    rank.add_argument(
        "--profile",
        choices=tuple(_PROFILE_BY_FLAG),
        default=None,
        help="weight the suite for an application profile instead of equal weights",
    )

    _leaf(sub, "specs", _cmd_specs, help="print the preset system spec sheets")

    suite = _leaf(
        sub, "suite", _cmd_suite, parents=[system, cores],
        help="run the suite on one preset system and print the measurements",
    )
    suite.add_argument(
        "--breakdown", action="store_true", help="also print the energy attribution"
    )

    _leaf(
        sub, "sensitivity", _cmd_sensitivity,
        help="weight-simplex sensitivity of TGI at full scale",
    )

    archive = _leaf(
        sub, "archive", _cmd_archive,
        help="run the calibrated campaign and save it as JSON",
    )
    archive.add_argument("output", help="path of the JSON archive to write")

    campaign = _leaf(
        sub,
        "campaign",
        _cmd_campaign,
        parents=[execution, fleet_generation, telemetry_out, journal_out, timeline_out],
        help="run a measurement campaign through the parallel executor",
    )
    campaign.add_argument(
        "--manifest", default=None, help="write the JSON run manifest to this path"
    )
    campaign.add_argument(
        "--fleet",
        type=int,
        default=0,
        help="also measure N generated machines at full scale",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts granted to a failing job (seeded exponential backoff)",
    )
    campaign.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base backoff delay between attempts (0 = retry immediately)",
    )
    policy = campaign.add_mutually_exclusive_group()
    policy.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        help="finish surviving jobs when one fails (exit code 3 reports the damage)",
    )
    policy.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the campaign on the first exhausted job (default)",
    )
    campaign.set_defaults(keep_going=False)
    campaign.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="JOB:KIND[:VALUE]",
        help="inject a deterministic fault into JOB; KIND is transient[:N], "
        "flaky[:P], meter-dropout[:P], node-crash[:P], or benchmark-crash[:P]; "
        "repeatable, multiple specs for one job compose into one plan",
    )
    campaign.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the injected-fault draws (fixed seed = fixed fault pattern)",
    )
    campaign.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="resume a crashed campaign from its journal: replay it, skip "
        "jobs already completed and recoverable from --cache-dir, re-schedule "
        "the remainder, and extend the same journal (requires --cache-dir)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="batched cross-system fleet evaluation and ranking",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    f_rank = _leaf(
        fleet_sub,
        "rank",
        _cmd_fleet_rank,
        parents=[execution, fleet_generation, telemetry_out, journal_out, timeline_out],
        help="rank a generated fleet Green500-style: MFLOPS/W vs TGI",
    )
    f_rank.add_argument(
        "--count", type=int, default=100, help="fleet size (generated systems)"
    )
    f_rank.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help='benchmark weights, e.g. "HPL=0.5,STREAM=0.25,IOzone=0.25" '
        "(normalized to sum to one; default equal weights)",
    )
    f_rank.add_argument(
        "--reference",
        default="system_g:16",
        metavar="PRESET[:NODES]",
        help="reference machine preset, optionally with a node-count "
        "override (default system_g:16, the Green500-style example's)",
    )
    f_rank.add_argument(
        "--reference-suite",
        action="store_true",
        help="size the reference's HPL from memory (the paper's "
        "capability-run semantics) instead of the fleet's fixed N",
    )
    f_rank.add_argument(
        "--top",
        type=int,
        default=20,
        help="list rows to print (0 = the whole fleet)",
    )
    f_rank.add_argument(
        "--full-sim",
        action="store_true",
        help="force every system through the campaign executors "
        "(simulated meter included) instead of the analytic path",
    )
    f_rank.add_argument(
        "--json",
        action="store_true",
        help="print the full ranking as JSON on stdout",
    )

    dashboard = _leaf(
        sub, "dashboard", _cmd_dashboard, parents=[output],
        help="render captured power timelines into one self-contained HTML file",
    )
    dashboard.add_argument(
        "--timeline",
        required=True,
        metavar="DIR",
        help="timeline artifact directory written by `tgi campaign --timeline`",
    )
    dashboard.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="campaign manifest JSON to summarize in the header",
    )
    dashboard.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="run journal to summarize (final progress snapshot)",
    )
    dashboard.add_argument(
        "--perfwatch-dir",
        default=None,
        metavar="DIR",
        help="directory of BENCH_<scenario>.json trajectories to chart",
    )
    dashboard.add_argument(
        "--title", default="TGI fleet dashboard", help="dashboard page title"
    )

    watch = _leaf(
        sub, "watch", _cmd_watch, parents=[follow],
        help="live progress of a journaled campaign (follows the journal file)",
    )
    watch.add_argument(
        "--once", action="store_true", help="render one snapshot and exit"
    )

    tail = _leaf(
        sub, "tail", _cmd_tail, parents=[follow],
        help="print journal events, optionally following",
    )
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep polling for new events until run.stop",
    )
    tail.add_argument(
        "--raw", action="store_true", help="raw JSONL lines instead of the human rendering"
    )

    journal = sub.add_parser(
        "journal", help="inspect a run journal: anomaly report, validation, summary"
    )
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    j_report = _leaf(
        journal_sub, "report", _cmd_journal_report, parents=[journal_in, as_json],
        help="post-run anomaly report: stragglers, retry storms, cache collapse",
    )
    j_report.add_argument(
        "--straggler-z", type=float, default=3.5,
        help="modified z-score above which a completed job is a straggler",
    )
    j_report.add_argument(
        "--storm-fraction", type=float, default=0.25,
        help="retried fraction of executed jobs that flags a run-level storm",
    )
    j_report.add_argument(
        "--collapse-drop", type=float, default=0.5,
        help="second-half hit rate below this fraction of the first half's flags collapse",
    )
    j_report.add_argument(
        "--fail-on-anomaly", action="store_true",
        help="exit 1 when anything is flagged (for blocking CI gates)",
    )
    _leaf(
        journal_sub, "validate", _cmd_journal_validate, parents=[journal_in],
        help="schema-check every event; exit 1 on any violation",
    )
    _leaf(
        journal_sub, "summary", _cmd_journal_summary, parents=[journal_in, as_json],
        help="final progress snapshot of a recorded run",
    )

    bench = sub.add_parser(
        "bench",
        help="perf-watch: run registered benchmark scenarios against recorded history",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    b_run = _leaf(
        bench_sub, "run", _cmd_bench_run,
        parents=[scenario, history, bench_dir, telemetry_out],
        help="execute scenarios, record history, write BENCH_*.json",
    )
    b_run.add_argument(
        "--quick", action="store_true", help="only the quick tier (the CI set)"
    )
    b_run.add_argument(
        "--repeats", type=int, default=0, help="override each scenario's repeat count"
    )
    b_run.add_argument(
        "--trajectory-dir",
        default=".",
        metavar="DIR",
        help="where BENCH_<scenario>.json trajectory files land (default: repo root)",
    )
    b_run.add_argument(
        "--no-record",
        action="store_true",
        help="measure and classify only; do not touch history or trajectories",
    )
    b_run.add_argument(
        "--profile",
        action="store_true",
        help="attach cProfile top-N hotspots to records and telemetry spans",
    )
    b_run.add_argument(
        "--profile-top", type=int, default=10, help="hotspot rows per profile"
    )

    _leaf(
        bench_sub, "list", _cmd_bench_list, parents=[bench_dir],
        help="list registered scenarios",
    )

    b_report = _leaf(
        bench_sub, "report", _cmd_bench_report,
        parents=[history, as_json, scenario],
        help="classify the newest record of each scenario vs its baseline",
    )
    b_report.add_argument(
        "--window", type=int, default=20, help="baseline history window"
    )
    b_report.add_argument(
        "--min-effect",
        type=float,
        default=0.05,
        help="relative band around the CI below which changes are 'stable'",
    )
    b_report.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any scenario regresses (for blocking CI gates)",
    )

    b_compare = _leaf(
        bench_sub, "compare", _cmd_bench_compare, parents=[history],
        help="diff two records of one scenario, plus its trajectory",
    )
    b_compare.add_argument("scenario", help="scenario id")
    b_compare.add_argument(
        "--base", default=None, metavar="KEY", help="baseline record key (default: second-newest)"
    )
    b_compare.add_argument(
        "--new", default=None, metavar="KEY", help="new record key (default: newest)"
    )
    b_compare.add_argument(
        "--metric", default="wall_s", help="metric for the trajectory table"
    )

    trace = _leaf(
        sub, "trace", _cmd_trace, parents=[system, cores],
        help="render a span tree and hot-spot summary (live run or saved export)",
    )
    trace.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="telemetry JSON written by --telemetry; omit to trace a live suite run",
    )
    trace.add_argument(
        "--top", type=int, default=10, help="how many slowest spans to list"
    )
    # Optional subcommands under `trace`; plain `tgi trace [--input ...]`
    # keeps its historical behaviour (trace_command stays None).
    trace_sub = trace.add_subparsers(dest="trace_command")
    t_export = _leaf(
        trace_sub,
        "export",
        _cmd_trace_export,
        parents=[output],
        help="convert a journal and/or telemetry export to Chrome trace-event "
        "JSON (open in ui.perfetto.dev or chrome://tracing)",
    )
    t_export.add_argument(
        "--format",
        choices=jrnl.TRACE_FORMATS,
        default="chrome",
        help="output format (chrome = trace-event JSON, the Perfetto input)",
    )
    t_export.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="campaign journal to convert (attempt slices, faults, cache hits)",
    )
    t_export.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="telemetry JSON export to overlay (span slices, clock-aligned)",
    )
    return parser


@contextlib.contextmanager
def _telemetry(
    path: Optional[str], label: str, **session_options
) -> Iterator[Optional["tele.TelemetrySession"]]:
    """Collect the optional ``--telemetry PATH`` session around the block.

    Yields the session, or ``None`` (collecting nothing) when ``path`` is
    unset; export it with :func:`_write_telemetry` once the output is done.
    """
    if not path:
        yield None
        return
    with tele.use(tele.TelemetrySession(label=label, **session_options)) as session:
        yield session


def _write_telemetry(
    session: Optional["tele.TelemetrySession"], path: Optional[str], *, attribution=None
) -> None:
    """Persist a session: JSON export at ``path``, Prometheus text beside it.

    A no-op without a session (``--telemetry`` not given).  Both files go
    through the shared atomic write-temp + ``os.replace`` helper (like
    manifests and journal summaries), so a crash mid-write never leaves a
    truncated export behind.
    """
    if session is None:
        return
    from .serialization import atomic_write_text

    export = session.export(attribution=attribution)
    target = Path(path)
    atomic_write_text(target, json.dumps(export, indent=2, sort_keys=True) + "\n")
    prom = target.with_suffix(".prom")
    atomic_write_text(prom, session.to_prometheus())
    _console.status(f"telemetry written to {target} (metrics: {prom})")


def _cmd_list(args) -> int:
    rows = [[exp_id, entry.description] for exp_id, entry in EXPERIMENTS.items()]
    _console.out(render_table(["id", "description"], rows, align_right_from=99))
    return 0


def _cmd_run(args) -> int:
    experiment = args.experiment
    context = SharedContext()
    ids = list(EXPERIMENTS) if experiment == "all" else [experiment]
    writer = None
    t_start = time.perf_counter()
    if args.journal:
        writer = jrnl.JournalWriter(Path(args.journal), label=f"run:{experiment}")
        writer.emit(
            "run.start",
            label=f"run:{experiment}",
            jobs=len(ids),
            workers=1,
            retries_allowed=0,
            keep_going=False,
            cache_enabled=False,
        )
    status = "aborted"
    try:
        with _telemetry(args.telemetry, f"run:{experiment}") as session:
            for exp_id in ids:
                entry = get_experiment(exp_id)
                _console.status(f"running {exp_id} ...")
                result = entry.run(context)
                _console.out(result.format())
                if args.plot:
                    chart = _chart_for(result)
                    if chart:
                        _console.out()
                        _console.out(chart)
                _console.out()
        _write_telemetry(session, args.telemetry)
        status = "ok"
    finally:
        if writer is not None:
            writer.finalize(
                status=status,
                jobs_failed=0,
                total_wall_s=time.perf_counter() - t_start,
            )
            _console.status(f"journal written to {writer.path}")
    return 0


def _chart_for(result) -> Optional[str]:
    """ASCII chart for figure results; tables have nothing to plot."""
    from .experiments.curves import EfficiencyCurveResult
    from .experiments.tgi_curves import TGICurveResult, TGIWeightedResult
    from .viz import ascii_chart

    if isinstance(result, EfficiencyCurveResult):
        return ascii_chart(
            {result.benchmark: list(result.efficiency)},
            x=list(result.x),
            title=f"{result.figure} ({result.unit_label})",
            x_label=result.x_label,
            y_label=result.unit_label,
        )
    if isinstance(result, TGICurveResult):
        return ascii_chart(
            {"TGI": result.series.values.tolist()},
            x=list(result.cores),
            title="Figure 5 (TGI, arithmetic mean)",
            x_label="cores",
            y_label="TGI",
        )
    if isinstance(result, TGIWeightedResult):
        return ascii_chart(
            {
                name: series.values.tolist()
                for name, series in result.series_by_weighting.items()
            },
            x=list(result.cores),
            title="Figure 6 (TGI under different weights)",
            x_label="cores",
            y_label="TGI",
        )
    return None


def _preset_suite_run(system: str, cores: int):
    """Run the capability-view suite on one preset; returns (cluster, n, result)."""
    from .benchmarks import (
        BenchmarkSuite,
        HPLBenchmark,
        IOzoneBenchmark,
        StreamBenchmark,
    )

    cluster = getattr(presets, system)()
    executor = ClusterExecutor(cluster, rng=PAPER_CONFIG.fire_seed)
    # capability view: memory-sized HPL with the calibrated comm/contention
    # parameters (consistent with `tgi run capability`)
    suite = BenchmarkSuite(
        [
            HPLBenchmark(
                sizing=("memory", PAPER_CONFIG.hpl_reference_memory_fraction),
                rounds=PAPER_CONFIG.hpl_rounds,
                comm_volume_factor=PAPER_CONFIG.hpl_comm_volume_factor,
                contention_threshold=PAPER_CONFIG.hpl_contention_threshold,
                contention_slope=PAPER_CONFIG.hpl_contention_slope,
            ),
            StreamBenchmark(
                target_seconds=PAPER_CONFIG.stream_target_seconds,
                intensity=PAPER_CONFIG.stream_intensity,
            ),
            IOzoneBenchmark(target_seconds=PAPER_CONFIG.iozone_target_seconds),
        ]
    )
    n = min(cores or cluster.total_cores, cluster.total_cores)
    return cluster, n, suite.run(executor, n)


def _cmd_suite(args) -> int:
    from .core import format_suite_result
    from .units import format_energy

    cluster, n, result = _preset_suite_run(args.system, args.cores)
    _console.out(format_suite_result(result, title=f"{cluster.name} @ {n} cores"))
    if args.breakdown:
        _console.out()
        for r in result:
            parts = r.record.energy_breakdown
            total = sum(parts.values())
            line = ", ".join(
                f"{k} {100 * v / total:.0f}%" for k, v in sorted(parts.items())
            )
            _console.out(f"{r.benchmark:13s} {format_energy(total)}: {line}")
    return 0


def _cmd_trace(args) -> int:
    from .telemetry import (
        AttributionRow,
        render_attribution,
        render_slowest,
        render_span_tree,
        suite_attribution,
    )

    if args.input:
        data = json.loads(Path(args.input).read_text())
        version = data.get("telemetry_version")
        if version != tele.TELEMETRY_VERSION:
            _console.error(
                f"telemetry version {version!r} not supported "
                f"(this build reads version {tele.TELEMETRY_VERSION})"
            )
            return 1
        spans = data.get("spans", [])
        attribution = [AttributionRow(**row) for row in data.get("attribution") or ()]
        _console.status(f"trace of session {data.get('label', '?')!r} ({args.input})")
    else:
        _console.status(f"tracing a live suite run on {args.system} ...")
        with tele.use(tele.TelemetrySession(label=f"trace:{args.system}")) as session:
            cluster, n, result = _preset_suite_run(args.system, args.cores)
        spans = session.spans
        attribution = suite_attribution(
            result, job_id=f"{args.system}@{n}", cluster=cluster.name
        )
    _console.out(render_span_tree(spans))
    _console.out()
    _console.out(render_slowest(spans, args.top))
    if attribution:
        _console.out()
        _console.out(render_attribution(attribution))
    return 0


#: Per-type fields worth showing in the human `tgi tail` rendering.
_TAIL_DETAIL_FIELDS = {
    "run.start": ("label", "jobs", "workers"),
    "run.resumed": ("jobs_recovered", "jobs_pending"),
    "run.stop": ("status", "jobs_failed", "total_wall_s"),
    "job.scheduled": ("job", "index"),
    "job.cache_hit": ("job", "attempt"),
    "job.started": ("job", "attempt"),
    "job.attempt_failed": ("job", "attempt", "error_type"),
    "job.retried": ("job", "attempt", "delay_s"),
    "job.completed": ("job", "attempts", "wall_s"),
    "job.stored": ("job",),
    "job.failed": ("job", "attempts", "error_type"),
    "worker.heartbeat": ("jobs_done", "max_rss_bytes"),
    "fault.injected": ("kind", "scope", "attempt"),
    "timeline.captured": ("job", "runs", "energy_j"),
}


def _format_journal_event(event: Dict) -> str:
    """One human-scannable line per journal event."""
    kind = event.get("event", "?")
    parts = []
    for key in _TAIL_DETAIL_FIELDS.get(kind, ()):
        if key not in event:
            continue
        value = event[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return (
        f"{event.get('t_utc', '?'):<27} {event.get('process', '?'):<14} "
        f"{kind:<19} " + " ".join(parts)
    ).rstrip()


def _emit(text: str, output: Optional[str], written: str) -> None:
    """Write ``text`` atomically to ``-o/--output`` and report ``written``
    on stderr, or print it to stdout when no output path is given."""
    if not output:
        _console.out(text)
        return
    from .serialization import atomic_write_text

    atomic_write_text(Path(output), text)
    _console.status(written)


def _no_journal(path: Path) -> bool:
    """Report a missing journal on stderr; True when ``path`` does not exist."""
    if path.exists():
        return False
    _console.error(f"no journal at {path}")
    return True


def _follow(args) -> Iterator[List[Dict]]:
    """Yield each poll's new events (possibly none) from the followed journal.

    Sleeps ``--interval`` between polls; with a positive ``--timeout`` it
    ends once that much time has passed, so the caller's ``else`` runs.
    """
    follower = jrnl.JournalFollower(Path(args.journal))
    deadline = time.monotonic() + args.timeout if args.timeout > 0 else None
    while True:
        yield follower.poll()
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(args.interval)


def _cmd_watch(args) -> int:
    """Follow a journal and render live progress until the run stops."""
    if args.once and _no_journal(Path(args.journal)):
        return 1
    state = jrnl.RunState()
    for polls, events in enumerate(_follow(args)):
        for event in events:
            jrnl.apply_event(state, event)
        now = None if state.complete else jrnl.now_mono()
        if polls:
            _console.out()
        _console.out(jrnl.render_progress(jrnl.progress_from_state(state, now_mono=now)))
        if args.once or state.complete:
            break
    else:
        _console.status(
            f"watch: gave up after {args.timeout:.0f}s; run still in flight"
        )
    if state.complete and state.stop_status != "ok":
        return 3
    return 0


def _cmd_tail(args) -> int:
    """Print journal events, optionally following the file."""
    if not args.follow and _no_journal(Path(args.journal)):
        return 1
    for events in _follow(args):
        for event in events:
            if args.raw:
                _console.out(json.dumps(event, separators=(",", ":"), sort_keys=True))
            else:
                _console.out(_format_journal_event(event))
        if not args.follow or any(e.get("event") == "run.stop" for e in events):
            break
    else:
        _console.status(f"tail: gave up after {args.timeout:.0f}s")
    return 0


def _cmd_journal_validate(args) -> int:
    """`tgi journal validate` — schema-check every event."""
    path = Path(args.journal)
    if _no_journal(path):
        return 1
    scan = jrnl.scan_journal(path)
    problems = jrnl.validate_events(scan.events)
    _console.status(
        f"{path}: {len(scan.events)} events"
        + (", torn tail dropped" if scan.torn_tail else "")
        + (f", {scan.malformed} malformed line(s)" if scan.malformed else "")
    )
    if scan.malformed:
        problems.append(f"{scan.malformed} unparseable line(s)")
    if problems:
        for problem in problems:
            _console.out(problem)
        _console.error(f"journal validation failed: {len(problems)} problem(s)")
        return 1
    _console.out(f"journal ok: {len(scan.events)} valid events")
    return 0


def _cmd_journal_summary(args) -> int:
    """`tgi journal summary` — final progress snapshot of a recorded run."""
    path = Path(args.journal)
    if _no_journal(path):
        return 1
    progress = jrnl.progress_from_state(jrnl.replay_journal(path))
    if args.as_json:
        _json_out(jrnl.progress_to_dict(progress))
    else:
        _console.out(jrnl.render_progress(progress))
    return 0


def _cmd_journal_report(args) -> int:
    """`tgi journal report` — post-run anomaly report."""
    path = Path(args.journal)
    if _no_journal(path):
        return 1
    report = jrnl.analyze_state(
        jrnl.replay_journal(path),
        straggler_z=args.straggler_z,
        storm_fraction=args.storm_fraction,
        collapse_drop=args.collapse_drop,
    )
    if args.as_json:
        _json_out(jrnl.report_to_dict(report))
    else:
        _console.out(jrnl.render_report(report))
    if not report.clean and args.fail_on_anomaly:
        return 1
    return 0


def _cmd_trace_export(args) -> int:
    """Convert a journal and/or telemetry export into a Chrome trace."""
    if not args.journal and not args.telemetry:
        _console.error("trace export needs --journal and/or --telemetry")
        return 1
    journal_events = None
    if args.journal:
        journal_events = jrnl.read_events(args.journal)
    telemetry_export = None
    if args.telemetry:
        telemetry_export = json.loads(Path(args.telemetry).read_text())
    trace = jrnl.chrome_trace(
        journal_events=journal_events, telemetry_export=telemetry_export
    )
    problems = jrnl.validate_trace(trace)
    if problems:
        for problem in problems:
            _console.error(f"trace export: {problem}")
        return 1
    _emit(
        json.dumps(trace, indent=2, sort_keys=True) + "\n",
        args.output,
        f"trace written to {args.output} "
        f"({len(trace['traceEvents'])} events; open in ui.perfetto.dev)",
    )
    return 0


def _bench_store(history: Optional[str]):
    from .perfwatch import DEFAULT_HISTORY_DIR, HistoryStore

    return HistoryStore(history or DEFAULT_HISTORY_DIR)


def _bench_discover(bench_dir: Optional[str]):
    """Populate the registry from bench scripts; report per-file failures."""
    from . import perfwatch as pw

    directory = Path(bench_dir) if bench_dir else None
    found, errors = pw.discover(directory)
    for file_name, message in errors:
        _console.error(f"perf-watch: skipping {file_name}: {message}")
    return found


def _cmd_bench_list(args) -> int:
    scenarios = _bench_discover(args.bench_dir)
    rows = []
    for scn in scenarios:
        metrics = ", ".join(scn.metric_names()) or "-"
        rows.append(
            [scn.scenario_id, scn.tier, scn.repeats, metrics, scn.description]
        )
    _console.out(
        render_table(
            ["scenario", "tier", "repeats", "derived metrics", "description"],
            rows,
            title=f"perf-watch scenarios: {len(scenarios)} registered",
            align_right_from=99,
        )
    )
    return 0


def _cmd_bench_run(args) -> int:
    from . import perfwatch as pw

    scenarios = _bench_discover(args.bench_dir)
    if args.scenario:
        selected = [pw.get_scenario(scenario_id) for scenario_id in args.scenario]
    elif args.quick:
        selected = [s for s in scenarios if s.tier == "quick"]
    else:
        selected = scenarios
    if not selected:
        _console.error("perf-watch: no scenarios selected")
        return 1
    store = _bench_store(args.history)

    rows = []
    regressions = []
    with _telemetry(
        args.telemetry, "bench-run", profile=args.profile, profile_top=args.profile_top
    ) as session:
        for scn in selected:
            _console.status(f"bench {scn.scenario_id} ({scn.tier}) ...")
            record = pw.run_scenario(
                scn,
                repeats=args.repeats or None,
                profile=args.profile,
                profile_top=args.profile_top,
            )
            verdicts = pw.classify_record(store.records(scn.scenario_id), record)
            verdict = pw.overall_verdict(verdicts)
            if verdict is pw.Verdict.REGRESSED:
                regressions.append(scn.scenario_id)
            key = pw.record_key(record)
            if not args.no_record:
                store.append(record)
            rows.append(
                [
                    scn.scenario_id,
                    scn.tier,
                    record.repeats,
                    f"{record.wall_best_s:.4f}",
                    key[:12],
                    str(verdict),
                ]
            )
    _write_telemetry(session, args.telemetry)

    _console.out(
        render_table(
            ["scenario", "tier", "repeats", "wall best s", "key", "vs baseline"],
            rows,
            title=f"perf-watch run: {len(selected)} scenarios",
            align_right_from=2,
        )
    )
    if not args.no_record:
        paths = [
            store.write_trajectory(scn.scenario_id, args.trajectory_dir)
            for scn in selected
        ]
        _console.status(
            f"history: {store.root}  |  trajectories: "
            + ", ".join(p.name for p in paths)
        )
    if regressions:
        _console.status(
            "regressions vs recorded baseline: " + ", ".join(regressions)
        )
    return 0


def _cmd_bench_report(args) -> int:
    from . import perfwatch as pw

    store = _bench_store(args.history)
    ids = args.scenario or store.scenario_ids()
    reports = []
    if ids:
        reports = pw.build_report(
            store,
            scenario_ids=ids,
            window=args.window,
            min_effect=args.min_effect,
        )
    else:
        _console.status(f"perf-watch: no history under {store.root}")
    if args.as_json:
        _json_out(pw.report_to_dict(reports))
    else:
        _console.out(pw.render_report(reports))
    regressed = [
        r.scenario_id for r in reports if r.verdict is pw.Verdict.REGRESSED
    ]
    if regressed:
        _console.status("regressed: " + ", ".join(regressed))
        if args.fail_on_regression:
            return 1
    return 0


def _cmd_bench_compare(args) -> int:
    from . import perfwatch as pw

    store = _bench_store(args.history)
    keys = store.keys(args.scenario)
    if not keys:
        _console.error(f"perf-watch: no history for scenario {args.scenario!r}")
        return 1
    if len(keys) < 2 and not (args.base and args.new):
        _console.error(
            f"perf-watch: scenario {args.scenario!r} has only one record; "
            "nothing to compare"
        )
        return 1
    base_key = args.base or keys[-2]
    new_key = args.new or keys[-1]
    _console.out(pw.render_compare(store.get(base_key), store.get(new_key)))
    _console.out()
    _console.out(
        pw.render_trajectory(store.records(args.scenario), metric=args.metric)
    )
    return 0


def _cmd_sensitivity(args) -> int:
    from .analysis import WeightSensitivity, dominant_benchmark
    from .core import TGICalculator
    from .experiments import build_reference, build_suite, build_executor

    reference, _ = build_reference(PAPER_CONFIG)
    executor = build_executor(PAPER_CONFIG)
    suite = build_suite(PAPER_CONFIG)
    result = suite.run(executor, executor.cluster.total_cores)
    tgi = TGICalculator(reference).compute(result)
    sens = WeightSensitivity(ree=tgi.ree, steps=20)
    lo, hi = sens.tgi_range()
    w_lo, w_hi = sens.extremes()
    _console.out(f"REE at {result.cores} cores: "
                 + ", ".join(f"{k}={v:.3f}" for k, v in sorted(tgi.ree.items())))
    _console.out(f"TGI(arithmetic mean) = {tgi.value:.4f}")
    _console.out(f"TGI range over all valid weightings: [{lo:.4f}, {hi:.4f}]")
    _console.out(f"  minimized by weighting {dominant_benchmark(w_lo)} alone")
    _console.out(f"  maximized by weighting {dominant_benchmark(w_hi)} alone")
    return 0


def _cmd_archive(args) -> int:
    from .serialization import (
        reference_to_dict,
        save_json,
        sweep_result_to_dict,
    )

    context = SharedContext()
    archive = {
        "format_version": 1,
        "reference": reference_to_dict(context.reference),
        "sweep": sweep_result_to_dict(context.sweep),
    }
    save_json(archive, args.output)
    _console.status(f"campaign archived to {args.output}")
    return 0


#: ``--inject`` kinds -> FaultPlan field updates (VALUE semantics per kind).
_FAULT_KIND_FIELDS = {
    "transient": ("transient_failures", int, 1),
    "flaky": ("transient_probability", float, 1.0),
    "meter-dropout": ("meter_dropout", float, 0.5),
    "node-crash": ("node_crash_probability", float, 1.0),
    "benchmark-crash": ("node_crash_probability", float, 1.0),
}


def _parse_fault_specs(specs, fault_seed: int):
    """``--inject`` specs -> ``{job_id: FaultPlan}``.

    Multiple specs naming one job compose into a single plan;
    ``benchmark-crash`` additionally switches the plan's containment so
    the crash fails individual benchmarks instead of the whole job.
    """
    from .faults import plan_from_dict, plan_to_dict

    plans = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ReproError(
                f"bad --inject spec {spec!r}; expected JOB:KIND[:VALUE]"
            )
        job_id, kind = parts[0], parts[1]
        if kind not in _FAULT_KIND_FIELDS:
            raise ReproError(
                f"unknown fault kind {kind!r} in --inject {spec!r}; "
                f"kinds: {sorted(_FAULT_KIND_FIELDS)}"
            )
        field_name, cast, default = _FAULT_KIND_FIELDS[kind]
        try:
            value = cast(parts[2]) if len(parts) == 3 else default
        except ValueError:
            raise ReproError(
                f"bad value {parts[2]!r} for {kind} in --inject {spec!r}"
            ) from None
        base = plans.get(job_id)
        data = plan_to_dict(base) if base else {}
        data[field_name] = value
        data["seed"] = fault_seed
        if kind == "benchmark-crash":
            data["containment"] = "benchmark"
        plans[job_id] = plan_from_dict(data)
    return plans


def _campaign_tgi_summary(result) -> None:
    """Print a coverage-annotated TGI table for the surviving jobs.

    Requires an ok ``reference`` job; each other surviving job contributes
    its final scale point.  Partial suite points (benchmarks lost to
    contained faults) produce degraded TGIs, flagged in the table and on
    stderr so they are never mistaken for full ones.
    """
    from .core import ReferenceSet

    by_id = {o.job.job_id: o for o in result}
    ref_outcome = by_id.get("reference")
    if ref_outcome is None or not ref_outcome.ok:
        _console.status("no surviving reference job; skipping the TGI summary")
        return
    reference = ReferenceSet.from_suite_result(
        result.suite("reference"),
        system_name=ref_outcome.payload["cluster_name"],
    )
    calculator = TGICalculator(reference, allow_partial=True)
    rows = []
    degraded = []
    for outcome in result:
        if not outcome.ok or outcome.job.job_id == "reference":
            continue
        suite_point = outcome.sweep.suites[-1]
        try:
            tgi = calculator.compute(suite_point)
        except ReproError as exc:
            _console.status(f"TGI skipped for {outcome.job.job_id}: {exc}")
            continue
        coverage = "full" if tgi.complete else f"{tgi.coverage:.0%}"
        if not tgi.complete:
            degraded.append((outcome.job.job_id, tgi))
        rows.append(
            [
                outcome.job.job_id,
                outcome.payload["cluster_name"],
                suite_point.cores,
                f"{tgi.value:.4f}",
                coverage,
            ]
        )
    if not rows:
        return
    _console.out()
    _console.out(
        render_table(
            ["job", "system", "cores", "TGI", "coverage"],
            rows,
            title=f"TGI vs {reference.system_name} (arithmetic-mean weights)",
            align_right_from=2,
        )
    )
    for job_id, tgi in degraded:
        _console.error(
            f"warning: TGI for {job_id} is degraded — {tgi.coverage:.0%} "
            f"coverage, missing {', '.join(tgi.missing)}; weights were "
            "renormalized over the survivors"
        )


def _cmd_campaign(args) -> int:
    import dataclasses

    from .campaign import CampaignRunner, ResultCache, fleet_jobs, paper_jobs
    from .telemetry import attribution_to_dicts, campaign_attribution, render_attribution

    jobs = paper_jobs(PAPER_CONFIG)
    if args.fleet:
        jobs += fleet_jobs(args.fleet, era=args.era, fleet_seed=args.fleet_seed)
    plans = _parse_fault_specs(args.inject, args.fault_seed)
    if plans:
        known = {job.job_id for job in jobs}
        unknown = sorted(set(plans) - known)
        if unknown:
            raise ReproError(
                f"--inject names unknown job(s) {unknown}; campaign has {sorted(known)}"
            )
        jobs = [
            dataclasses.replace(job, faults=plans[job.job_id])
            if job.job_id in plans
            else job
            for job in jobs
        ]
        _console.status(
            "fault injection armed: "
            + ", ".join(f"{jid} <- {plans[jid]}" for jid in sorted(plans))
        )
    resume = args.resume
    journal = args.journal
    if resume is not None:
        if not args.cache_dir:
            raise ReproError(
                "--resume requires --cache-dir: recovery skips jobs whose "
                "results survive in the shared cache"
            )
        if journal is not None and journal != resume:
            raise ReproError(
                f"--journal {journal!r} conflicts with --resume {resume!r}; "
                "a resumed run extends the journal it resumes from "
                "(drop --journal or pass the same path)"
            )
        journal = resume
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = CampaignRunner(
        workers=args.workers,
        cache=cache,
        retries=args.retries,
        keep_going=args.keep_going,
        backoff_s=args.retry_backoff,
        backoff_seed=args.fault_seed,
        journal=journal,
        timeline=args.timeline,
    )
    if resume is not None:
        _console.status(f"resuming campaign from journal: {resume}")
    if journal:
        _console.status(
            f"flight recorder armed: {journal} (follow with `tgi watch {journal}`)"
        )
    if args.timeline:
        _console.status(
            f"timeline capture armed: {args.timeline} "
            f"(render with `tgi dashboard --timeline {args.timeline}`)"
        )

    with _telemetry(args.telemetry, "cli-campaign") as session:
        result = runner.run(jobs, label="cli-campaign", resume=resume is not None)

    rows = []
    for outcome in result:
        error = outcome.error or {}
        rows.append(
            [
                outcome.job.job_id,
                outcome.payload["cluster_name"] if outcome.ok else "-",
                len(outcome.job.core_counts) or 1,
                outcome.status,
                outcome.cache_status,
                outcome.attempts,
                f"{outcome.wall_s:.3f}",
                outcome.key[:12] if outcome.ok else error.get("type", "?"),
            ]
        )
    _console.out(
        render_table(
            ["job", "system", "points", "status", "cache", "tries", "wall s", "key/error"],
            rows,
            title=f"Campaign: {len(jobs)} jobs, workers={args.workers}",
            align_right_from=2,
        )
    )
    manifest = result.manifest
    stats = result.cache_stats
    failures = manifest["failures"]
    _console.status(
        f"\ntotal wall: {manifest['total_wall_s']:.2f} s  |  "
        f"cache: {stats['hits']}/{stats['jobs']} hits "
        f"({100 * stats['hit_rate']:.0f}%)"
        + (f"  |  dir: {args.cache_dir}" if args.cache_dir else "  (caching disabled)")
    )
    if failures["jobs_failed"] or failures["retries_total"]:
        _console.status(
            f"failures: {failures['jobs_failed']} job(s) failed, "
            f"{failures['jobs_retried']} retried "
            f"({failures['retries_total']} extra attempt(s), "
            f"{args.retries} allowed per job)"
        )
    if cache is not None:
        cstats = cache.cache_stats
        _console.status(
            f"cache accounting: {cstats['hits']} hits, {cstats['misses']} misses, "
            f"{cstats['invalidations']} invalidations, {cstats['puts']} writes"
        )
    _console.out(f"manifest fingerprint: {manifest['fingerprint'][:16]}")
    journal_block = manifest.get("journal")
    if journal_block:
        _console.status(
            f"journal: {journal_block['path']} ({journal_block['events']} events, "
            f"sha256 {str(journal_block['sha256'])[:12]})"
        )
    timeline_block = manifest.get("timeline")
    if timeline_block:
        _console.status(
            f"timelines: {timeline_block['artifacts']} artifact(s) in "
            f"{timeline_block['dir']}"
        )
    execution = manifest["execution"]
    _console.status(
        f"execution: {execution['transport']} transport"
        + (
            f", {execution['jobs_recovered']} job(s) recovered on resume"
            if execution["resumed"]
            else ""
        )
    )
    if args.manifest:
        result.write_manifest(args.manifest)
        _console.status(f"manifest written to {args.manifest}")
    _campaign_tgi_summary(result)
    if session is not None:
        attribution = campaign_attribution(result)
        _console.out()
        _console.out(render_attribution(attribution))
        _write_telemetry(
            session, args.telemetry, attribution=attribution_to_dicts(attribution)
        )
    if result.failed:
        _console.error(
            f"campaign finished with {len(result.failed)} failed job(s): "
            + ", ".join(o.job.job_id for o in result.failed)
        )
        return 3
    return 0


def _parse_reference_spec(spec: str):
    """``PRESET[:NODES]`` -> a reference ClusterRef."""
    from .campaign import ClusterRef

    name, sep, nodes = spec.partition(":")
    num_nodes = 0
    if sep:
        try:
            num_nodes = int(nodes)
        except ValueError:
            raise ReproError(
                f"--reference node count {nodes!r} is not an integer"
            ) from None
    return ClusterRef(kind="preset", name=name, num_nodes=num_nodes)


def _cmd_fleet_rank(args) -> int:
    from .fleet import FleetRankingPipeline, generated_fleet_members, parse_weight_spec

    if args.count < 1:
        raise ReproError(f"--count must be >= 1, got {args.count}")
    if args.top < 0:
        raise ReproError(f"--top must be >= 0, got {args.top}")
    weights = parse_weight_spec(args.weights) if args.weights else None
    pipeline = FleetRankingPipeline(
        reference=_parse_reference_spec(args.reference),
        reference_suite=args.reference_suite,
        weights=weights,
        full_sim=args.full_sim,
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal=args.journal,
        timeline=args.timeline,
    )
    members = generated_fleet_members(
        args.count, era=args.era, fleet_seed=args.fleet_seed
    )
    _console.status(
        f"ranking a fleet of {args.count} {args.era}-era machines "
        + ("through the campaign executors..." if args.full_sim else "on the batched analytic path...")
    )
    with _telemetry(args.telemetry, "fleet-rank") as session:
        ranking = pipeline.rank(members, label="fleet-rank")

    if args.json:
        _json_out(ranking.as_dict())
    else:
        _console.out(
            ranking.format_table(
                title=f"Fleet of {len(ranking)} ranked by TGI vs {ranking.reference_name}",
                top=args.top,
            )
        )
        if 0 < args.top < len(ranking):
            _console.status(f"... {len(ranking) - args.top} more rows (--top 0 shows all)")
    stats = ranking.stats
    _console.status(
        f"\n{stats['systems']} systems in {stats['wall_s']:.2f} s "
        f"({stats['batched']} batched, {stats['simulated']} simulated)"
        + (f", {stats['cache_hits']} cache hits" if stats["cache_hits"] else "")
    )
    diag = ranking.diagnostics
    if diag.spearman_rho is not None:
        line = f"rank agreement FLOPS/W vs TGI: Spearman {diag.spearman_rho:.3f}"
        if diag.pearson_ci is not None:
            line += (
                f"; PCC {diag.pearson_ci.estimate:.3f} "
                f"[{diag.pearson_ci.low:.3f}, {diag.pearson_ci.high:.3f}] "
                f"@ {diag.pearson_ci.confidence:.0%}"
            )
        _console.status(line)
    if diag.tgi_mean_ci is not None:
        _console.status(
            f"fleet TGI mean {diag.tgi_mean_ci.estimate:.3f} "
            f"[{diag.tgi_mean_ci.low:.3f}, {diag.tgi_mean_ci.high:.3f}]"
        )
    for note in diag.notes:
        _console.status(f"note: {note}")
    if args.journal:
        _console.status(f"journal: {args.journal}")
    _write_telemetry(session, args.telemetry)
    return 0


def _cmd_dashboard(args) -> int:
    """`tgi dashboard` — render timeline artifacts into one HTML file.

    The output is fully self-contained (inline CSS, inline SVG, no
    scripts, no network fetches): open it from disk, attach it to a CI
    run, or mail it around.  Inputs beyond ``--timeline`` are optional
    overlays — a campaign manifest, a run journal, perf-watch
    trajectories — each summarized into its own section when given.
    """
    from . import timeline as tline

    artifacts = tline.load_artifacts(args.timeline)
    _console.status(
        f"dashboard: {len(artifacts)} artifact(s) from {args.timeline}"
    )
    manifest = None
    if args.manifest:
        from .campaign import load_manifest

        manifest = load_manifest(args.manifest)
    journal_text = None
    if args.journal:
        journal_path = Path(args.journal)
        if _no_journal(journal_path):
            return 1
        state = jrnl.replay_journal(journal_path)
        journal_text = jrnl.render_progress(jrnl.progress_from_state(state))
    perfwatch = None
    if args.perfwatch_dir:
        perfwatch = []
        for path in sorted(Path(args.perfwatch_dir).glob("BENCH_*.json")):
            try:
                perfwatch.append(json.loads(path.read_text()))
            except (OSError, ValueError) as exc:
                _console.error(f"dashboard: skipping {path.name}: {exc}")
    html_text = tline.render_dashboard(
        artifacts,
        title=args.title,
        manifest=manifest,
        journal_text=journal_text,
        perfwatch=perfwatch,
    )
    audits_failed = sum(
        1 for doc in artifacts for run in doc["runs"] if not run["audit"]["ok"]
    )
    if audits_failed:
        _console.error(
            f"warning: {audits_failed} run timeline(s) failed the "
            "energy-conservation audit"
        )
    _emit(html_text, args.output, f"dashboard written to {args.output}")
    return 0


def _cmd_rank(args) -> int:
    from . import core
    from .experiments import build_reference

    reference, _ = build_reference(PAPER_CONFIG)
    if args.profile is None:
        calculator = TGICalculator(reference)
    else:
        app_profile = getattr(core, _PROFILE_BY_FLAG[args.profile])
        calculator = TGICalculator(
            reference, weighting=core.WorkloadWeights(app_profile)
        )
        _console.status(f"weights derived from profile: {app_profile.name}")
    entries = []
    for name in presets.__all__:
        cluster = getattr(presets, name)()
        executor = ClusterExecutor(cluster, rng=PAPER_CONFIG.fire_seed)
        suite = build_suite(PAPER_CONFIG, reference=True)
        n = args.cores or cluster.total_cores
        n = min(n, cluster.total_cores)
        entries.append((cluster.name, suite.run(executor, n)))
    _console.out(format_ranking(rank_systems(entries, calculator)))
    return 0


def _cmd_specs(args) -> int:
    rows = []
    for name in presets.__all__:
        cluster = getattr(presets, name)()
        rows.append(
            [
                cluster.name,
                cluster.num_nodes,
                cluster.total_cores,
                format_flops(cluster.total_peak_flops),
                format_bytes(cluster.total_memory_bytes),
                format_power(cluster.nominal_idle_watts),
                format_power(cluster.nominal_max_watts),
            ]
        )
    _console.out(
        render_table(
            ["System", "Nodes", "Cores", "Peak", "Memory", "Idle (DC)", "Max (DC)"],
            rows,
            title="Preset systems",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success; 1 a library error (:class:`ReproError` — one
    line on stderr, no traceback); 2 argparse usage errors; 3 a campaign
    that completed under ``--keep-going`` but lost jobs; 130 interrupted.
    A downstream pipe closing early (``tgi tail run.jsonl | head``) exits
    0, not with a traceback.
    """
    args = build_parser().parse_args(argv)
    _console.quiet = args.quiet
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        _console.error("interrupted")
        return 130
    except BrokenPipeError:
        # The reader went away mid-stream; stop quietly. Point stdout at
        # devnull so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        _console.error(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
