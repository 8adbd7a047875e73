"""CLI surface of the flight recorder: watch, tail, journal, trace export.

Everything here drives :func:`repro.cli.main` in-process (the suite's
idiom) except the live-watch acceptance test, which runs a journaled
campaign in a *separate process* and follows its journal from this one —
the ISSUE's acceptance criterion for ``tgi watch``.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import journal as jrnl
from repro.cli import build_parser, main

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def quick_config(monkeypatch):
    """Shrink the campaign the CLI runs so the test costs seconds."""
    import repro.cli
    from repro.experiments import PAPER_CONFIG

    quick = dataclasses.replace(
        PAPER_CONFIG,
        core_counts=(16, 32),
        hpl_problem_size=4480,
        hpl_rounds=2,
        stream_target_seconds=5,
        iozone_target_seconds=5,
    )
    monkeypatch.setattr(repro.cli, "PAPER_CONFIG", quick)
    return quick


def _synthetic_journal(path, *, walls=(1.0, 1.0, 1.0, 1.0), status="ok"):
    """A complete recorded run with the given per-job wall times."""
    writer = jrnl.JournalWriter(path, label="synth")
    writer.emit(
        "run.start", label="synth", jobs=len(walls), workers=1,
        retries_allowed=0, keep_going=False, cache_enabled=False,
    )
    for i, wall in enumerate(walls):
        writer.emit("job.scheduled", job=f"j{i}", key=f"k{i}", index=i)
        writer.emit("job.started", job=f"j{i}", attempt=0)
        writer.emit("job.completed", job=f"j{i}", attempts=1, wall_s=wall)
    writer.finalize(
        status=status, jobs_failed=0, total_wall_s=float(sum(walls)), summary=False
    )
    return path


class TestParsers:
    def test_watch_defaults(self):
        args = build_parser().parse_args(["watch", "run.jl"])
        assert args.journal == "run.jl"
        assert args.interval == 0.5 and not args.once and args.timeout == 0.0

    def test_tail_flags(self):
        args = build_parser().parse_args(["tail", "run.jl", "-f", "--raw"])
        assert args.follow and args.raw

    def test_journal_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["journal"])

    def test_journal_report_thresholds(self):
        args = build_parser().parse_args(
            ["journal", "report", "run.jl", "--json", "--straggler-z", "2.5"]
        )
        assert args.journal_command == "report"
        assert args.as_json and args.straggler_z == 2.5
        assert args.storm_fraction == 0.25 and args.collapse_drop == 0.5

    def test_trace_export_defaults(self):
        args = build_parser().parse_args(["trace", "export", "--journal", "run.jl"])
        assert args.trace_command == "export"
        assert args.format == "chrome" and args.output is None

    def test_campaign_and_run_take_journal(self):
        assert build_parser().parse_args(
            ["campaign", "--journal", "r.jl"]
        ).journal == "r.jl"
        assert build_parser().parse_args(
            ["run", "capability", "--journal", "r.jl"]
        ).journal == "r.jl"


class TestJournaledCampaign:
    def test_campaign_journal_flow(self, quick_config, tmp_path, capsys):
        """One CLI campaign feeds every inspection verb."""
        journal_path = tmp_path / "run.jsonl"
        assert main([
            "campaign",
            "--journal", str(journal_path),
            "--retries", "2",
            "--inject", "fire-sweep:transient:1",
        ]) == 0
        captured = capsys.readouterr()
        assert f"flight recorder armed: {journal_path}" in captured.err
        assert "journal:" in captured.err  # post-run digest line
        assert journal_path.exists()
        sidecar = json.loads((tmp_path / "run.jsonl.summary.json").read_text())
        assert sidecar["status"] == "ok"

        # validate: every event passes the schema
        assert main(["journal", "validate", str(journal_path)]) == 0
        assert "journal ok" in capsys.readouterr().out

        # summary: terminal snapshot of the recorded run
        assert main(["journal", "summary", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "run finished: status=ok" in out
        assert "2/2 jobs" in out

        # report: the injected transient shows up as a retry, run stays sane
        assert main(["journal", "report", str(journal_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["retries"] == 1 and report["faults"] == 1
        assert report["completed"] == 2

        # watch --once: single rendered frame of a finished run
        assert main(["watch", str(journal_path), "--once"]) == 0
        assert "run finished: status=ok" in capsys.readouterr().out

        # tail: one human line per event, fault event included
        assert main(["tail", str(journal_path)]) == 0
        out = capsys.readouterr().out
        events = jrnl.read_events(journal_path)
        assert len(out.strip().splitlines()) == len(events)
        assert "fault.injected" in out and "kind=transient" in out

        # tail --raw: every line is the exact JSONL record
        assert main(["tail", str(journal_path), "--raw"]) == 0
        raw_lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line) for line in raw_lines] == events

        # trace export: validated Chrome trace JSON on disk
        trace_path = tmp_path / "trace.json"
        assert main([
            "trace", "export", "--journal", str(journal_path), "-o", str(trace_path),
        ]) == 0
        assert "open in ui.perfetto.dev" in capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        assert jrnl.validate_trace(trace) == []
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_export_overlays_telemetry(self, quick_config, tmp_path, capsys):
        journal_path = tmp_path / "run.jsonl"
        telemetry_path = tmp_path / "telemetry.json"
        assert main([
            "campaign", "--journal", str(journal_path),
            "--telemetry", str(telemetry_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace", "export",
            "--journal", str(journal_path),
            "--telemetry", str(telemetry_path),
        ]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert jrnl.validate_trace(trace) == []
        categories = {e.get("cat") for e in trace["traceEvents"]}
        assert {"job", "telemetry"} <= categories

    def test_run_command_takes_journal(self, tmp_path, capsys):
        journal_path = tmp_path / "run.jsonl"
        assert main(["run", "capability", "--journal", str(journal_path)]) == 0
        capsys.readouterr()
        state = jrnl.replay_journal(journal_path)
        assert state.complete and state.stop_status == "ok"
        assert main(["journal", "validate", str(journal_path)]) == 0


class TestInspectionVerbs:
    def test_missing_journal_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["watch", missing, "--once"]) == 1
        assert main(["tail", missing]) == 1
        assert main(["journal", "report", missing]) == 1
        errors = capsys.readouterr().err
        assert errors.count(f"no journal at {missing}") == 3

    def test_trace_export_needs_an_input(self, capsys):
        assert main(["trace", "export"]) == 1
        assert "needs --journal and/or --telemetry" in capsys.readouterr().err

    def test_legacy_trace_input_still_works(self, tmp_path):
        with pytest.raises(SystemExit):
            # `tgi trace --input` (pre-export syntax) must still parse.
            build_parser().parse_args(["trace", "--input"])  # missing value
        args = build_parser().parse_args(["trace", "--input", "t.json"])
        assert getattr(args, "trace_command", None) is None

    def test_watch_exit_code_flags_bad_run(self, tmp_path, capsys):
        path = _synthetic_journal(tmp_path / "bad.jsonl", status="failed")
        assert main(["watch", str(path), "--once"]) == 3
        assert "run finished: status=failed" in capsys.readouterr().out

    def test_report_fail_on_anomaly_gates(self, tmp_path, capsys):
        path = _synthetic_journal(
            tmp_path / "slow.jsonl", walls=(1.0, 1.0, 1.1, 0.9, 30.0)
        )
        assert main(["journal", "report", str(path)]) == 0
        assert "[straggler] j4" in capsys.readouterr().out
        assert main([
            "journal", "report", str(path), "--fail-on-anomaly",
        ]) == 1
        # threshold flags pass through: an absurd z silences the straggler
        assert main([
            "journal", "report", str(path),
            "--fail-on-anomaly", "--straggler-z", "1e9",
        ]) == 0
        capsys.readouterr()

    def test_validate_flags_schema_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        _synthetic_journal(path)
        with open(path, "a") as handle:
            handle.write('{"event": "job.vanished"}\n')
            handle.write("not json at all\n")
        assert main(["journal", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "unknown event type" in captured.out
        assert "1 malformed line(s)" in captured.err
        assert "validation failed" in captured.err

    def test_tail_follow_times_out_on_stalled_run(self, tmp_path, capsys):
        path = tmp_path / "stalled.jsonl"
        writer = jrnl.JournalWriter(path, label="stall")
        writer.emit(
            "run.start", label="stall", jobs=1, workers=1,
            retries_allowed=0, keep_going=False, cache_enabled=False,
        )
        writer.close()  # no run.stop: the run is (apparently) hung
        assert main([
            "tail", str(path), "-f", "--interval", "0.05", "--timeout", "0.2",
        ]) == 0
        captured = capsys.readouterr()
        assert "run.start" in captured.out
        assert "gave up" in captured.err

    def test_watch_timeout_reports_in_flight(self, tmp_path, capsys):
        path = tmp_path / "stalled.jsonl"
        writer = jrnl.JournalWriter(path, label="stall")
        writer.emit(
            "run.start", label="stall", jobs=2, workers=1,
            retries_allowed=0, keep_going=False, cache_enabled=False,
        )
        writer.emit("job.scheduled", job="j0", key="k0", index=0)
        writer.emit("job.started", job="j0", attempt=0)
        writer.close()
        assert main([
            "watch", str(path), "--interval", "0.05", "--timeout", "0.2",
        ]) == 0
        captured = capsys.readouterr()
        assert "run still in flight" in captured.err
        assert "running 1" in captured.out


class TestLiveWatch:
    """The acceptance criterion: watch a run owned by another process."""

    CAMPAIGN_SCRIPT = textwrap.dedent(
        """
        import dataclasses, sys
        from repro.campaign import CampaignRunner
        from repro.campaign.jobs import CampaignJob, ClusterRef
        from repro.experiments import PAPER_CONFIG

        config = dataclasses.replace(
            PAPER_CONFIG, core_counts=(16,), hpl_problem_size=2240,
            hpl_rounds=1, stream_target_seconds=2, iozone_target_seconds=2,
        )
        jobs = [
            CampaignJob(
                job_id=f"live{i}",
                cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
                core_counts=(16,),
                seed=i,
                config=config,
            )
            for i in range(3)
        ]
        CampaignRunner(journal=sys.argv[1]).run(jobs, label="live-watch")
        """
    )

    def test_watch_follows_other_process(self, tmp_path, capsys):
        journal_path = tmp_path / "live.jsonl"
        script = tmp_path / "campaign_script.py"
        script.write_text(self.CAMPAIGN_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            # Wait for the campaign process to create the journal, then
            # follow it from *this* process until its run.stop arrives.
            deadline = time.monotonic() + 60
            while not journal_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert journal_path.exists(), "campaign process never started a journal"
            assert main([
                "watch", str(journal_path), "--interval", "0.1", "--timeout", "120",
            ]) == 0
        finally:
            stderr = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, stderr.decode()
        out = capsys.readouterr().out
        frames = out.count("run live-watch")
        assert frames >= 1
        assert "run finished: status=ok" in out
        assert "3/3 jobs" in out
        # and the recorded journal replays to the completed state
        state = jrnl.replay_journal(journal_path)
        assert state.complete and len(state.jobs) == 3
