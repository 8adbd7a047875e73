"""Campaign timeline capture, the fleet dashboard, and the CLI contract.

End-to-end half of the timeline tests: campaigns write per-job artifacts
without disturbing fingerprints, `tgi dashboard` renders one
self-contained HTML file, and every ``--json`` mode keeps stdout pure.
"""

import dataclasses
import json

import pytest

from repro import journal as jrnl
from repro import timeline as tline
from repro import viz
from repro.campaign import CampaignRunner
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.cli import main
from repro.experiments import PAPER_CONFIG

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


def _jobs(count=2):
    return [
        CampaignJob(
            job_id=f"fire-{i:02d}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=1),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One journaled + timeline-armed campaign, shared across this module."""
    root = tmp_path_factory.mktemp("campaign")
    journal = root / "run.journal"
    timeline_dir = root / "timelines"
    result = CampaignRunner(journal=journal, timeline=timeline_dir).run(
        _jobs(), label="dash-test"
    )
    return result, journal, timeline_dir


class TestCampaignCapture:
    def test_artifacts_written_per_job(self, campaign):
        result, _, timeline_dir = campaign
        paths = tline.discover_artifacts(timeline_dir)
        assert [p.name for p in paths] == [
            "fire-00.timeline.json",
            "fire-01.timeline.json",
        ]
        for doc in tline.load_artifacts(timeline_dir):
            assert doc["runs"], "each job must capture at least one run"
            for run in doc["runs"]:
                assert run["audit"]["ok"]

    def test_manifest_timeline_block_is_volatile(self, campaign):
        result, _, _ = campaign
        block = result.manifest["timeline"]
        assert block["artifacts"] == 2
        assert block["version"] == tline.TIMELINE_SCHEMA_VERSION
        # fingerprint invariance: a bare run of the same jobs matches
        bare = CampaignRunner().run(_jobs(), label="dash-test")
        assert bare.manifest["timeline"] is None
        assert result.manifest["fingerprint"] == bare.manifest["fingerprint"]

    def test_journal_records_capture_pointers(self, campaign):
        _, journal, timeline_dir = campaign
        events = [e for e in jrnl.read_events(journal) if e["event"] == "timeline.captured"]
        assert [e["job"] for e in events] == ["fire-00", "fire-01"]
        for event in events:
            assert event["runs"] >= 1
            assert event["energy_j"] > 0
            assert str(timeline_dir) in event["path"]
        # the new event type passes full schema validation
        assert not jrnl.validate_events(jrnl.read_events(journal))

    def test_failed_jobs_write_no_artifact(self, tmp_path):
        from repro.faults import FaultPlan

        jobs = _jobs(1)
        jobs[0] = dataclasses.replace(
            jobs[0], faults=FaultPlan(node_crash_probability=1.0, seed=1)
        )
        result = CampaignRunner(
            timeline=tmp_path / "tl", keep_going=True
        ).run(jobs, label="crash")
        assert result.failed
        assert tline.discover_artifacts(tmp_path / "tl") == []


class TestDashboard:
    def test_renders_self_contained_html(self, campaign):
        result, journal, timeline_dir = campaign
        artifacts = tline.load_artifacts(timeline_dir)
        state = jrnl.replay_journal(journal)
        html = tline.render_dashboard(
            artifacts,
            title="Test fleet",
            manifest=result.manifest,
            journal_text=jrnl.render_progress(jrnl.progress_from_state(state)),
        )
        assert html.startswith("<!DOCTYPE html>")
        # self-contained: no network fetches, no scripts
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        for marker in ("Fleet ranking", "fire-00", "fire-01", "<svg", "Journal summary"):
            assert marker in html, f"missing dashboard section: {marker}"

    def test_escapes_hostile_labels(self, campaign):
        _, _, timeline_dir = campaign
        artifacts = tline.load_artifacts(timeline_dir)
        artifacts[0]["job_id"] = "<script>alert(1)</script>"
        artifacts[0]["runs"][0]["label"] = "<img onerror=x>"
        html = tline.render_dashboard(artifacts)
        assert "<script>alert" not in html
        assert "<img onerror" not in html

    def test_perfwatch_section(self, campaign):
        _, _, timeline_dir = campaign
        artifacts = tline.load_artifacts(timeline_dir)
        trajectory = {
            "perfwatch_version": 1,
            "scenario": "sim.timeline_overhead",
            "records": [
                {
                    "wall_s": [0.5, 0.6],
                    "metrics": {
                        "armed_overhead_fraction": {
                            "value": 0.01, "unit": "", "direction": "lower",
                        }
                    },
                }
            ],
        }
        html = tline.render_dashboard(artifacts, perfwatch=[trajectory])
        assert "sim.timeline_overhead" in html


class TestCLI:
    def test_dashboard_verb_writes_html(self, campaign, tmp_path, capsys):
        result, journal, timeline_dir = campaign
        manifest_path = tmp_path / "manifest.json"
        result.write_manifest(manifest_path)
        out_path = tmp_path / "fleet.html"
        code = main(
            [
                "dashboard",
                "--timeline", str(timeline_dir),
                "--manifest", str(manifest_path),
                "--journal", str(journal),
                "-o", str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""  # product went to the file, not stdout
        html = out_path.read_text()
        assert "Fleet ranking" in html
        assert "http://" not in html and "https://" not in html

    def test_dashboard_to_stdout(self, campaign, capsys):
        _, _, timeline_dir = campaign
        assert main(["dashboard", "--timeline", str(timeline_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("<!DOCTYPE html>")

    def test_dashboard_missing_dir_exits_one(self, tmp_path, capsys):
        assert main(["dashboard", "--timeline", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_journal_summary_json_stdout_is_pure(self, campaign, capsys):
        _, journal, _ = campaign
        assert main(["journal", "summary", str(journal), "--json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout parses as one JSON document
        assert doc["total"] == 2 and doc["done"] == 2 and doc["complete"]
        assert doc["status"] == "ok"

    def test_journal_report_json_stdout_is_pure(self, campaign, capsys):
        _, journal, _ = campaign
        assert main(["journal", "report", str(journal), "--json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_bench_report_json_stdout_is_pure(self, tmp_path, capsys):
        assert main(
            ["bench", "report", "--json", "--history", str(tmp_path / "hist")]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "no history" in captured.err

    def test_campaign_parser_accepts_timeline(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "--timeline", "tl"])
        assert args.timeline == "tl"
        args = build_parser().parse_args(
            ["dashboard", "--timeline", "tl", "-o", "x.html"]
        )
        assert args.command == "dashboard" and args.output == "x.html"

    def test_tail_renders_timeline_events(self, campaign, capsys):
        _, journal, _ = campaign
        assert main(["tail", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "timeline.captured" in out
        # one suite point = 3 benchmark runs captured per job
        assert "runs=3" in out


class TestOlderArtifacts:
    def test_runs_with_mode_keys_still_render(self, campaign, tmp_path, capsys):
        """Artifacts from 1.10.0 and earlier record each run's ``engine`` and
        ``integration``; schema version 1 readers still take them."""
        _, _, timeline_dir = campaign
        artifact = tline.load_artifacts(timeline_dir)[0]
        for run in artifact["runs"]:
            assert "engine" not in run and "integration" not in run
            run.update(engine="vectorized", integration="vectorized")
        old_dir = tmp_path / "older"
        old_dir.mkdir()
        tline.artifact_path(old_dir, artifact["job_id"]).write_text(
            json.dumps(artifact, sort_keys=True) + "\n"
        )

        assert main(["dashboard", "--timeline", str(old_dir)]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")
        aggregator = tline.FleetAggregator()
        aggregator.add_directory(old_dir)
        assert aggregator.runs_total == len(artifact["runs"])
        assert aggregator.audits_failed == 0


class TestVizHeadlessGuard:
    def test_sets_agg_when_headless_and_matplotlib_present(self, monkeypatch):
        env = {}
        monkeypatch.setattr(viz, "_matplotlib_available", lambda: True)
        assert viz.ensure_headless_backend(env) is True
        assert env["MPLBACKEND"] == "Agg"

    def test_respects_existing_display(self, monkeypatch):
        monkeypatch.setattr(viz, "_matplotlib_available", lambda: True)
        env = {"DISPLAY": ":0"}
        assert viz.ensure_headless_backend(env) is False
        assert "MPLBACKEND" not in env

    def test_respects_user_backend_choice(self, monkeypatch):
        monkeypatch.setattr(viz, "_matplotlib_available", lambda: True)
        env = {"MPLBACKEND": "TkAgg"}
        assert viz.ensure_headless_backend(env) is False
        assert env["MPLBACKEND"] == "TkAgg"

    def test_noop_without_matplotlib(self, monkeypatch):
        monkeypatch.setattr(viz, "_matplotlib_available", lambda: False)
        env = {}
        assert viz.ensure_headless_backend(env) is False
        assert env == {}
