"""Executor drills: end-to-end campaign plays, selected with ``-m drill``.

Each drill drives :class:`~repro.campaign.CampaignRunner` or
:class:`~repro.fleet.FleetRankingPipeline` the way an operator would: a
fleet run through the Python API, then the same artifacts through the CLI
(``repro.cli.main``), with the assertions the artifacts must satisfy.
They cost tens of seconds, so the default run skips them (``addopts``
deselects the ``drill`` marker); run them with ``pytest -m drill``.  CI's
``fault-injection``, ``journal-drill``, ``resume-drill``,
``dashboard-drill`` and ``fleet-rank-drill`` jobs add ``--basetemp
artifacts/pytest`` so the drill outputs land under ``artifacts/``.
"""

import dataclasses
import json

import pytest

from repro import journal as jrnl
from repro import timeline as tline
from repro.campaign import CampaignRunner, ResultCache
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.cli import main
from repro.experiments import PAPER_CONFIG
from repro.faults import FaultPlan
from repro.fleet import FLEET_BENCHMARKS, FleetRankingPipeline, generated_fleet_members

from .oracles import evaluate_system

pytestmark = pytest.mark.drill

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)

#: The drill fleet's machine mix, repeated to the drill's size.
MACHINES = [("fire", 1), ("fire", 2), ("system_g", 1), ("modern_cluster", 1), ("fire", 4)]


def fleet(repeats, *, faulty_every=0):
    """Quick one-point jobs over :data:`MACHINES`; every ``faulty_every``-th
    job takes simulated node-crash faults."""
    return [
        CampaignJob(
            job_id=f"fleet-{i:03d}",
            cluster=ClusterRef(kind="preset", name=name, num_nodes=nodes),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
            faults=FaultPlan(node_crash_probability=0.4, seed=i)
            if faulty_every and i % faulty_every == 0
            else None,
        )
        for i, (name, nodes) in enumerate(MACHINES * repeats)
    ]


@pytest.fixture(autouse=True)
def _no_leaked_ambient():
    jrnl.detach()
    yield
    assert jrnl.ambient() is None, "drill leaked an ambient journal writer"


class TestFaultInjectionDrill:
    """``tgi campaign`` under injected faults: retries heal a transient
    fault, ``--keep-going`` lands the survivors, and contained benchmark
    crashes yield a coverage-annotated TGI."""

    def test_transient_fault_healed_by_retries(self, tmp_path):
        manifest = tmp_path / "retry-manifest.json"
        assert main([
            "campaign", "--workers", "2", "--retries", "2",
            "--inject", "reference:transient:1", "--manifest", str(manifest),
        ]) == 0
        failures = json.loads(manifest.read_text())["failures"]
        assert failures["jobs_retried"] == 1, failures
        assert failures["retries_total"] == 1, failures
        assert failures["jobs_failed"] == 0, failures

    def test_permanent_fault_under_keep_going_exits_3(self, tmp_path):
        manifest = tmp_path / "keepgoing-manifest.json"
        assert main([
            "campaign", "--workers", "2", "--retries", "1", "--keep-going",
            "--inject", "fire-sweep:flaky:1.0", "--manifest", str(manifest),
        ]) == 3
        payload = json.loads(manifest.read_text())
        statuses = {j["job_id"]: j["status"] for j in payload["jobs"]}
        assert statuses == {"reference": "ok", "fire-sweep": "failed"}, statuses
        assert payload["failures"]["jobs_failed"] == 1

    def test_benchmark_crashes_yield_coverage_annotated_tgi(self, tmp_path, capsys):
        assert main([
            "campaign", "--keep-going",
            "--inject", "fire-sweep:benchmark-crash:0.2", "--fault-seed", "42",
        ]) == 0
        captured = capsys.readouterr()
        (tmp_path / "degraded.out").write_text(captured.out)
        (tmp_path / "degraded.err").write_text(captured.err)
        assert "degraded" in captured.err
        assert "coverage" in captured.out


class TestJournalDrill:
    """The flight recorder armed on a fault-injected campaign: the journal
    validates, its replay matches the manifest row for row, and its
    Perfetto export validates."""

    def test_fault_injected_campaign_replays_and_exports(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        manifest_path = tmp_path / "manifest.json"
        assert main([
            "campaign", "--workers", "2", "--retries", "2",
            "--inject", "reference:transient:1",
            "--journal", journal, "--manifest", str(manifest_path),
        ]) == 0
        (tmp_path / "campaign.txt").write_text(capsys.readouterr().out)

        assert main(["journal", "validate", journal]) == 0
        assert main(["journal", "summary", journal]) == 0
        (tmp_path / "summary.txt").write_text(capsys.readouterr().out)
        assert main(["journal", "report", journal, "--json"]) == 0
        report = capsys.readouterr().out
        (tmp_path / "report.json").write_text(report)
        json.loads(report)

        # The replayed attempt state matches the manifest row for row.
        manifest = json.loads(manifest_path.read_text())
        state = jrnl.replay_journal(journal)
        assert state.complete and state.stop_status == "ok", state.stop_status
        table = jrnl.attempt_table(state)
        for row in manifest["jobs"]:
            replayed = table[row["job_id"]]
            for field in ("status", "attempts", "cache_status"):
                assert replayed[field] == row[field], (row["job_id"], field)
        assert manifest["journal"]["sha256"] == jrnl.journal_digest(journal)
        assert state.faults, "injected fault never journaled"

        trace_path = tmp_path / "trace.json"
        assert main([
            "trace", "export", "--journal", journal, "-o", str(trace_path),
        ]) == 0
        trace = json.loads(trace_path.read_text())
        problems = jrnl.validate_trace(trace)
        assert not problems, problems
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


class TestResumeDrill:
    def test_fleet_campaign_killed_mid_run_then_resumed(self, tmp_path):
        """Node-crash faults, a kill mid-run, a pooled resume: same fingerprint."""
        jobs = fleet(3, faulty_every=3)
        reference = CampaignRunner(workers=1, retries=3, keep_going=True).run(
            jobs, label="resume-drill"
        )
        # Leg 1: a sharded run killed mid-campaign by the drill writer.
        # Inline (workers=1) so every event funnels through the crashing
        # parent writer; pool workers would journal via their own handles.
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "run.jsonl"
        crasher = jrnl.CrashingJournalWriter(path, crash_after=40, label="resume-drill")
        with pytest.raises(jrnl.SimulatedCrash):
            CampaignRunner(
                workers=1, shards=4, cache=cache, journal=crasher,
                retries=3, keep_going=True,
            ).run(jobs, label="resume-drill")
        state = jrnl.replay_journal(path)
        assert state.started and not state.stopped  # the crash signature

        # Leg 2: resume the same journal against the same cache, pooled.
        result = CampaignRunner(
            workers=2, shards=4, cache=cache, journal=path,
            retries=3, keep_going=True,
        ).run(jobs, label="resume-drill", resume=True)
        result.write_manifest(tmp_path / "manifest.json")
        assert result.manifest["fingerprint"] == reference.manifest["fingerprint"], (
            "resumed manifest diverged from the uninterrupted reference"
        )
        final = jrnl.replay_journal(path)
        assert final.stopped and final.resumes == 1
        assert final.run_id == state.run_id, "resume minted a new run id"
        sharding = result.manifest["sharding"]
        assert sharding["resumed"] and sharding["jobs_recovered"] > 0
        assert final.faults, "node-crash faults never journaled"

        # The extended journal validates event for event.
        assert main(["journal", "validate", str(path)]) == 0

    def test_cli_shards_then_resume_keeps_the_fingerprint(self, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        journal = str(tmp_path / "cli.jsonl")
        sharded_path = tmp_path / "cli-sharded.json"
        resumed_path = tmp_path / "cli-resumed.json"
        assert main([
            "campaign", "--workers", "2", "--shards", "4",
            "--cache-dir", cache_dir, "--journal", journal,
            "--manifest", str(sharded_path),
        ]) == 0
        assert main([
            "campaign", "--resume", journal, "--cache-dir", cache_dir,
            "--manifest", str(resumed_path),
        ]) == 0
        sharded = json.loads(sharded_path.read_text())
        resumed = json.loads(resumed_path.read_text())
        assert sharded["fingerprint"] == resumed["fingerprint"]
        assert resumed["sharding"]["resumed"] is True
        assert resumed["sharding"]["jobs_recovered"] == len(resumed["jobs"])


class TestDashboardDrill:
    def test_fleet_campaign_timelines_render_a_green_dashboard(self, tmp_path):
        jobs = fleet(10)
        assert len(jobs) >= 50
        timelines = tmp_path / "timelines"
        journal = tmp_path / "fleet.jsonl"
        manifest = tmp_path / "manifest.json"
        result = CampaignRunner(workers=2, journal=journal, timeline=timelines).run(
            jobs, label="dashboard-drill"
        )
        result.write_manifest(manifest)
        assert not result.failed, result.failed
        block = result.manifest["timeline"]
        assert block["artifacts"] == len(jobs), block

        html_path = tmp_path / "fleet.html"
        assert main([
            "dashboard", "--timeline", str(timelines), "--manifest", str(manifest),
            "--journal", str(journal), "-o", str(html_path),
        ]) == 0
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html, "network fetch"
        assert "<script" not in html, "scripts in a static dashboard"
        for section in ("Fleet ranking", "Per-system power timelines", "Journal summary"):
            assert section in html, f"missing section: {section}"

        agg = tline.FleetAggregator()
        agg.add_directory(timelines)
        assert agg.runs_total >= 50, agg.runs_total
        assert agg.audits_failed == 0, f"{agg.audits_failed} audits failed"


class TestFleetRankDrill:
    def test_thousand_systems_match_the_scalar_oracle(self, tmp_path):
        """A 1,000-system batched rank, spot-checked member by member."""
        members = generated_fleet_members(1000, era="2011", fleet_seed=20110615)
        journal = tmp_path / "fleet-rank.jsonl"
        ranking = FleetRankingPipeline(config=QUICK_CONFIG, journal=journal).rank(
            members, label="fleet-rank-drill"
        )
        assert len(ranking) == 1000
        assert ranking.stats["batched"] == 1000
        assert ranking.stats["simulated"] == 0
        assert [r.tgi_rank for r in ranking.rows] == list(range(1, 1001))
        for member in members[::197]:
            row = ranking.row(member.name)
            oracle = evaluate_system(member.cluster.resolve(), QUICK_CONFIG)
            for b in FLEET_BENCHMARKS:
                got, want = row.efficiencies[b], oracle[b]["efficiency"]
                assert abs(got - want) <= 1e-9 * abs(want), (member.name, b)

        # The fleet journal validates event for event.
        assert main(["journal", "validate", str(journal)]) == 0

    def test_cli_fleet_rank_table_and_json(self, tmp_path, capsys):
        assert main(["fleet", "rank", "--count", "50", "--top", "10"]) == 0
        table = capsys.readouterr().out
        (tmp_path / "fleet-rank.txt").write_text(table)
        assert "TGI rank" in table and "MFLOPS/W" in table

        assert main([
            "fleet", "rank", "--count", "50", "--weights", "HPL=2,STREAM=1,IOzone=1",
            "--json",
        ]) == 0
        out = capsys.readouterr().out
        (tmp_path / "fleet-rank.json").write_text(out)
        payload = json.loads(out)
        assert len(payload["rows"]) == 50
        assert payload["rows"][0]["tgi_rank"] == 1
        assert payload["weights"]["HPL"] == 0.5
        assert payload["stats"]["batched"] == 50
