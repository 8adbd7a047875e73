"""Flight-recorder tests: events, writer, reader, replay, progress, export.

The contracts pinned here:

* every emitted event validates against the schema, and the schema rejects
  type/field drift (unknown types, unknown fields, bools posing as ints);
* journal appends are crash-safe — a journal truncated at *any* byte
  offset parses to a prefix of the full event list (hypothesis sweeps the
  offsets), and the torn tail is flagged, never fatal;
* replaying a fault-injected campaign's journal reconstructs exactly the
  per-job attempt/outcome rows the manifest records (serial and pooled);
* the journal never perturbs results: manifest fingerprints are identical
  with the recorder on or off;
* cache accounting balances: ``hits + misses == attempts``, with retries
  counted as the extra misses of work they are;
* trace export produces schema-valid Chrome trace-event JSON with one
  slice per attempt; the anomaly report flags stragglers, retry storms,
  and cache-hit-rate collapse and stays quiet on clean runs.
"""

import dataclasses
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import journal as jrnl
from repro import telemetry as tele
from repro.campaign import CampaignRunner, ResultCache
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.exceptions import CampaignExecutionError, JournalError
from repro.faults import FaultPlan
from repro.experiments import PAPER_CONFIG

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    core_counts=(16,),
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


def _jobs(n=3, *, faulty=(), transient_failures=1, seed=7):
    """n quick jobs; ids listed in ``faulty`` get a transient-fault plan."""
    return [
        CampaignJob(
            job_id=f"j{i}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
            core_counts=(16,),
            seed=i,
            config=QUICK_CONFIG,
            faults=FaultPlan(transient_failures=transient_failures, seed=seed)
            if f"j{i}" in faulty
            else None,
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Event schema


class TestEventSchema:
    def _event(self, **overrides):
        base = {
            "v": jrnl.JOURNAL_VERSION,
            "event": "job.started",
            "run_id": "r-1",
            "t_mono": 1.0,
            "t_unix": 1700000000.0,
            "t_utc": "2023-11-14T22:13:20Z",
            "pid": 1,
            "process": "main",
            "job": "j0",
            "attempt": 0,
        }
        base.update(overrides)
        return base

    def test_valid_event_passes(self):
        assert jrnl.validate_event(self._event()) == []

    def test_unknown_event_type_rejected(self):
        problems = jrnl.validate_event(self._event(event="job.vanished"))
        assert any("unknown event type" in p for p in problems)

    def test_unknown_field_rejected(self):
        problems = jrnl.validate_event(self._event(surprise=1))
        assert any("unknown field" in p for p in problems)

    def test_missing_required_field_rejected(self):
        event = self._event()
        del event["job"]
        assert any("missing field 'job'" in p for p in jrnl.validate_event(event))

    def test_bool_is_not_an_int(self):
        problems = jrnl.validate_event(self._event(attempt=True))
        assert any("must not be a bool" in p for p in problems)

    def test_bad_run_stop_status_rejected(self):
        event = self._event(event="run.stop", status="exploded", jobs_failed=0, total_wall_s=0.0)
        del event["job"]
        del event["attempt"]
        assert any("run.stop status" in p for p in jrnl.validate_event(event))

    def test_wrong_version_rejected(self):
        problems = jrnl.validate_event(self._event(v=jrnl.JOURNAL_VERSION + 1))
        assert any("unsupported" in p for p in problems)

    def test_non_dict_rejected(self):
        assert jrnl.validate_event([1, 2]) != []

    def test_check_event_raises(self):
        with pytest.raises(JournalError):
            jrnl.check_event(self._event(event="job.vanished"))

    def test_every_event_type_has_a_spec(self):
        from repro.journal.events import EVENT_FIELDS

        assert set(jrnl.EVENT_TYPES) == set(EVENT_FIELDS)
        assert "run.start" in jrnl.EVENT_TYPES
        assert "fault.injected" in jrnl.EVENT_TYPES


# ---------------------------------------------------------------------------
# Writer


class TestWriter:
    def test_emit_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with jrnl.JournalWriter(path, label="t") as writer:
            record = writer.emit(
                "run.start", label="t", jobs=1, workers=1,
                retries_allowed=0, keep_going=False, cache_enabled=False,
            )
        events = jrnl.read_events(path)
        assert len(events) == 1
        assert events[0] == record
        assert events[0]["pid"] == os.getpid()
        assert events[0]["t_utc"].endswith("Z")

    def test_invalid_event_not_written(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = jrnl.JournalWriter(path)
        with pytest.raises(JournalError):
            writer.emit("job.started", job="j0")  # missing attempt
        writer.close()
        assert jrnl.read_events(path) == []

    def test_closed_writer_refuses(self, tmp_path):
        writer = jrnl.JournalWriter(tmp_path / "j.jsonl")
        writer.close()
        writer.close()  # idempotent
        assert writer.closed
        with pytest.raises(JournalError):
            writer.emit("job.started", job="j", attempt=0)

    def test_finalize_writes_summary_sidecar(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = jrnl.JournalWriter(path, label="t")
        writer.emit(
            "run.start", label="t", jobs=0, workers=1,
            retries_allowed=0, keep_going=False, cache_enabled=False,
        )
        summary = writer.finalize(status="ok", jobs_failed=0, total_wall_s=1.5)
        assert writer.closed
        sidecar = json.loads((tmp_path / "j.jsonl.summary.json").read_text())
        assert sidecar == summary
        assert sidecar["status"] == "ok"
        assert sidecar["events"] == 2  # run.start + run.stop
        assert sidecar["sha256"] == jrnl.journal_digest(path)

    def test_two_writers_share_one_file(self, tmp_path):
        # The pool-worker arrangement: same file, separate handles.
        path = tmp_path / "j.jsonl"
        a = jrnl.JournalWriter(path, run_id="r", process="main")
        b = jrnl.JournalWriter(path, run_id="r", process="worker-9")
        a.emit("job.started", job="j0", attempt=0)
        b.emit("job.started", job="j1", attempt=0)
        a.emit("job.completed", job="j0", attempts=1, wall_s=0.1)
        a.close()
        b.close()
        events = jrnl.read_events(path)
        assert [e["event"] for e in events] == [
            "job.started", "job.started", "job.completed",
        ]
        assert {e["process"] for e in events} == {"main", "worker-9"}

    def test_new_run_id_sanitizes_label(self):
        run_id = jrnl.new_run_id("weird label/!")
        assert "/" not in run_id and " " not in run_id
        assert run_id.startswith("weird-label")

    def test_rusage_fields_sane(self):
        fields = jrnl.rusage_fields()
        assert set(fields) == {"cpu_user_s", "cpu_system_s", "max_rss_bytes"}
        if fields["max_rss_bytes"] is not None:  # POSIX
            assert fields["max_rss_bytes"] > 0
            assert fields["cpu_user_s"] >= 0.0


# ---------------------------------------------------------------------------
# Reader: torn tails, follower, truncation property


def _fixture_journal(tmp_path, *, jobs=3):
    """A complete synthetic journal; returns (path, events)."""
    path = tmp_path / "fixture.jsonl"
    writer = jrnl.JournalWriter(path, label="fix")
    writer.emit(
        "run.start", label="fix", jobs=jobs, workers=1,
        retries_allowed=1, keep_going=True, cache_enabled=False,
    )
    for i in range(jobs):
        writer.emit("job.scheduled", job=f"j{i}", key=f"k{i}", index=i)
    for i in range(jobs):
        writer.emit("job.started", job=f"j{i}", attempt=0)
        writer.emit("job.completed", job=f"j{i}", attempts=1, wall_s=0.5 + i)
    writer.finalize(status="ok", jobs_failed=0, total_wall_s=3.0, summary=False)
    return path, jrnl.read_events(path)


class TestReader:
    def test_torn_tail_dropped_and_flagged(self, tmp_path):
        path, events = _fixture_journal(tmp_path)
        data = path.read_bytes() + b'{"event": "job.star'
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data)
        scan = jrnl.scan_journal(torn)
        assert scan.torn_tail
        assert scan.malformed == 0
        assert scan.events == events

    def test_malformed_line_skipped_or_strict(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"event": "x"}\nnot json\n[1, 2]\n')
        scan = jrnl.scan_journal(path)
        assert scan.malformed == 2
        assert len(scan.events) == 1
        with pytest.raises(JournalError):
            jrnl.scan_journal(path, strict=True)

    def test_follower_polls_incrementally(self, tmp_path):
        path = tmp_path / "live.jsonl"
        follower = jrnl.JournalFollower(path)
        assert follower.poll() == []  # file not created yet
        writer = jrnl.JournalWriter(path, run_id="r")
        writer.emit("job.started", job="j0", attempt=0)
        assert [e["job"] for e in follower.poll()] == ["j0"]
        assert follower.poll() == []
        writer.emit("job.completed", job="j0", attempts=1, wall_s=0.1)
        writer.close()
        assert [e["event"] for e in follower.poll()] == ["job.completed"]

    def test_follower_waits_out_partial_lines(self, tmp_path):
        path = tmp_path / "live.jsonl"
        line = json.dumps({"event": "job.started", "job": "j0"}) + "\n"
        with open(path, "w") as handle:
            handle.write(line)
            handle.write('{"event": "job.comp')  # torn mid-write
        follower = jrnl.JournalFollower(path)
        assert len(follower.poll()) == 1
        with open(path, "a") as handle:
            handle.write('leted", "job": "j0"}\n')
        polled = follower.poll()
        assert [e["event"] for e in polled] == ["job.completed"]

    def test_validate_events_reports_indices(self, tmp_path):
        path, events = _fixture_journal(tmp_path)
        assert jrnl.validate_events(events) == []
        problems = jrnl.validate_events(events + [{"event": "job.vanished"}])
        assert problems
        assert all(f"event {len(events) + 1}" in p for p in problems)

    @given(fraction=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_truncation_at_any_offset_yields_event_prefix(self, fraction, tmp_path_factory):
        """The crash-safety property: cut anywhere, parse every whole line."""
        tmp_path = tmp_path_factory.mktemp("trunc")
        path, events = _fixture_journal(tmp_path)
        raw = path.read_bytes()
        # Journal bytes vary run to run (timestamps), so draw a fixed-range
        # fraction and scale it onto this file's [0, len] offset range.
        cut = round(fraction * len(raw) / 10_000)
        truncated = tmp_path / "cut.jsonl"
        truncated.write_bytes(raw[:cut])
        scan = jrnl.scan_journal(truncated)
        assert scan.malformed == 0
        assert scan.events == events[: len(scan.events)]  # a strict prefix
        # the tail is torn exactly when the cut landed mid-line
        assert scan.torn_tail == (cut > 0 and raw[:cut][-1:] != b"\n")
        # replay of any prefix never raises and never invents jobs
        state = jrnl.replay(scan.events)
        assert set(state.jobs) <= {f"j{i}" for i in range(3)}


# ---------------------------------------------------------------------------
# Replay vs the campaign manifest (the crash-recovery contract)


class TestReplayMatchesManifest:
    def _check(self, result, path):
        state = jrnl.replay_journal(path)
        assert state.complete
        table = jrnl.attempt_table(state)
        assert set(table) == {row["job_id"] for row in result.manifest["jobs"]}
        for row in result.manifest["jobs"]:
            replayed = table[row["job_id"]]
            assert replayed["status"] == row["status"]
            assert replayed["attempts"] == row["attempts"]
            assert replayed["cache_status"] == row["cache_status"]
        return state

    def test_serial_fault_injected_campaign(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = CampaignRunner(retries=2, keep_going=True, journal=path)
        result = runner.run(_jobs(3, faulty=("j1",)), label="serial")
        state = self._check(result, path)
        assert state.stop_status == "ok"
        assert state.jobs["j1"].attempts == 2  # one injected failure + success
        assert state.faults and state.faults[0]["kind"] == "transient"

    def test_pooled_fault_injected_campaign(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = CampaignRunner(workers=2, retries=2, keep_going=True, journal=path)
        result = runner.run(_jobs(4, faulty=("j1",)), label="pooled")
        state = self._check(result, path)
        assert state.jobs["j1"].attempts == 2  # one injected failure + success
        assert [(f["kind"], f["scope"], f["attempt"]) for f in state.faults] == [
            ("transient", "j1", 0)
        ]
        heartbeat_events = [e for e in jrnl.read_events(path) if e["event"] == "worker.heartbeat"]
        if result.manifest["workers_used"] > 1:
            assert heartbeat_events
            worker_pids = {e["pid"] for e in heartbeat_events}
            assert os.getpid() not in worker_pids

    def test_warm_cache_run_replays_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(3)
        CampaignRunner(cache=cache).run(jobs, label="cold")
        path = tmp_path / "warm.jsonl"
        result = CampaignRunner(cache=cache, journal=path).run(jobs, label="warm")
        state = self._check(result, path)
        assert all(j.status == "cached" for j in state.jobs.values())
        assert state.cache_enabled

    def test_exhausted_job_replays_as_failed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = CampaignRunner(retries=1, keep_going=True, journal=path)
        result = runner.run(
            _jobs(2, faulty=("j0",), transient_failures=5), label="exhausted"
        )
        state = self._check(result, path)
        assert state.stop_status == "failed"
        assert state.jobs["j0"].status == "failed"
        assert state.jobs["j0"].error_type == "TransientFault"

    def test_fail_fast_abort_still_finalizes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = CampaignRunner(retries=0, journal=path)
        with pytest.raises(CampaignExecutionError):
            runner.run(_jobs(2, faulty=("j0",), transient_failures=5), label="abort")
        state = jrnl.replay_journal(path)
        assert state.complete
        assert state.stop_status == "aborted"

    def test_journal_does_not_change_fingerprint(self, tmp_path):
        jobs = _jobs(2, faulty=("j1",))
        with_journal = CampaignRunner(
            retries=2, keep_going=True, journal=tmp_path / "a.jsonl"
        ).run(jobs, label="x")
        without = CampaignRunner(retries=2, keep_going=True).run(jobs, label="x")
        assert with_journal.manifest["fingerprint"] == without.manifest["fingerprint"]
        assert with_journal.manifest["journal"]["events"] > 0
        assert without.manifest["journal"] is None

    def test_manifest_journal_block_matches_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = CampaignRunner(journal=path).run(_jobs(2), label="x")
        block = result.manifest["journal"]
        sidecar = json.loads((tmp_path / "run.jsonl.summary.json").read_text())
        assert block["sha256"] == sidecar["sha256"] == jrnl.journal_digest(path)
        assert block["events"] == sidecar["events"] == len(jrnl.read_events(path))
        assert block["run_id"] == sidecar["run_id"]

    def test_caller_owned_writer_not_finalized(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = jrnl.JournalWriter(path, label="mine")
        result = CampaignRunner(journal=writer).run(_jobs(2), label="x")
        assert not writer.closed  # caller keeps ownership
        state = jrnl.replay_journal(path)
        assert not state.complete  # no run.stop yet
        writer.finalize(status="ok", jobs_failed=0, total_wall_s=1.0)
        assert jrnl.replay_journal(path).complete
        assert result.manifest["journal"]["sha256"] is None  # digest needs finalize

    def test_all_journal_events_validate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CampaignRunner(workers=2, retries=2, keep_going=True, journal=path).run(
            _jobs(4, faulty=("j1",)), label="drill"
        )
        events = jrnl.read_events(path)
        assert events
        assert jrnl.validate_events(events) == []


class TestFaultEventsReachTheJournal:
    """Every injection lands in the run's journal, whichever process runs it.

    The meter dropout and the contained crash raise nothing to the
    runner, so only the injector's own writer can record them.
    """

    #: job id -> (the one fault kind its plan injects, the plan).
    PLANS = {
        "j0": ("transient", FaultPlan(transient_failures=1, seed=7)),
        "j1": ("flaky", FaultPlan(transient_probability=0.5, seed=1)),
        "j2": ("meter-dropout", FaultPlan(meter_dropout=0.3, seed=3)),
        "j3": (
            "node-crash",
            FaultPlan(node_crash_probability=0.4, containment="benchmark", seed=0),
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journaled_kinds_match_the_counter(self, tmp_path, workers):
        jobs = [
            dataclasses.replace(job, faults=self.PLANS[job.job_id][1])
            for job in _jobs(4)
        ]
        path = tmp_path / "run.jsonl"
        session = tele.TelemetrySession()
        with tele.use(session):
            result = CampaignRunner(
                workers=workers, retries=2, keep_going=True, journal=path
            ).run(jobs, label="faults")
        assert result.ok
        events = jrnl.read_events(path)
        assert jrnl.validate_events(events) == []
        faults = [e for e in events if e["event"] == "fault.injected"]
        kind_of = {job_id: kind for job_id, (kind, _) in self.PLANS.items()}
        assert all(e["kind"] == kind_of[e["scope"]] for e in faults)
        counter = session.metrics.as_dict()["tgi_faults_injected_total"]["samples"]
        counted = {s["labels"]["kind"]: s["value"] for s in counter}
        assert Counter(e["kind"] for e in faults) == counted
        assert set(counted) == set(kind_of.values())
        if result.manifest["workers_used"] > 1:
            assert all(e["process"].startswith("worker-") for e in faults)


# ---------------------------------------------------------------------------
# Cache accounting invariant (hits + misses == attempts)


class TestCacheAccounting:
    def test_retries_count_as_misses(self, tmp_path):
        result = CampaignRunner(retries=2, keep_going=True).run(
            _jobs(3, faulty=("j1",)), label="x"
        )
        stats = result.cache_stats
        assert stats["jobs"] == 3
        assert stats["attempts"] == 4  # 3 first attempts + 1 retry
        assert stats["hits"] + stats["misses"] == stats["attempts"]
        assert stats["hit_rate"] == 0.0

    def test_warm_run_balances(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(2)
        CampaignRunner(cache=cache).run(jobs, label="cold")
        warm = CampaignRunner(cache=cache).run(jobs, label="warm")
        stats = warm.cache_stats
        assert stats == {
            "jobs": 2,
            "attempts": 2,
            "hits": 2,
            "misses": 0,
            "invalidations": 0,
            "hit_rate": 1.0,
        }

    def test_run_cache_stats_validates_alignment(self):
        from repro.campaign.runner import run_cache_stats

        with pytest.raises(Exception):
            run_cache_stats(["hit", "computed"], executions=[0])

    def test_run_cache_stats_without_executions(self):
        from repro.campaign.runner import run_cache_stats

        stats = run_cache_stats(["hit", "computed", "failed"])
        assert stats["attempts"] == 3
        assert stats["hits"] == 1
        assert stats["misses"] == 2


# ---------------------------------------------------------------------------
# Progress snapshots


class TestProgress:
    def test_complete_run_snapshot_is_reproducible(self, tmp_path):
        path, _ = _fixture_journal(tmp_path)
        state = jrnl.replay_journal(path)
        a = jrnl.progress_from_state(state)
        b = jrnl.progress_from_state(state)
        assert a == b
        assert a.complete and a.status == "ok"
        assert a.done == 3 and a.failed == 0 and a.remaining == 0
        assert a.eta_s == 0.0

    def test_in_flight_snapshot_counts_and_eta(self, tmp_path):
        path = tmp_path / "live.jsonl"
        writer = jrnl.JournalWriter(path, run_id="r")
        writer.emit(
            "run.start", label="live", jobs=4, workers=1,
            retries_allowed=0, keep_going=False, cache_enabled=False,
        )
        start = jrnl.read_events(path)[0]["t_mono"]
        for i in range(4):
            writer.emit("job.scheduled", job=f"j{i}", key=f"k{i}", index=i)
        writer.emit("job.started", job="j0", attempt=0)
        writer.emit("job.completed", job="j0", attempts=1, wall_s=1.0)
        writer.emit("job.started", job="j1", attempt=0)
        writer.close()
        state = jrnl.replay_journal(path)
        progress = jrnl.progress_from_state(state, now_mono=start + 10.0)
        assert not progress.complete
        assert progress.done == 1 and progress.running == 1 and progress.scheduled == 2
        assert progress.remaining == 3
        assert progress.throughput_jobs_per_s == pytest.approx(0.1)
        assert progress.eta_s == pytest.approx(30.0)
        assert progress.slowest_running[0][0] == "j1"

    def test_render_contains_bar_and_counts(self, tmp_path):
        path, _ = _fixture_journal(tmp_path)
        text = jrnl.render_progress(
            jrnl.progress_from_state(jrnl.replay_journal(path))
        )
        assert "3/3 jobs" in text
        assert "#" in text
        assert "run finished: status=ok" in text


# ---------------------------------------------------------------------------
# Trace export


class TestTraceExport:
    def test_journal_slices_one_per_attempt(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CampaignRunner(retries=2, keep_going=True, journal=path).run(
            _jobs(2, faulty=("j1",)), label="trace"
        )
        events = jrnl.read_events(path)
        trace = jrnl.chrome_trace(journal_events=events)
        assert jrnl.validate_trace(trace) == []
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        started = [e for e in events if e["event"] == "job.started"]
        assert len(slices) == len(started)  # one slice per attempt
        names = {s["name"] for s in slices}
        assert "j1 (attempt 0)" in names and "j1 (attempt 1)" in names
        instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert {"run.start", "run.stop", "fault.injected"} <= instants

    def test_open_attempt_becomes_flagged_slice(self):
        events = [
            {"event": "job.started", "job": "j0", "attempt": 0,
             "t_unix": 100.0, "pid": 1, "process": "main"},
        ]
        trace = jrnl.chrome_trace(journal_events=events)
        assert jrnl.validate_trace(trace) == []
        (slice_,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slice_["args"]["open"] is True
        assert slice_["dur"] == 0.0

    def test_timestamps_normalized_to_origin(self, tmp_path):
        path, _ = _fixture_journal(tmp_path)
        trace = jrnl.chrome_trace(journal_events=jrnl.read_events(path))
        timed = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert min(timed) == 0.0
        assert trace["otherData"]["origin_unix"] > 0

    def test_telemetry_overlay_aligns_clocks(self):
        export = {
            "epoch_unix": 1000.0,
            "spans": [
                {"name": "campaign.run", "t_start": 1.0, "t_end": 3.0,
                 "process": "main", "attrs": {"jobs": 2}},
                {"name": "open.span", "t_start": 1.0, "t_end": None,
                 "process": "main", "attrs": {}},
            ],
        }
        rows = jrnl.telemetry_trace_events(export)
        slices = [e for e in rows if e["ph"] == "X"]
        assert len(slices) == 1  # the open span is skipped
        assert slices[0]["ts"] == pytest.approx(1001.0 * 1e6)
        assert slices[0]["dur"] == pytest.approx(2.0 * 1e6)

    def test_worker_process_pids_are_stable(self):
        from repro.journal.trace_export import _process_pid

        assert _process_pid("worker-42") == 42
        assert _process_pid("main") == _process_pid("main")
        assert _process_pid("main") != _process_pid("other")

    def test_export_needs_some_input(self):
        with pytest.raises(JournalError):
            jrnl.chrome_trace()

    def test_validate_trace_catches_violations(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 1},
            {"name": "x", "ph": "X", "ts": -1, "pid": 1, "tid": 1},
            {"ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "q"},
        ]}
        problems = jrnl.validate_trace(bad)
        assert len(problems) >= 3
        assert jrnl.validate_trace({"traceEvents": "nope"}) == ["traceEvents must be a list"]


# ---------------------------------------------------------------------------
# Anomaly report


def _synthetic_state(durations, *, retries_allowed=2, attempts=None, statuses=None):
    state = jrnl.RunState(
        run_id="r", label="synth", jobs_expected=len(durations),
        retries_allowed=retries_allowed, started=True, stopped=True,
        stop_status="ok",
    )
    for i, wall in enumerate(durations):
        job = state.job(f"j{i}")
        job.index = i
        job.status = statuses[i] if statuses else "completed"
        job.wall_s = wall
        job.attempts = attempts[i] if attempts else 1
    return state


class TestReport:
    def test_clean_run_reports_clean(self, tmp_path):
        path, _ = _fixture_journal(tmp_path)
        report = jrnl.analyze_state(jrnl.replay_journal(path))
        assert report.clean
        assert "no anomalies" in jrnl.render_report(report)

    def test_straggler_flagged(self):
        state = _synthetic_state([1.0, 1.1, 0.9, 1.0, 1.05, 30.0])
        report = jrnl.analyze_state(state)
        stragglers = report.by_kind("straggler")
        assert [a.subject for a in stragglers] == ["j5"]
        assert stragglers[0].severity > 3.5

    def test_uniform_durations_never_flag(self):
        state = _synthetic_state([1.0, 1.0, 1.0, 1.0, 1.0])
        assert jrnl.analyze_state(state).by_kind("straggler") == []

    def test_retry_storm_run_level(self):
        state = _synthetic_state([1.0] * 4, attempts=[2, 2, 1, 1])
        report = jrnl.analyze_state(state)
        run_storms = [a for a in report.by_kind("retry-storm") if a.subject == "run"]
        assert run_storms and run_storms[0].severity == pytest.approx(0.5)

    def test_retry_budget_exhaustion_flagged_per_job(self):
        state = _synthetic_state([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                                 retries_allowed=2, attempts=[3, 1, 1, 1, 1, 1, 1, 1])
        report = jrnl.analyze_state(state)
        per_job = [a for a in report.by_kind("retry-storm") if a.subject == "j0"]
        assert per_job

    def test_cache_collapse_flagged(self):
        statuses = ["cached"] * 4 + ["completed"] * 4
        state = _synthetic_state([0.0] * 4 + [1.0] * 4, statuses=statuses)
        state.cache_enabled = True
        report = jrnl.analyze_state(state)
        collapses = report.by_kind("cache-collapse")
        assert collapses and collapses[0].severity == pytest.approx(1.0)

    def test_no_collapse_without_cache(self):
        statuses = ["cached"] * 4 + ["completed"] * 4
        state = _synthetic_state([0.0] * 4 + [1.0] * 4, statuses=statuses)
        state.cache_enabled = False
        assert jrnl.analyze_state(state).by_kind("cache-collapse") == []

    def test_report_to_dict_round_trips_thresholds(self):
        state = _synthetic_state([1.0, 1.0, 1.0, 30.0, 1.0])
        report = jrnl.analyze_state(state, straggler_z=2.0)
        data = jrnl.report_to_dict(report)
        assert data["thresholds"]["straggler_z"] == 2.0
        assert json.loads(json.dumps(data)) == data


# ---------------------------------------------------------------------------
# Per-job resource accounting


class TestRusageDeltas:
    """``job.completed`` reports per-attempt CPU, not process-cumulative CPU."""

    def test_serial_jobs_report_disjoint_cpu(self, tmp_path):
        """Sum of per-job CPU must fit inside the process's cumulative CPU.

        ``getrusage`` counters only ever grow, so if each job reported the
        cumulative value (the old bug) the N-th job would inherit all its
        predecessors' CPU and the sum across jobs would exceed the
        process total by roughly a factor of N/2.
        """
        path = tmp_path / "rusage.jsonl"
        runner = CampaignRunner(workers=1, journal=path)
        runner.run(_jobs(4), label="rusage")
        state = jrnl.replay(jrnl.read_events(path))
        per_job = [
            (job.cpu_user_s or 0.0) + (job.cpu_system_s or 0.0)
            for job in state.jobs.values()
        ]
        total = jrnl.rusage_fields()
        if total["cpu_user_s"] is None:
            pytest.skip("no resource module on this platform")
        cumulative = total["cpu_user_s"] + total["cpu_system_s"]
        assert all(cpu >= 0.0 for cpu in per_job)
        assert sum(per_job) <= cumulative + 0.05

    def test_rusage_delta_clamps_and_degrades(self):
        start = jrnl.rusage_fields()
        delta = jrnl.rusage_delta(start)
        if start["cpu_user_s"] is None:
            assert delta["cpu_user_s"] is None
            return
        assert delta["cpu_user_s"] >= 0.0
        assert delta["cpu_system_s"] >= 0.0
        # peak RSS is a high-water mark: absolute, never differenced
        assert delta["max_rss_bytes"] >= start["max_rss_bytes"]
        # no snapshot -> cumulative fallback
        cumulative = jrnl.rusage_delta(None)
        assert cumulative["cpu_user_s"] >= start["cpu_user_s"]
