"""Executor tests: dispatch, parity, fallback, crash resume, old artifacts.

The contracts pinned here:

* the campaign contract itself: the default and ``--fleet 6`` campaigns'
  manifest fingerprints, inline and pooled;
* manifests are fingerprint-identical to the plain serial
  :class:`CampaignRunner` manifest for the same jobs — inline, pooled,
  resumed, fault-injected, or degraded to inline, "how it ran" never
  leaks into "what it computed";
* the refill protocol, driven against a fake pool: items are submitted in
  job order, never more than ``workers`` are outstanding, and fail-fast
  stops refilling on the first failed result while still collecting what
  is in flight;
* failure policy: fail-fast raises :class:`CampaignExecutionError`,
  keep-going records the damage;
* resume demands its inputs (journal + cache), rejects journals from a
  different campaign, and rejects jobs whose definition changed since the
  crash (key mismatch);
* the crash drill: killing the run after *every* journal event, then
  resuming, always reconverges to the uninterrupted fingerprint, never
  re-executes a job whose result was durably published (``job.stored``),
  and extends the same journal under the original run id;
* journals and manifests written by older code, which planned shards and
  stole work, still validate, resume and re-fingerprint.
"""

import dataclasses
from concurrent.futures import Future

import pytest

from repro import journal as jrnl
from repro.campaign import (
    CampaignJob,
    CampaignRunner,
    ClusterRef,
    ResultCache,
    cache_key,
    fleet_jobs,
    load_manifest,
    manifest_fingerprint,
    paper_jobs,
    write_manifest,
)
from repro.campaign import runner as runner_module
from repro.campaign.cache import canonical_digest
from repro.campaign.jobs import execute_job
from repro.cli import main
from repro.exceptions import CampaignExecutionError, ReproError
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


LABEL = "campaign"


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


@pytest.fixture(scope="module")
def reference_fingerprint():
    """The serial-runner fingerprint every execution variant must match."""
    result = CampaignRunner(workers=1).run(_jobs(3), label=LABEL)
    return result.manifest["fingerprint"]


# ---------------------------------------------------------------------------
# The campaign contract


class TestCampaignContract:
    @pytest.mark.parametrize(
        "workers, transport", [(1, "inline"), (2, "process-pool")]
    )
    @pytest.mark.parametrize(
        "fleet, fingerprint",
        [
            (0, "8e9f89ca2ae6119580cb1760f70b6c3198ca596000849b7fb63927ecdbde2029"),
            (6, "861f451be87921fc750249f1657a843093573cfda22db36e385672546392ef81"),
        ],
        ids=["paper", "fleet6"],
    )
    def test_manifest_fingerprint_is_pinned(
        self, fleet, fingerprint, workers, transport
    ):
        """What ``tgi campaign [--fleet 6] [--workers 2]`` computes."""
        jobs = paper_jobs(PAPER_CONFIG) + (fleet_jobs(fleet) if fleet else [])
        result = CampaignRunner(workers=workers).run(jobs, label="cli-campaign")
        assert result.manifest["execution"]["transport"] == transport
        assert result.manifest["fingerprint"] == fingerprint, (
            "the campaign computes something else now; the fingerprinted core "
            "also hashes code_version, so a __version__ bump moves this pin"
        )


# ---------------------------------------------------------------------------
# Parity with the runner


class TestSchedulerParity:
    def test_inline_fingerprint_matches_runner(self, reference_fingerprint):
        result = CampaignRunner(workers=1).run(
            _jobs(3), label=LABEL
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["execution"]["transport"] == "inline"
        assert result.manifest["execution"]["resumed"] is False

    def test_pool_fingerprint_matches_runner(self, reference_fingerprint, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = CampaignRunner(workers=2, cache=cache).run(
            _jobs(3), label=LABEL
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["execution"]["transport"] == "process-pool"
        # every computed payload was published worker-side
        assert len(cache) == 3

    def test_failfast_raises_like_runner(self, tmp_path):
        jobs = _jobs(3, faulty=("j1",), transient_failures=99)
        path = tmp_path / "r.jsonl"
        with pytest.raises(CampaignExecutionError) as excinfo:
            CampaignRunner(workers=1, journal=path).run(jobs, label="boom")
        assert excinfo.value.failures[0]["job_id"] == "j1"
        # the inline loop stops at the first exhausted job: j2 never starts
        events = jrnl.read_events(path)
        assert [e["job"] for e in events if e["event"] == "job.started"] == ["j0", "j1"]

    def test_keep_going_records_failures(self):
        jobs = _jobs(3, faulty=("j1",), transient_failures=99)
        result = CampaignRunner(workers=1, keep_going=True).run(
            jobs, label="limp"
        )
        assert [o.job.job_id for o in result.failed] == ["j1"]
        assert result.manifest["failures"]["jobs_failed"] == 1

    def test_retry_parity_with_faults(self):
        # Fault plans are part of the job definition (and so the key), so
        # the reference here is the plain runner on the SAME faulty jobs.
        jobs = _jobs(3, faulty=("j2",), transient_failures=1)
        reference = CampaignRunner(workers=1, retries=1).run(jobs, label=LABEL)
        result = CampaignRunner(workers=1, retries=1).run(
            jobs, label=LABEL
        )
        assert result.manifest["fingerprint"] == reference.manifest["fingerprint"]
        assert result.outcomes[2].attempts == 2

    def test_constructor_validation(self):
        with pytest.raises(ReproError):
            CampaignRunner(workers=0)
        with pytest.raises(ReproError):
            CampaignRunner(retries=-1)


# ---------------------------------------------------------------------------
# The refill protocol and the pool fallbacks, against a fake pool


class _Delivery(Future):
    """A fake pool's future: logs when the runner collects it."""

    def __init__(self, pool, job_id):
        super().__init__()
        self.pool = pool
        self.job_id = job_id

    def result(self, timeout=None):
        self.pool.outstanding -= 1
        self.pool.log.append(("result", self.job_id))
        return super().result(timeout)


class _FakePool:
    """A process-pool stand-in that logs how the runner drives it.

    Each submitted item runs through the real worker shim at once, in this
    process.  With ``die_after`` set, every item submitted after that many
    fails unexecuted with the ``OSError`` a dead pool can raise.
    """

    def __init__(self, die_after=None):
        self.die_after = die_after
        self.submitted = 0
        self.outstanding = 0
        self.log = []

    def submit(self, fn, item):
        future = _Delivery(self, item.job.job_id)
        if self.die_after is not None and self.submitted >= self.die_after:
            future.set_exception(OSError("simulated pool death"))
        else:
            future.set_result(fn(item))
        self.submitted += 1
        self.outstanding += 1
        self.log.append(("submit", item.job.job_id, self.outstanding))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.log.append(("close", cancel_futures))


class TestRefillProtocol:
    def test_submits_in_job_order_within_the_slots(self, monkeypatch):
        pool = _FakePool()
        monkeypatch.setattr(runner_module, "_start_pool", lambda workers: pool)
        CampaignRunner(workers=2).run(_jobs(5), label=LABEL)
        submits = [entry for entry in pool.log if entry[0] == "submit"]
        assert [job_id for _, job_id, _ in submits] == [f"j{i}" for i in range(5)]
        assert max(outstanding for _, _, outstanding in submits) == 2
        assert pool.log[-1] == ("close", False)

    def test_failfast_stops_refilling_but_collects_in_flight(self, monkeypatch):
        pool = _FakePool()
        monkeypatch.setattr(runner_module, "_start_pool", lambda workers: pool)
        jobs = _jobs(5, faulty=("j1",), transient_failures=99)
        with pytest.raises(CampaignExecutionError):
            CampaignRunner(workers=2).run(jobs, label="boom")
        assert pool.log == [
            ("submit", "j0", 1),
            ("submit", "j1", 2),
            ("result", "j0"),
            ("submit", "j2", 2),
            ("result", "j1"),  # j1 failed: nothing is submitted after this
            ("result", "j2"),  # ...but the in-flight j2 is still collected
            ("close", True),
        ]


def _no_pool(workers):
    raise PermissionError("simulated: no process pool on this platform")


class TestPoolFallback:
    @pytest.mark.parametrize(
        "fail_at, transport_name, workers_used",
        [("start", "inline", 1), ("result", "process-pool", 2)],
        ids=["start", "mid-run"],
    )
    def test_fallback_finishes_inline_with_the_serial_fingerprint(
        self, reference_fingerprint, monkeypatch, fail_at, transport_name,
        workers_used
    ):
        dying = _FakePool(die_after=1)
        start = _no_pool if fail_at == "start" else (lambda workers: dying)
        monkeypatch.setattr(runner_module, "_start_pool", start)
        result = CampaignRunner(workers=2).run(_jobs(3), label=LABEL)
        assert result.ok
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["workers_used"] == workers_used
        assert result.manifest["execution"]["transport"] == transport_name


# ---------------------------------------------------------------------------
# Resume: input validation


class TestResumeValidation:
    def test_resume_needs_a_journal(self, tmp_path):
        scheduler = CampaignRunner(cache=ResultCache(tmp_path / "c"))
        with pytest.raises(ReproError, match="needs a journal"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_needs_the_cache(self, tmp_path):
        scheduler = CampaignRunner(journal=tmp_path / "r.jsonl")
        with pytest.raises(ReproError, match="cache"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_needs_an_existing_journal_file(self, tmp_path):
        scheduler = CampaignRunner(
            cache=ResultCache(tmp_path / "c"), journal=tmp_path / "missing.jsonl"
        )
        with pytest.raises(ReproError, match="does not exist"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_rejects_foreign_journal(self, tmp_path):
        path = tmp_path / "other.jsonl"
        writer = jrnl.JournalWriter(path, label="other")
        writer.emit("run.start", label="other", jobs=1, workers=1,
                    retries_allowed=0, keep_going=False, cache_enabled=True)
        writer.emit("job.scheduled", job="stranger", key="ab" * 32, index=0)
        writer.close()
        scheduler = CampaignRunner(
            cache=ResultCache(tmp_path / "c"), journal=path
        )
        with pytest.raises(ReproError, match="stranger"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_rejects_changed_job_definition(self, tmp_path):
        """Same id, different key: the job changed since the crash."""
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        CampaignRunner(cache=cache, journal=path).run(
            _jobs(2), label="orig"
        )
        changed = [
            dataclasses.replace(job, seed=job.seed + 100) for job in _jobs(2)
        ]
        scheduler = CampaignRunner(cache=cache, journal=path)
        with pytest.raises(ReproError, match="definition changed"):
            scheduler.run(changed, resume=True)

    def test_resume_rejects_empty_journal(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        scheduler = CampaignRunner(
            cache=ResultCache(tmp_path / "c"), journal=path
        )
        with pytest.raises(ReproError, match="no run.start"):
            scheduler.run(_jobs(2), resume=True)


# ---------------------------------------------------------------------------
# Resume: behavior


class TestResume:
    def test_resume_of_completed_run_recovers_everything(
        self, reference_fingerprint, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        first = CampaignRunner(cache=cache, journal=path).run(
            _jobs(3), label=LABEL
        )
        second = CampaignRunner(cache=cache, journal=path).run(
            _jobs(3), label=LABEL, resume=True
        )
        assert second.manifest["fingerprint"] == reference_fingerprint
        execution = second.manifest["execution"]
        assert execution["resumed"] is True
        assert execution["jobs_recovered"] == 3
        assert all(o.cache_status == "hit" for o in second.outcomes)
        state = jrnl.replay(jrnl.read_events(path))
        assert state.resumes == 1
        assert state.run_id == first.manifest["journal"]["run_id"]

    def test_crash_then_resume_reconverges(self, reference_fingerprint, tmp_path):
        """Kill the run mid-flight; resume finishes it, same fingerprint."""
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        crasher = jrnl.CrashingJournalWriter(path, crash_after=8, label=LABEL)
        with pytest.raises(jrnl.SimulatedCrash):
            CampaignRunner(cache=cache, journal=crasher).run(
                _jobs(3), label=LABEL
            )
        # the torn run has no run.stop: the crash detector's signal
        state = jrnl.replay(jrnl.read_events(path))
        assert state.started and not state.stopped
        result = CampaignRunner(cache=cache, journal=path).run(
            _jobs(3), label=LABEL, resume=True
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        final = jrnl.replay(jrnl.read_events(path))
        assert final.stopped and final.stop_status == "ok"
        assert final.resumes == 1
        assert final.run_id == state.run_id  # same run, extended journal

    def test_kill_at_every_journal_event_then_resume(self, tmp_path):
        """The resume drill, exhaustively: crash after every single event.

        The byte-offset truncation test proves any torn journal *parses*;
        this proves any torn journal *resumes* — for every possible
        crash point k, the resumed run reconverges to the uninterrupted
        fingerprint, keeps the original run id, and never re-executes a
        job whose ``job.stored`` event (durable publication) predates the
        crash.
        """
        jobs = _jobs(2)
        # Size the drill (and take the reference fingerprint) from a clean
        # uninterrupted run, anchored to the plain runner first.
        probe_path = tmp_path / "probe.jsonl"
        probe = CampaignRunner(
            cache=ResultCache(tmp_path / "probe-cache"), journal=probe_path
        ).run(jobs, label=LABEL)
        reference_fingerprint = probe.manifest["fingerprint"]
        runner_result = CampaignRunner(workers=1).run(jobs, label=LABEL)
        assert reference_fingerprint == runner_result.manifest["fingerprint"]
        total_events = len(jrnl.read_events(probe_path))
        assert total_events >= 8

        for crash_after in range(1, total_events):
            root = tmp_path / f"k{crash_after}"
            root.mkdir()
            cache = ResultCache(root / "cache")
            path = root / "r.jsonl"
            crasher = jrnl.CrashingJournalWriter(
                path, crash_after=crash_after, label=LABEL
            )
            with pytest.raises(jrnl.SimulatedCrash):
                CampaignRunner(cache=cache, journal=crasher).run(
                    jobs, label=LABEL
                )
            torn = jrnl.read_events(path)
            assert len(torn) == crash_after
            stored_before_crash = {
                e["job"] for e in torn if e["event"] == "job.stored"
            }
            result = CampaignRunner(cache=cache, journal=path).run(
                jobs, label=LABEL, resume=True
            )
            assert result.manifest["fingerprint"] == reference_fingerprint, (
                f"fingerprint diverged at crash_after={crash_after}"
            )
            events = jrnl.read_events(path)
            assert jrnl.validate_events(events) == []
            state = jrnl.replay(events)
            assert state.stopped and state.stop_status == "ok"
            assert state.resumes == 1
            assert len({e["run_id"] for e in events}) == 1
            for job_id in stored_before_crash:
                starts = [
                    e
                    for e in events
                    if e["event"] == "job.started" and e["job"] == job_id
                ]
                assert len(starts) == 1, (
                    f"{job_id} re-executed despite durable publication "
                    f"(crash_after={crash_after})"
                )

    def test_resume_under_fault_injection(self, tmp_path):
        """Node-crash-style transient faults + a mid-run kill still reconverge."""
        jobs = _jobs(3, faulty=("j0", "j2"), transient_failures=1)
        reference = CampaignRunner(workers=1, retries=1).run(jobs, label=LABEL)
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        crasher = jrnl.CrashingJournalWriter(path, crash_after=10, label=LABEL)
        with pytest.raises(jrnl.SimulatedCrash):
            CampaignRunner(cache=cache, journal=crasher, retries=1).run(
                jobs, label=LABEL
            )
        result = CampaignRunner(cache=cache, journal=path, retries=1).run(
            jobs, label=LABEL, resume=True
        )
        assert result.manifest["fingerprint"] == reference.manifest["fingerprint"]
        events = jrnl.read_events(path)
        assert jrnl.validate_events(events) == []
        assert any(e["event"] == "fault.injected" for e in events)


# ---------------------------------------------------------------------------
# Artifacts written by older code


class TestOldArtifacts:
    def test_old_journal_validates_and_resumes(self, reference_fingerprint, tmp_path):
        """A torn journal with shard plans and steals, as older code wrote it."""
        jobs = _jobs(3)
        keys = [cache_key(job) for job in jobs]
        cache = ResultCache(tmp_path / "c")
        cache.put(keys[0], *canonical_digest(execute_job(jobs[0])))
        path = tmp_path / "old.jsonl"
        writer = jrnl.JournalWriter(path, label=LABEL)
        writer.emit("run.start", label=LABEL, jobs=3, workers=1, retries_allowed=0,
                    keep_going=False, cache_enabled=True, shards=2)
        for index, (job, key) in enumerate(zip(jobs, keys)):
            writer.emit("job.scheduled", job=job.job_id, key=key, index=index)
        writer.emit("shard.planned", shard=0, jobs=2)
        writer.emit("shard.planned", shard=1, jobs=1)
        writer.emit("job.stolen", job="j2", from_shard=1, by_shard=0)
        writer.emit("job.started", job="j0", attempt=0)
        writer.emit("job.completed", job="j0", attempts=1, wall_s=0.1)
        writer.emit("job.stored", job="j0", key=keys[0])
        writer.close()  # torn: no run.stop

        assert jrnl.validate_events(jrnl.read_events(path)) == []
        assert main(["journal", "validate", str(path)]) == 0
        result = CampaignRunner(cache=cache, journal=path).run(
            jobs, label=LABEL, resume=True
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["execution"]["jobs_recovered"] == 1
        events = jrnl.read_events(path)
        assert jrnl.validate_events(events) == []
        starts = [e for e in events if e["event"] == "job.started" and e["job"] == "j0"]
        assert len(starts) == 1, "the recovered job ran again"

    def test_old_manifest_refingerprints_to_its_stored_value(
        self, reference_fingerprint, tmp_path
    ):
        manifest = dict(CampaignRunner().run(_jobs(3), label=LABEL).manifest)
        del manifest["execution"]
        manifest["sharding"] = {
            "shards": 2,
            "plan": [["j0", "j1"], ["j2"]],
            "transport": "inline",
            "stolen": 1,
            "resumed": False,
            "jobs_recovered": 0,
        }
        write_manifest(manifest, tmp_path / "old.json")
        old = load_manifest(tmp_path / "old.json")
        assert old["fingerprint"] == reference_fingerprint
        assert manifest_fingerprint(old) == old["fingerprint"]
