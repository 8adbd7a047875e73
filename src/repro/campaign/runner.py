"""The campaign executor: key, probe, dispatch, keep the books.

:class:`CampaignRunner` takes a list of :class:`~repro.campaign.jobs.CampaignJob`
and produces a :class:`CampaignResult`:

1. every job is keyed by the SHA-256 of its canonical serialization;
2. keyed jobs are probed once against the (optional) on-disk
   :class:`~repro.campaign.cache.ResultCache` — hits skip execution;
3. the remaining jobs are drained in job order through a
   :class:`WorkerTransport`: inline (``workers == 1``, and automatically as
   a fallback when a pool cannot start or dies mid-run) or on a process
   pool.  Up to ``slots`` jobs are outstanding at once, and each collected
   result frees a slot for the next job;
4. each outcome records wall time, cache status and the digest of its
   payload's canonical JSON (taken once, where the payload was computed,
   and kept in its cache entry), and the whole run is summarized in a
   machine-readable manifest (see :mod:`repro.campaign.manifest`).

Ordering is part of the contract: outcomes and manifest rows follow job
submission order, never completion order, so parallel and resumed runs
are manifest-identical to serial runs modulo the volatile timing, cache,
and ``execution`` fields.

Failure containment
-------------------
Each job attempt executes under a try/except boundary in whichever process
runs it: an exception fails *that job*, never the campaign.  A failed
job's outcome carries ``status="failed"`` and a structured ``error``
(exception type, message, truncated traceback).  ``retries`` re-attempts a
failed job with seeded exponential backoff; a success on retry yields the
same payload a clean run would (each attempt executes with a freshly
seeded executor), so caching stays sound.  The failure *policy* is the
runner's: ``keep_going=False`` (default) raises
:class:`~repro.exceptions.CampaignExecutionError` once a job exhausts its
retries; ``keep_going=True`` finishes the surviving jobs and returns a
result whose manifest records the damage — the input to the partial-TGI
path (see :mod:`repro.core.tgi`).

Crash resume
------------
``run(jobs, resume=True)`` replays the existing journal into per-job
attempt state (:func:`repro.journal.replay`), recovers every job that is
terminal in the replayed state *and* present in the shared result cache,
re-schedules only the remainder, and extends the *same* journal file under
the original run id (``run.resumed`` event).  Recovery is just a cache
hit, so the resumed manifest has the uninterrupted run's fingerprint.  A
job that crashed between its ``job.completed`` event and its cache
publication (``job.stored``) is re-executed: the journal is the witness,
the cache is the payload store, and resume trusts payloads only from the
cache.

Telemetry
---------
When a telemetry session is active (:mod:`repro.telemetry`) the runner
traces each job's lifecycle — ``job.serialize`` → ``job.cache_probe`` →
``job.execute`` (one span per attempt) → ``job.store`` — and counts jobs,
failures, retries, and cache behaviour into the metrics registry.
Pool workers collect spans and metrics in their own process and ship them
back beside the payload; the parent absorbs worker spans under its
``campaign.pool`` span and merges worker metric state.  Telemetry never
touches payloads, cache keys, or manifest fingerprints: runs are
byte-identical with telemetry on or off.

Flight recorder
---------------
``journal=`` arms the append-only run journal (:mod:`repro.journal`): the
parent records the run lifecycle, schedule, and cache hits; whichever
process executes a job appends its attempt-level events (start, contained
failure, retry, completion with ``getrusage`` CPU/RSS accounting, and
``job.stored`` once the payload is durably cached) to the *same* file via
atomic ``O_APPEND`` line writes, so ``tgi watch`` can follow an in-flight
campaign from another process.  That process also hands its writer to
the job through :func:`~repro.campaign.jobs.execute_job`, whose fault
injector records each ``fault.injected`` event; no journal state is
ambient.  The manifest records the journal's path, run id, and content
digest as a volatile block — like telemetry, journaling never changes
payloads or fingerprints.

See ``docs/campaign_runner.md`` and ``docs/distributed_campaigns.md``.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import journal as jrnl
from .. import telemetry as tele
from .. import timeline as tline
from ..benchmarks.runner import SweepResult
from ..benchmarks.suite import SuiteResult
from ..exceptions import CampaignExecutionError, ReproError
from ..rng import child_rng
from .cache import ResultCache, cache_key, canonical_digest
from .jobs import CampaignJob, execute_job, job_to_dict, payload_sweep
from .manifest import MANIFEST_VERSION, manifest_fingerprint, write_manifest

if TYPE_CHECKING:  # annotation only: serial campaigns never load the pool
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "JobOutcome",
    "CampaignResult",
    "CampaignRunner",
    "WorkItem",
    "WorkResult",
    "execute_work_item",
    "WorkerTransport",
    "InlineTransport",
    "ProcessPoolTransport",
    "run_cache_stats",
    "check_jobs",
    "build_manifest",
    "TRACEBACK_LIMIT_CHARS",
]

#: Cache statuses a job outcome can carry.
CACHE_STATUSES = ("hit", "computed", "uncached", "failed")

#: Structured-error tracebacks are tail-truncated to this many characters
#: (the tail names the raising frame; the head is usually pool plumbing).
TRACEBACK_LIMIT_CHARS = 4000

#: Errors that mean the process pool itself failed, at start-up or
#: mid-run (``PermissionError`` is an ``OSError``).  The runner then
#: finishes the uncollected jobs inline.
_POOL_FAILURES = (OSError, ImportError, BrokenExecutor)


def _error_info(exc: BaseException) -> Dict[str, str]:
    """Structured record of a contained job failure."""
    tb = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    if len(tb) > TRACEBACK_LIMIT_CHARS:
        tb = "...(truncated)...\n" + tb[-TRACEBACK_LIMIT_CHARS:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tb,
    }


def _retry_delay(base_s: float, attempt: int, seed: int, scope: str) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of one job.

    Seeded exponential backoff with jitter: ``base * 2**(attempt-1)``
    scaled by a uniform factor in ``[0.5, 1.5)`` drawn from a named stream,
    so a retrying fleet does not thunder in lockstep yet tests can pin the
    exact delays.  A non-positive base disables waiting entirely.
    """
    if base_s <= 0.0:
        return 0.0
    jitter = float(child_rng(seed, f"retry:{scope}:{attempt}").uniform(0.5, 1.5))
    return base_s * (2.0 ** (attempt - 1)) * jitter


#: Journal error messages are clipped to this length (tracebacks live in
#: the outcome's structured error, not in the event stream).
_JOURNAL_MESSAGE_LIMIT = 500


def check_jobs(jobs: Sequence[CampaignJob]) -> List[CampaignJob]:
    """Validate a campaign's job list (non-empty, unique ids); returns it."""
    jobs = list(jobs)
    if not jobs:
        raise ReproError("campaign needs at least one job")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ReproError(f"duplicate job ids in campaign: {dupes}")
    return jobs


def _attempt_job(
    job: CampaignJob,
    *,
    retries: int = 0,
    backoff_s: float = 0.0,
    backoff_seed: int = 0,
    journal: Optional[jrnl.JournalWriter] = None,
    timeline_dir: Optional[Path] = None,
) -> Tuple[Optional[Dict], Optional[Dict], int, float]:
    """Run one job with containment and retries.

    Returns ``(payload, error, attempts, wall_s)`` — exactly one of
    ``payload``/``error`` is non-``None``.  ``wall_s`` sums the execution
    time of every attempt and excludes backoff sleeps, so it reflects work
    done, not policy.  ``KeyboardInterrupt`` (and other non-``Exception``
    escapes) propagate: containment is for job failures, not for the
    operator's ctrl-C.

    With ``journal`` set, every attempt's lifecycle lands in the run
    journal — start, contained failure, retry decision (with the chosen
    backoff), and the terminal completed/failed event carrying the
    ``getrusage`` CPU/RSS accounting of the executing process.

    With ``timeline_dir`` set, each attempt hands the job's executor a
    fresh list to capture its run timelines into (:mod:`repro.timeline`);
    the *successful* attempt's timelines are summarized into
    ``<timeline_dir>/<job_id>.timeline.json`` (atomic write), and a
    ``timeline.captured`` pointer event lands in the journal.  Failed
    attempts discard their partial captures.
    """
    error: Optional[Dict] = None
    wall = 0.0
    ru_start = jrnl.rusage_fields() if journal is not None else None
    for attempt in range(retries + 1):
        if attempt:
            delay = _retry_delay(backoff_s, attempt, backoff_seed, job.job_id)
            if journal is not None:
                journal.emit(
                    "job.retried", job=job.job_id, attempt=attempt, delay_s=delay
                )
            if delay > 0.0:
                time.sleep(delay)
        if journal is not None:
            journal.emit("job.started", job=job.job_id, attempt=attempt)
        captured = [] if timeline_dir is not None else None
        t0 = time.perf_counter()
        try:
            with tele.span("job.execute", job=job.job_id, attempt=attempt):
                payload = execute_job(
                    job, attempt=attempt, journal=journal, timelines=captured
                )
            wall += time.perf_counter() - t0
            if captured:
                artifact = tline.write_job_artifact(
                    timeline_dir, job_id=job.job_id, timelines=captured
                )
                if journal is not None:
                    journal.emit(
                        "timeline.captured",
                        job=job.job_id,
                        path=str(artifact),
                        runs=len(captured),
                        energy_j=float(
                            sum(tl.true_energy_j for tl in captured)
                        ),
                    )
            if journal is not None:
                journal.emit(
                    "job.completed",
                    job=job.job_id,
                    attempts=attempt + 1,
                    wall_s=wall,
                    **jrnl.rusage_delta(ru_start),
                )
            return payload, None, attempt + 1, wall
        except Exception as exc:  # containment boundary — one job, not the run
            attempt_wall = time.perf_counter() - t0
            wall += attempt_wall
            error = _error_info(exc)
            if journal is not None:
                journal.emit(
                    "job.attempt_failed",
                    job=job.job_id,
                    attempt=attempt,
                    error_type=error["type"],
                    error_message=error["message"][:_JOURNAL_MESSAGE_LIMIT],
                    wall_s=attempt_wall,
                )
    if journal is not None:
        journal.emit(
            "job.failed",
            job=job.job_id,
            attempts=retries + 1,
            error_type=error["type"],
            error_message=error["message"][:_JOURNAL_MESSAGE_LIMIT],
        )
    return None, error, retries + 1, wall


def run_cache_stats(
    statuses: Sequence[str],
    *,
    executions: Optional[Sequence[int]] = None,
    invalidations: int = 0,
) -> Dict[str, float]:
    """Run-level cache accounting from per-job cache statuses.

    The single source for ``CampaignResult.cache_stats``, the manifest's
    ``cache_run`` block, and the CLI summary.  Accounting is per
    *attempt*, not per job: ``hits`` are probe hits, ``misses`` are
    executed attempts (a job that succeeded on its third attempt was three
    misses of work, not one), so ``hits + misses == attempts`` holds by
    construction.  ``executions`` carries the per-job execution counts
    aligned with ``statuses``; omitted, every non-hit job is assumed to
    have executed exactly once (the retry-free behaviour).
    """
    jobs = len(statuses)
    hits = sum(1 for s in statuses if s == "hit")
    if executions is None:
        misses = jobs - hits
    else:
        if len(executions) != jobs:
            raise ReproError(
                f"executions has {len(executions)} entries for {jobs} statuses"
            )
        misses = int(sum(executions))
    attempts = hits + misses
    return {
        "jobs": jobs,
        "attempts": attempts,
        "hits": hits,
        "misses": misses,
        "invalidations": invalidations,
        "hit_rate": hits / attempts if attempts else 0.0,
    }


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus its execution record.

    ``status`` is ``"ok"`` or ``"failed"``; a failed outcome has
    ``payload=None`` and a structured ``error`` dict (``type``,
    ``message``, ``traceback``).  ``attempts`` counts executions of the
    job this run (0 for a cache hit — nothing executed).
    ``payload_sha256`` is the digest of the payload's canonical JSON,
    taken once where the payload was computed and kept in its cache
    entry (``None`` for a failed job).
    """

    job: CampaignJob
    key: str
    payload: Optional[Dict]
    cache_status: str  # one of CACHE_STATUSES
    wall_s: float
    status: str = "ok"
    error: Optional[Dict] = None
    attempts: int = 1
    payload_sha256: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the job produced a payload."""
        return self.status == "ok"

    @property
    def retries(self) -> int:
        """Executions beyond the first (0 when the job ran once or was cached)."""
        return max(0, self.attempts - 1)

    @property
    def sweep(self) -> SweepResult:
        """The job's results as a live sweep object."""
        if self.payload is None:
            error = self.error or {}
            raise ReproError(
                f"job {self.job.job_id!r} failed after {self.attempts} attempt(s) "
                f"({error.get('type', 'unknown')}: {error.get('message', '')}); "
                "no sweep to rebuild"
            )
        return payload_sweep(self.payload)


class CampaignResult:
    """All outcomes of one campaign run, in submission order."""

    def __init__(self, outcomes: Sequence[JobOutcome], manifest: Dict):
        self.outcomes: List[JobOutcome] = list(outcomes)
        self.manifest = manifest
        self._by_id = {o.job.job_id: o for o in self.outcomes}

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, job_id: str) -> JobOutcome:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise KeyError(
                f"no job {job_id!r} in campaign; ran {sorted(self._by_id)}"
            ) from None

    def sweep(self, job_id: str) -> SweepResult:
        """One job's results as a sweep."""
        return self[job_id].sweep

    def suite(self, job_id: str) -> SuiteResult:
        """A single-point job's suite result."""
        sweep = self.sweep(job_id)
        if len(sweep) != 1:
            raise ReproError(
                f"job {job_id!r} has {len(sweep)} scale points; use sweep()"
            )
        return sweep.suites[0]

    @property
    def succeeded(self) -> List[JobOutcome]:
        """Outcomes that produced payloads, in submission order."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[JobOutcome]:
        """Outcomes that exhausted their retries, in submission order."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """Whether every job produced a payload."""
        return not self.failed

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Run-level cache accounting (jobs/attempts/hits/misses/...).

        Enforces the accounting invariant: probe hits plus executed
        attempts account for every attempt — a books-must-balance check
        on the retry/cache interplay.
        """
        stats = dict(self.manifest["cache_run"])
        assert stats["hits"] + stats["misses"] == stats["attempts"], (
            f"cache accounting out of balance: {stats['hits']} hits + "
            f"{stats['misses']} misses != {stats['attempts']} attempts"
        )
        return stats

    @property
    def cache_hits(self) -> int:
        """Jobs satisfied from the cache."""
        return int(self.cache_stats["hits"])

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs satisfied from the cache."""
        return float(self.cache_stats["hit_rate"])

    def write_manifest(self, path) -> None:
        """Persist the manifest as JSON."""
        write_manifest(self.manifest, path)


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: a keyed job plus everything a worker needs.

    Self-contained and picklable by design — a transport may hand it to
    another process (or, later, another host), so it carries *paths* to
    the shared journal and cache, never live handles.
    """

    index: int  # position in the campaign's job list (ordering contract)
    job: CampaignJob
    key: str
    retries: int = 0
    backoff_s: float = 0.0
    backoff_seed: int = 0
    with_telemetry: bool = False
    journal_path: Optional[str] = None
    run_id: Optional[str] = None
    timeline_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    code_version: Optional[str] = None


@dataclass
class WorkResult:
    """What came back for one :class:`WorkItem`."""

    index: int
    payload: Optional[Dict]
    error: Optional[Dict]
    attempts: int
    wall_s: float
    cache_status: str  # "computed" / "uncached" / "failed"
    spans: Optional[List[Dict]] = None
    metrics: Optional[Dict] = None
    cache_puts: int = 0  # publishes by a worker-side cache (pool workers only)
    payload_sha256: Optional[str] = None  # digest of the payload's canonical JSON


def execute_work_item(
    item: WorkItem,
    *,
    journal: Optional[jrnl.JournalWriter] = None,
    cache: Optional[ResultCache] = None,
) -> WorkResult:
    """Execute (contained, with retries) → digest → publish, for one item.

    The single execution path every transport funnels through.  The
    parent has already probed the cache and missed; keys are unique within
    a campaign, so probing again here could only hit when another campaign
    publishes the same key concurrently, and republishing identical
    content is safe.  On success the payload is serialized to its
    canonical JSON and hashed exactly once, here in the executing process;
    the digest goes back in the result (cache or no cache) and the same
    text is published to the shared cache (atomic rename; unique staging
    name).  Only then does the ``job.stored`` event land — so a journal
    that contains ``job.stored`` implies a durable cache entry, which is
    exactly the order crash resume relies on.
    """
    timeline_dir = Path(item.timeline_dir) if item.timeline_dir is not None else None
    payload, error, attempts, wall = _attempt_job(
        item.job,
        retries=item.retries,
        backoff_s=item.backoff_s,
        backoff_seed=item.backoff_seed,
        journal=journal,
        timeline_dir=timeline_dir,
    )
    if error is not None:
        return WorkResult(
            index=item.index,
            payload=None,
            error=error,
            attempts=attempts,
            wall_s=wall,
            cache_status="failed",
        )
    with tele.span("job.store", job=item.job.job_id, skipped=cache is None):
        text, digest = canonical_digest(payload)
        if cache is not None:
            cache.put(item.key, text, digest)
    if cache is not None and journal is not None:
        journal.emit("job.stored", job=item.job.job_id, key=item.key)
    return WorkResult(
        index=item.index,
        payload=payload,
        error=None,
        attempts=attempts,
        wall_s=wall,
        cache_status="uncached" if cache is None else "computed",
        payload_sha256=digest,
    )


#: Jobs this worker process has finished — heartbeat payload (survives
#: across submissions into one reused pool worker).
_WORKER_JOBS_DONE = 0


def _pool_worker(item: WorkItem) -> WorkResult:
    """Pool-side shim: rebuild per-process handles, run one item.

    The worker opens its *own* ``O_APPEND`` handle on the shared journal
    (same run id) and its own view of the shared cache directory, drops
    any fork-inherited telemetry session, emits a pickup heartbeat, and
    ships finished telemetry spans/metric state plus its cache-put count
    back with the payload.
    """
    global _WORKER_JOBS_DONE
    journal = None
    if item.journal_path is not None:
        journal = jrnl.JournalWriter(
            item.journal_path, run_id=item.run_id, process=f"worker-{os.getpid()}"
        )
        journal.emit(
            "worker.heartbeat", jobs_done=_WORKER_JOBS_DONE, **jrnl.rusage_fields()
        )
    cache = None
    if item.cache_dir is not None:
        cache = ResultCache(item.cache_dir, code_version=item.code_version)
    try:
        if not item.with_telemetry:
            result = execute_work_item(item, journal=journal, cache=cache)
        else:
            # Fork-started workers inherit a copy of the parent session;
            # nothing collected into it would ever ship back, so collect
            # into a fresh one instead.
            tele.deactivate()
            session = tele.TelemetrySession(
                label=f"worker:{item.job.job_id}", process=f"worker-{os.getpid()}"
            )
            with tele.use(session):
                result = execute_work_item(item, journal=journal, cache=cache)
            result.spans = session.tracer.as_dicts()
            result.metrics = session.metrics.state()
        if cache is not None:
            result.cache_puts = cache.stats.puts
        return result
    finally:
        if journal is not None:
            _WORKER_JOBS_DONE += 1
            journal.close()


class WorkerTransport:
    """Where work items execute: the multi-host seam.

    A transport owns a fixed number of worker ``slots`` and moves
    :class:`WorkItem`\\ s to them.  The runner drives it with a strict
    protocol — items submitted in job order, at most ``slots`` of them
    outstanding, ``next_result()`` only while ``outstanding() > 0`` — and
    handles policy (fail-fast, fallback) itself, so a transport implements
    mechanics only.  Implementations today run inline or on a local
    process pool; a multi-host transport needs nothing beyond this
    interface because items carry paths (shared journal, shared cache),
    never live handles.
    """

    name = "abstract"
    slots = 1

    def start(self) -> None:
        """Acquire execution resources (may raise; the runner degrades)."""

    def submit(self, item: WorkItem) -> None:
        raise NotImplementedError

    def next_result(self) -> WorkResult:
        raise NotImplementedError

    def outstanding(self) -> int:
        raise NotImplementedError

    def close(self, *, cancel: bool = False) -> None:
        """Release resources; ``cancel`` abandons queued work (fail-fast)."""


class InlineTransport(WorkerTransport):
    """Executes items synchronously in the scheduling process.

    Used for ``workers=1``, single-job campaigns, and as the degradation
    target when a process pool cannot start or dies mid-run (result-
    identical by construction).  Items run against the *live* cache and
    journal writer, so telemetry spans land directly in the ambient
    session and cache stats accrue in place — no shipping needed.
    """

    name = "inline"
    slots = 1

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        journal: Optional[jrnl.JournalWriter] = None,
    ):
        self.cache = cache
        self.journal = journal
        self._done: Deque[WorkResult] = deque()

    def submit(self, item: WorkItem) -> None:
        self._done.append(
            execute_work_item(item, journal=self.journal, cache=self.cache)
        )

    def next_result(self) -> WorkResult:
        return self._done.popleft()

    def outstanding(self) -> int:
        return len(self._done)

    def close(self, *, cancel: bool = False) -> None:
        self._done.clear()


class ProcessPoolTransport(WorkerTransport):
    """Executes items on a local ``ProcessPoolExecutor``.

    ``submit`` feeds one item per call (the runner's refill loop decides
    what runs next); ``next_result`` blocks on the first completed future.
    Pool-level failures propagate to the runner, which re-runs uncollected
    items inline.
    """

    name = "process-pool"

    def __init__(self, workers: int):
        if workers < 1:
            raise ReproError(f"transport workers must be >= 1, got {workers}")
        self.workers = workers
        self.slots = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Set[Future] = set()

    def start(self) -> None:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=self.workers)
            # Surface spawn failures now, not at first submit: submitting
            # a no-op forces worker startup on platforms that lazily fork.
            pool.submit(int).result()
            self._pool = pool

    def submit(self, item: WorkItem) -> None:
        if self._pool is None:
            self.start()
        self._futures.add(self._pool.submit(_pool_worker, item))

    def next_result(self) -> WorkResult:
        if not self._futures:
            raise ReproError("next_result() with no outstanding work")
        done, self._futures = wait(self._futures, return_when=FIRST_COMPLETED)
        first = done.pop()
        self._futures |= done  # completed-but-unconsumed go back in the set
        return first.result()

    def outstanding(self) -> int:
        return len(self._futures)

    def close(self, *, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not cancel, cancel_futures=cancel)
            self._pool = None
        self._futures.clear()


class CampaignRunner:
    """Executes campaigns of independent jobs: caching, retries, resume.

    Parameters
    ----------
    workers:
        Worker-slot count; ``1`` (default) runs inline, more uses a
        process pool (or the supplied ``transport``).  Pools that fail to
        start (restricted platforms) or die mid-campaign degrade to inline
        execution, which is result-identical by construction and only
        re-executes jobs whose results were not already collected.
    cache:
        A :class:`ResultCache`, or ``None`` to always execute.  Required
        for resume — the journal records what finished, the cache holds
        the payloads.
    retries:
        Extra executions granted to a failing job (0 = one attempt only).
        Backed off exponentially from ``backoff_s`` with seeded jitter.
    keep_going:
        Failure policy once retries are exhausted: ``False`` (default)
        raises :class:`~repro.exceptions.CampaignExecutionError`;
        ``True`` records the failure and finishes the surviving jobs.
    backoff_s:
        Base backoff delay in seconds (0 disables sleeping — the right
        setting for simulated faults and tests).
    backoff_seed:
        Seed for the backoff jitter stream.
    journal:
        Flight-recorder target: a path (the runner creates, finalizes,
        and digests the journal) or an existing
        :class:`~repro.journal.JournalWriter` (the caller keeps ownership
        and finalization).  ``None`` (default) records nothing.  Required
        for resume.
    timeline:
        Directory for per-job power-timeline artifacts
        (:mod:`repro.timeline`).  When set, every executed job's executor
        captures its run timelines, which land as
        ``<dir>/<job_id>.timeline.json`` — the input of ``tgi dashboard``.
        ``None`` (default) captures nothing; cached jobs never re-capture.
    transport:
        A :class:`WorkerTransport` to execute on, overriding the
        inline/process-pool choice (the multi-host hook).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 0,
        keep_going: bool = False,
        backoff_s: float = 0.0,
        backoff_seed: int = 0,
        journal: Optional[Union[str, Path, jrnl.JournalWriter]] = None,
        timeline: Optional[Union[str, Path]] = None,
        transport: Optional[WorkerTransport] = None,
    ):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ReproError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ReproError(f"backoff_s must be >= 0, got {backoff_s}")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self.keep_going = keep_going
        self.backoff_s = backoff_s
        self.backoff_seed = backoff_seed
        self.journal = journal
        self.timeline = Path(timeline) if timeline is not None else None
        self.transport = transport

    # ------------------------------------------------------------------
    def _journal_path(self) -> Optional[Path]:
        if self.journal is None:
            return None
        if isinstance(self.journal, jrnl.JournalWriter):
            return self.journal.path
        return Path(self.journal)

    def _resume_state(
        self, jobs: Sequence[CampaignJob], keys: Sequence[str]
    ) -> jrnl.RunState:
        """Replay the journal being resumed, guarding campaign identity."""
        if self.journal is None:
            raise ReproError(
                "resume needs a journal: pass journal=<path of the run to resume>"
            )
        if self.cache is None:
            raise ReproError(
                "resume needs the shared result cache: the journal records what "
                "finished; the cache holds the payloads"
            )
        path = self._journal_path()
        if not path.exists():
            raise ReproError(f"cannot resume: journal {path} does not exist")
        state = jrnl.replay(jrnl.read_events(path))
        if not state.started:
            raise ReproError(
                f"cannot resume: journal {path} has no run.start event"
            )
        by_id = {job.job_id: key for job, key in zip(jobs, keys)}
        for job_id, job_state in state.jobs.items():
            if job_id not in by_id:
                raise ReproError(
                    f"cannot resume: journal {path} schedules job {job_id!r}, "
                    "which is not in this campaign's job list"
                )
            if job_state.key and job_state.key != by_id[job_id]:
                raise ReproError(
                    f"cannot resume: job {job_id!r} is keyed "
                    f"{job_state.key[:12]}... in the journal but "
                    f"{by_id[job_id][:12]}... now — the job definition changed "
                    "between the crashed run and this one"
                )
        return state

    def _journal_writer(
        self, label: str, prior: Optional[jrnl.RunState]
    ) -> Tuple[Optional[jrnl.JournalWriter], bool]:
        """The run's writer plus ownership; resumes reuse the prior run id."""
        if self.journal is None:
            return None, False
        if isinstance(self.journal, jrnl.JournalWriter):
            return self.journal, False
        run_id = prior.run_id if prior is not None and prior.run_id else None
        return (
            jrnl.JournalWriter(self._journal_path(), label=label, run_id=run_id),
            True,
        )

    def _make_transport(
        self, pending: int, writer: Optional[jrnl.JournalWriter]
    ) -> WorkerTransport:
        if self.transport is not None:
            return self.transport
        if self.workers > 1 and pending > 1:
            return ProcessPoolTransport(min(self.workers, pending))
        return InlineTransport(cache=self.cache, journal=writer)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[CampaignJob],
        *,
        label: str = "campaign",
        resume: bool = False,
    ) -> CampaignResult:
        """Execute (or resume) the campaign; returns outcomes plus manifest.

        With ``resume=True`` the journal must already exist: its events
        are replayed first, recovered jobs are served from the shared
        cache without re-execution, and the remainder is re-dispatched
        while the same journal file grows under the original run id.

        Raises :class:`~repro.exceptions.CampaignExecutionError` when a
        job exhausts its retries under the fail-fast policy (the default);
        with ``keep_going`` the error surfaces in the outcome/manifest and
        the method still returns.  A fail-fast abort still finalizes a
        runner-owned journal (``run.stop`` with ``status="aborted"``) —
        the flight recorder's whole point is surviving the crash.
        """
        jobs = check_jobs(jobs)
        if self.timeline is not None:
            self.timeline.mkdir(parents=True, exist_ok=True)

        with tele.span("campaign.run", label=label, jobs=len(jobs)):
            keys: List[str] = []
            for job in jobs:
                with tele.span("job.serialize", job=job.job_id):
                    keys.append(cache_key(job))

            prior = self._resume_state(jobs, keys) if resume else None
            prior_terminal = set()
            if prior is not None:
                prior_terminal = {
                    job_id
                    for job_id, job_state in prior.jobs.items()
                    if job_state.status in ("completed", "cached")
                }

            writer, owns_writer = self._journal_writer(label, prior)

            t_start = time.perf_counter()
            invalidations_before = self.cache.stats.invalidations if self.cache is not None else 0
            recovered = 0
            workers_used = 1
            transport_name = "inline"
            try:
                if writer is not None and prior is None:
                    writer.emit(
                        "run.start",
                        label=label,
                        jobs=len(jobs),
                        workers=self.workers,
                        retries_allowed=self.retries,
                        keep_going=self.keep_going,
                        cache_enabled=self.cache is not None,
                    )
                if writer is not None:
                    for index, (job, key) in enumerate(zip(jobs, keys)):
                        writer.emit(
                            "job.scheduled", job=job.job_id, key=key, index=index
                        )

                payloads: Dict[int, Dict] = {}
                digests: Dict[int, str] = {}
                statuses: Dict[int, str] = {}
                walls: Dict[int, float] = {}
                errors: Dict[int, Dict] = {}
                attempts: Dict[int, int] = {}

                pending: List[int] = []
                for index, key in enumerate(keys):
                    job_id = jobs[index].job_id
                    with tele.span(
                        "job.cache_probe", job=job_id, skipped=self.cache is None
                    ):
                        if self.cache is not None:
                            t0 = time.perf_counter()
                            cached = self.cache.get(key)
                            if cached is not None:
                                payloads[index], digests[index] = cached
                                statuses[index] = "hit"
                                walls[index] = time.perf_counter() - t0
                                attempts[index] = 0
                                if job_id in prior_terminal:
                                    recovered += 1
                                if writer is not None:
                                    writer.emit(
                                        "job.cache_hit",
                                        job=job_id,
                                        key=key,
                                        attempt=0,
                                    )
                                continue
                    pending.append(index)

                if writer is not None and prior is not None:
                    writer.emit(
                        "run.resumed",
                        jobs_recovered=recovered,
                        jobs_pending=len(pending),
                    )

                if pending:
                    items = self._work_items(jobs, keys, pending, writer)
                    results, workers_used, transport_name = self._dispatch(
                        items, writer
                    )
                    for result in results.values():
                        index = result.index
                        walls[index] = result.wall_s
                        attempts[index] = result.attempts
                        statuses[index] = result.cache_status
                        if result.error is not None:
                            errors[index] = result.error
                        else:
                            payloads[index] = result.payload
                            digests[index] = result.payload_sha256
                        if self.cache is not None:
                            # Pool workers publish through their own cache
                            # objects; fold those puts into the parent's books.
                            self.cache.stats.puts += result.cache_puts

                failed = [i for i in pending if i in errors]
                if failed and not self.keep_going:
                    failures = [
                        {"job_id": jobs[i].job_id, "error": errors[i]} for i in failed
                    ]
                    first = failures[0]
                    raise CampaignExecutionError(
                        f"{len(failed)} of {len(jobs)} campaign job(s) failed "
                        f"(first: {first['job_id']} — {first['error']['type']}: "
                        f"{first['error']['message']}); rerun with keep_going=True "
                        "to collect the surviving jobs",
                        failures=failures,
                    )

                if tele.active():
                    for index in range(len(jobs)):
                        tele.count("tgi_campaign_jobs_total", status=statuses[index])
                    retries_total = sum(max(0, attempts[i] - 1) for i in pending)
                    if failed:
                        tele.count("tgi_campaign_jobs_failed_total", len(failed))
                    if retries_total:
                        tele.count("tgi_campaign_jobs_retried_total", retries_total)
            except CampaignExecutionError as exc:
                if writer is not None and owns_writer:
                    writer.finalize(
                        status="aborted",
                        jobs_failed=len(exc.failures),
                        total_wall_s=time.perf_counter() - t_start,
                    )
                raise

        total_wall = time.perf_counter() - t_start
        outcomes = [
            JobOutcome(
                job=jobs[i],
                key=keys[i],
                payload=payloads.get(i),
                cache_status=statuses[i],
                wall_s=walls[i],
                status="failed" if i in errors else "ok",
                error=errors.get(i),
                attempts=attempts[i],
                payload_sha256=digests.get(i),
            )
            for i in range(len(jobs))
        ]
        invalidations = (
            self.cache.stats.invalidations - invalidations_before if self.cache is not None else 0
        )
        journal_info = None
        if writer is not None:
            jobs_failed_total = sum(1 for o in outcomes if not o.ok)
            journal_info = {
                "path": str(writer.path),
                "run_id": writer.run_id,
                "events": writer.events_written,
                "sha256": None,
            }
            if owns_writer:
                summary = writer.finalize(
                    status="ok" if not jobs_failed_total else "failed",
                    jobs_failed=jobs_failed_total,
                    total_wall_s=total_wall,
                )
                journal_info["events"] = summary["events"]
                journal_info["sha256"] = summary["sha256"]
        timeline_info = None
        if self.timeline is not None:
            artifacts = sorted(self.timeline.glob("*.timeline.json"))
            timeline_info = {
                "dir": str(self.timeline),
                "artifacts": len(artifacts),
                "version": tline.TIMELINE_SCHEMA_VERSION,
            }
        manifest = build_manifest(
            label=label,
            outcomes=outcomes,
            total_wall=total_wall,
            workers_requested=self.workers,
            workers_used=workers_used,
            cache=self.cache,
            retries_allowed=self.retries,
            keep_going=self.keep_going,
            invalidations=invalidations,
            journal_info=journal_info,
            timeline_info=timeline_info,
            execution_info={
                "transport": transport_name,
                "resumed": prior is not None,
                "jobs_recovered": recovered,
            },
        )
        return CampaignResult(outcomes, manifest)

    # ------------------------------------------------------------------
    def _work_items(
        self,
        jobs: Sequence[CampaignJob],
        keys: Sequence[str],
        pending: Sequence[int],
        writer: Optional[jrnl.JournalWriter],
    ) -> List[WorkItem]:
        """Materialize work items for the pending jobs, in job order."""
        return [
            WorkItem(
                index=index,
                job=jobs[index],
                key=keys[index],
                retries=self.retries,
                backoff_s=self.backoff_s,
                backoff_seed=self.backoff_seed,
                with_telemetry=tele.current() is not None,
                journal_path=str(writer.path) if writer is not None else None,
                run_id=writer.run_id if writer is not None else None,
                timeline_dir=str(self.timeline) if self.timeline else None,
                cache_dir=str(self.cache.directory) if self.cache is not None else None,
                code_version=self.cache.code_version if self.cache is not None else None,
            )
            for index in pending
        ]

    def _dispatch(
        self, items: List[WorkItem], writer: Optional[jrnl.JournalWriter]
    ) -> Tuple[Dict[int, WorkResult], int, str]:
        """Drive the transport to drain all items.

        Returns ``(results by job index, workers used, transport name)``.
        A pool that cannot start degrades to inline execution for every
        item.  A pool that dies mid-run is closed, and the uncollected
        remainder re-enters the same refill loop inline — result-identical,
        re-executing only what never came back — unless fail-fast has
        already stopped refilling.  The run still reports the pool's name
        and width then.
        """
        transport = self._make_transport(len(items), writer)
        if not isinstance(transport, InlineTransport):
            try:
                transport.start()
            except _POOL_FAILURES:
                transport.close(cancel=True)
                transport = InlineTransport(cache=self.cache, journal=writer)
        inline = isinstance(transport, InlineTransport)
        workers_used = 1 if inline else min(transport.slots, len(items))

        results: Dict[int, WorkResult] = {}
        with tele.span(
            "campaign.pool",
            transport=transport.name,
            workers=workers_used,
            jobs=len(items),
        ) as pool_span:
            try:
                self._refill(transport, items, results, pool_span)
            except _POOL_FAILURES:
                transport.close(cancel=True)
                leftovers = [item for item in items if item.index not in results]
                if tele.active() and leftovers:
                    tele.count(
                        "tgi_campaign_pool_fallback_total",
                        resumed_jobs=len(leftovers),
                    )
                failed_fast = not self.keep_going and any(
                    result.error is not None for result in results.values()
                )
                if not failed_fast:
                    fallback = InlineTransport(cache=self.cache, journal=writer)
                    self._refill(fallback, leftovers, results, pool_span)
        return results, workers_used, transport.name

    def _refill(
        self,
        transport: WorkerTransport,
        items: List[WorkItem],
        results: Dict[int, WorkResult],
        pool_span,
    ) -> None:
        """Submit up to ``slots`` items in job order, then one per result.

        Collected results land in ``results`` by job index.  Fail-fast
        stops refilling on the first exhausted job but still collects
        everything in flight, so no completed work is dropped.
        """
        session = tele.current()
        slots = max(1, transport.slots)
        queue = deque(items)
        stop = False
        while True:
            while queue and not stop and transport.outstanding() < slots:
                transport.submit(queue.popleft())
            if not transport.outstanding():
                break
            result = transport.next_result()
            results[result.index] = result
            if session is not None and result.spans:
                session.tracer.absorb(
                    result.spans,
                    parent_id=pool_span.span_id,
                    offset_s=pool_span.t_start,
                )
            if session is not None and result.metrics:
                session.metrics.merge(result.metrics)
            stop = stop or (result.error is not None and not self.keep_going)
        transport.close(cancel=stop)


def build_manifest(
    *,
    label: str,
    outcomes: Sequence[JobOutcome],
    total_wall: float,
    workers_requested: int,
    workers_used: int,
    cache: Optional[ResultCache],
    retries_allowed: int,
    keep_going: bool,
    invalidations: int,
    journal_info: Optional[Dict] = None,
    timeline_info: Optional[Dict] = None,
    execution_info: Optional[Dict] = None,
) -> Dict:
    """Assemble (and fingerprint) the run manifest from job outcomes."""
    from .. import __version__

    session = tele.current()
    jobs_failed = sum(1 for o in outcomes if not o.ok)
    retries_total = sum(o.retries for o in outcomes)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "label": label,
        "code_version": cache.code_version if cache is not None else __version__,
        "created_unix": time.time(),
        "total_wall_s": total_wall,
        "workers_requested": workers_requested,
        "workers_used": workers_used,
        "cache_enabled": cache is not None,
        "cache": cache.cache_stats if cache is not None else None,
        "cache_run": run_cache_stats(
            [o.cache_status for o in outcomes],
            executions=[o.attempts for o in outcomes],
            invalidations=invalidations,
        ),
        # Failure accounting; volatile because a warm cache changes how
        # many executions (and hence retries) actually happened.
        "failures": {
            "jobs_failed": jobs_failed,
            "jobs_retried": sum(1 for o in outcomes if o.retries),
            "retries_total": retries_total,
            "retries_allowed": retries_allowed,
            "keep_going": keep_going,
        },
        # Volatile flight-recorder block: where the journal landed,
        # how many events it holds, and its content digest.  Excluded
        # from the fingerprint — journaled and bare runs of the same
        # jobs are fingerprint-identical.
        "journal": journal_info,
        # Volatile power-timeline block: where per-job artifacts
        # landed and how many.  Excluded from the fingerprint — runs
        # with and without timeline capture are fingerprint-identical.
        "timeline": timeline_info,
        # Volatile execution block: the transport that ran the jobs and
        # what a resume recovered.  Excluded from the fingerprint —
        # inline, pooled and resumed runs are fingerprint-identical.
        "execution": execution_info,
        # Volatile observability summary; the full export is written by
        # the CLI beside the manifest.  Excluded from the fingerprint.
        "telemetry": None
        if session is None
        else {
            "session": session.label,
            "span_count": len(session.tracer.spans),
            "span_names": sorted({s.name for s in session.tracer.spans}),
            "metric_names": sorted(session.metrics.as_dict()),
        },
        "jobs": [
            {
                "job_id": o.job.job_id,
                "key": o.key,
                "status": o.status,
                "payload_sha256": o.payload_sha256,
                "cluster_name": o.payload["cluster_name"] if o.ok else None,
                "core_counts": list(o.job.core_counts),
                "spec": job_to_dict(o.job),
                "cache_status": o.cache_status,
                "wall_s": o.wall_s,
                "attempts": o.attempts,
                "error": o.error,
            }
            for o in outcomes
        ],
    }
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    return manifest
