"""Journal reading: torn-tail-tolerant parsing, live following, replay.

The journal is append-only JSONL, so reading it back is mostly
``json.loads`` per line — with two deliberate tolerances:

* **Torn final line.**  A crash (or a reader racing the writer) can leave
  the last line incomplete.  Any trailing bytes without a terminating
  newline are treated as a torn tail and dropped; every complete line
  before them parses.  The property test truncates journals at *every*
  byte offset to pin this.
* **Unordered events.**  Pool workers append concurrently with the
  parent, so file order is arrival order, not logical order.
  :func:`replay` reconstructs per-job state from event *content* (job
  ids, attempt numbers, terminal types), never from line position.

:func:`replay` is the load-bearing piece: it folds a stream of events
into a :class:`RunState` whose per-job attempt/outcome records match what
the campaign manifest says happened — the substrate
:class:`repro.campaign.runner.CampaignRunner` replays on
``--resume`` before re-scheduling the remainder.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..exceptions import JournalError
from .events import JOURNAL_VERSION, validate_event

__all__ = [
    "ScanResult",
    "scan_journal",
    "read_events",
    "validate_events",
    "journal_digest",
    "JournalFollower",
    "JobState",
    "RunState",
    "apply_event",
    "replay",
    "replay_journal",
    "attempt_table",
]


@dataclass
class ScanResult:
    """What a full parse of one journal file found."""

    events: List[Dict]
    torn_tail: bool = False
    malformed: int = 0


def _parse_lines(data: bytes, *, strict: bool = False) -> ScanResult:
    """Split raw journal bytes into parsed events (see module docstring)."""
    events: List[Dict] = []
    malformed = 0
    torn = False
    segments = data.split(b"\n")
    # A file ending in "\n" yields a final empty segment; anything else in
    # the final slot is a torn tail (complete lines always end in "\n").
    tail = segments.pop() if segments else b""
    if tail:
        torn = True
    for lineno, raw in enumerate(segments, start=1):
        if not raw.strip():
            continue
        try:
            event = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if strict:
                raise JournalError(f"journal line {lineno}: {exc}") from None
            malformed += 1
            continue
        if not isinstance(event, dict):
            if strict:
                raise JournalError(
                    f"journal line {lineno}: expected an object, got "
                    f"{type(event).__name__}"
                )
            malformed += 1
            continue
        events.append(event)
    return ScanResult(events=events, torn_tail=torn, malformed=malformed)


def scan_journal(path: Union[str, Path], *, strict: bool = False) -> ScanResult:
    """Parse a journal file, reporting torn tails and malformed lines."""
    return _parse_lines(Path(path).read_bytes(), strict=strict)


def read_events(path: Union[str, Path], *, strict: bool = False) -> List[Dict]:
    """All complete events of a journal file, in file (arrival) order."""
    return scan_journal(path, strict=strict).events


def journal_digest(path: Union[str, Path]) -> str:
    """SHA-256 over the journal file's bytes (the manifest's digest)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def validate_events(events: Iterable[Dict]) -> List[str]:
    """Schema-check a stream of events; returns ``line: problem`` strings."""
    problems: List[str] = []
    for index, event in enumerate(events, start=1):
        for problem in validate_event(event):
            problems.append(f"event {index} ({event.get('event')!r}): {problem}")
    return problems


class JournalFollower:
    """Incremental reader for a journal still being written.

    Remembers the byte offset of the last *complete* line consumed;
    each :meth:`poll` picks up everything appended since.  The file may
    not exist yet (the campaign process might still be starting) — that
    polls as "no new events", not an error.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0

    def poll(self) -> List[Dict]:
        """Newly appended complete events since the last poll."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        complete_len = data.rfind(b"\n") + 1  # 0 when no full line arrived
        if complete_len == 0:
            return []
        self._offset += complete_len
        return _parse_lines(data[:complete_len]).events


# Replay ----------------------------------------------------------------

#: Job statuses a replayed :class:`JobState` can be in.
JOB_STATES = ("scheduled", "running", "retrying", "completed", "failed", "cached")


@dataclass
class JobState:
    """Everything the journal knows about one job."""

    job_id: str
    key: str = ""
    index: int = -1
    status: str = "scheduled"
    attempts: int = 0
    started_t_mono: Optional[float] = None
    finished_t_mono: Optional[float] = None
    wall_s: float = 0.0
    cpu_user_s: Optional[float] = None
    cpu_system_s: Optional[float] = None
    max_rss_bytes: Optional[int] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    cache_hit_attempt: Optional[int] = None
    pid: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("completed", "failed", "cached")

    def running_for(self, now_mono: float) -> float:
        """Seconds this job has been executing as of ``now_mono``."""
        if self.started_t_mono is None or self.terminal:
            return 0.0
        return max(0.0, now_mono - self.started_t_mono)


@dataclass
class RunState:
    """A whole run folded out of its journal events."""

    run_id: str = ""
    label: str = ""
    jobs_expected: int = 0
    workers: int = 0
    retries_allowed: int = 0
    keep_going: bool = False
    cache_enabled: bool = False
    started: bool = False
    start_t_mono: Optional[float] = None
    start_t_unix: Optional[float] = None
    stopped: bool = False
    stop_status: Optional[str] = None
    stop_t_mono: Optional[float] = None
    total_wall_s: Optional[float] = None
    jobs: Dict[str, JobState] = field(default_factory=dict)
    faults: List[Dict] = field(default_factory=list)
    heartbeats: List[Dict] = field(default_factory=list)
    resumes: int = 0
    shards: List[Dict] = field(default_factory=list)
    last_t_mono: Optional[float] = None
    events_seen: int = 0

    def job(self, job_id: str) -> JobState:
        state = self.jobs.get(job_id)
        if state is None:
            state = self.jobs[job_id] = JobState(job_id=job_id)
        return state

    @property
    def complete(self) -> bool:
        """Whether the run recorded a terminal ``run.stop``."""
        return self.stopped

    def by_status(self, status: str) -> List[JobState]:
        if status not in JOB_STATES:
            raise JournalError(f"unknown job status {status!r}; known: {JOB_STATES}")
        return [s for s in self.jobs.values() if s.status == status]


def _apply(state: RunState, event: Dict) -> None:
    kind = event.get("event")
    t_mono = event.get("t_mono")
    if isinstance(t_mono, (int, float)):
        state.last_t_mono = (
            t_mono if state.last_t_mono is None else max(state.last_t_mono, t_mono)
        )
    state.events_seen += 1
    if kind == "run.start":
        state.run_id = event.get("run_id", state.run_id)
        state.label = event.get("label", "")
        state.jobs_expected = event.get("jobs", 0)
        state.workers = event.get("workers", 0)
        state.retries_allowed = event.get("retries_allowed", 0)
        state.keep_going = bool(event.get("keep_going", False))
        state.cache_enabled = bool(event.get("cache_enabled", False))
        state.started = True
        state.start_t_mono = event.get("t_mono")
        state.start_t_unix = event.get("t_unix")
        return
    if kind == "run.stop":
        state.stopped = True
        state.stop_status = event.get("status")
        state.stop_t_mono = event.get("t_mono")
        state.total_wall_s = event.get("total_wall_s")
        return
    if kind == "run.resumed":
        # A resumed run extends the same file under the same run_id; the
        # counter lets replay distinguish "resumed N times" from "ran once".
        state.resumes += 1
        return
    if kind == "shard.planned":
        state.shards.append(event)
        return
    if kind == "fault.injected":
        state.faults.append(event)
        return
    if kind == "worker.heartbeat":
        state.heartbeats.append(event)
        return
    job_id = event.get("job")
    if not isinstance(job_id, str):
        return  # not a job event (or malformed enough to ignore)
    job = state.job(job_id)
    if kind == "job.scheduled":
        job.key = event.get("key", job.key)
        job.index = event.get("index", job.index)
    elif kind == "job.cache_hit":
        job.key = event.get("key", job.key)
        job.status = "cached"
        job.cache_hit_attempt = event.get("attempt")
        job.finished_t_mono = event.get("t_mono")
    elif kind == "job.started":
        attempt = event.get("attempt", 0)
        job.attempts = max(job.attempts, int(attempt) + 1)
        if not job.terminal:
            job.status = "running"
        # Each attempt restarts the running-clock (retries included).
        job.started_t_mono = event.get("t_mono")
        job.pid = event.get("pid")
    elif kind == "job.attempt_failed":
        attempt = event.get("attempt", 0)
        job.attempts = max(job.attempts, int(attempt) + 1)
        if not job.terminal:
            job.status = "retrying"
        job.error_type = event.get("error_type")
        job.error_message = event.get("error_message")
    elif kind == "job.retried":
        if not job.terminal:
            job.status = "retrying"
    elif kind == "job.stored":
        # Cache-publication bookkeeping: records the key (useful when the
        # scheduled event raced) without touching job status.
        job.key = event.get("key", job.key)
    elif kind == "job.completed":
        job.status = "completed"
        job.attempts = max(job.attempts, int(event.get("attempts", job.attempts)))
        job.wall_s = float(event.get("wall_s", 0.0))
        job.cpu_user_s = event.get("cpu_user_s")
        job.cpu_system_s = event.get("cpu_system_s")
        job.max_rss_bytes = event.get("max_rss_bytes")
        job.finished_t_mono = event.get("t_mono")
        job.error_type = None
        job.error_message = None
    elif kind == "job.failed":
        job.status = "failed"
        job.attempts = max(job.attempts, int(event.get("attempts", job.attempts)))
        job.error_type = event.get("error_type")
        job.error_message = event.get("error_message")
        job.finished_t_mono = event.get("t_mono")


#: Public fold step: ``tgi watch`` applies polled events incrementally.
apply_event = _apply


def replay(events: Iterable[Dict]) -> RunState:
    """Fold events into a :class:`RunState` (content-driven, order-robust)."""
    state = RunState()
    for event in events:
        _apply(state, event)
    return state


def replay_journal(path: Union[str, Path]) -> RunState:
    """Read and replay one journal file (torn tails tolerated)."""
    return replay(read_events(path))


def attempt_table(state: RunState) -> Dict[str, Dict[str, object]]:
    """Per-job attempt/outcome rows in the manifest's vocabulary.

    Maps each job to ``{"status", "cache_status", "attempts"}`` exactly as
    :meth:`repro.campaign.runner.CampaignRunner` records them, so a
    journal replay can be diffed against the manifest row-for-row — the
    crash-recovery contract the test tier pins.
    """
    table: Dict[str, Dict[str, object]] = {}
    for job_id, job in state.jobs.items():
        if job.status == "cached":
            row = {"status": "ok", "cache_status": "hit", "attempts": 0}
        elif job.status == "completed":
            row = {
                "status": "ok",
                "cache_status": "computed" if state.cache_enabled else "uncached",
                "attempts": job.attempts,
            }
        elif job.status == "failed":
            row = {"status": "failed", "cache_status": "failed", "attempts": job.attempts}
        else:  # in flight: scheduled/running/retrying
            row = {"status": job.status, "cache_status": None, "attempts": job.attempts}
        table[job_id] = row
    return table


# Re-exported for convenience alongside the version constant.
JOURNAL_READER_VERSION = JOURNAL_VERSION
