"""The journal event taxonomy and its schema.

Every journal line is one JSON object — an *event* — with a fixed set of
common fields plus per-type fields.  The schema here is the single source
of truth: the writer validates events on emission, ``tgi journal
validate`` re-validates files after the fact (the CI drill), and the
reader's replay logic dispatches on the same type names.

Common fields (every event):

``v``
    Journal schema version (:data:`JOURNAL_VERSION`).
``event``
    The type name, one of :data:`EVENT_TYPES`.
``run_id``
    Identifier of the campaign run the event belongs to; all events of one
    journal file share it (concatenated runs remain distinguishable).
``t_mono``
    Monotonic timestamp (``time.perf_counter``): ordering and durations.
    On one host the monotonic clock is shared across processes, so parent
    and worker events interleave on a single timeline.
``t_unix`` / ``t_utc``
    The UTC wall-clock instant (``time.time`` seconds, plus the ISO-8601
    rendering) — cross-machine/calendar alignment, same convention as the
    telemetry exports.
``pid`` / ``process``
    Emitting process id and role tag (``"main"`` or ``"worker-<pid>"``).

Event types
-----------
``run.start`` / ``run.stop``
    Campaign lifecycle.  ``run.stop`` carries the terminal ``status``
    (``ok``/``failed``/``aborted``) — its *absence* is how a reader
    detects a crashed or in-flight run.  ``run.start`` also carries the
    run's ``shards`` count (optional in the schema).
``run.resumed``
    A crash-resumed campaign picked the journal back up: how many jobs
    were recovered (terminal in the replayed state *and* recoverable from
    the shared result cache) versus re-scheduled.  The resumed run keeps
    the original ``run_id`` and extends the same file, so one journal
    tells the whole story.
``shard.planned``
    One per shard of the campaign's plan: the shard ordinal and how many
    jobs the deterministic plan placed in it.
``job.scheduled``
    One per job, in submission order, with the content-addressed job key.
``job.stolen``
    Work-stealing: an idle worker slot (affinity ``by_shard``) took a job
    planned into ``from_shard``.  Pure scheduling telemetry — replay does
    not change job state on it.
``job.stored``
    The executing process published a job's payload into the shared
    result cache (emitted *after* the atomic rename lands, so its
    presence implies a durable entry).
``job.cache_hit``
    The job was served from the result cache (``attempt`` records on
    which attempt the hit landed — 0 for the usual pre-execution probe).
``job.started``
    One per execution attempt, emitted by whichever process runs it.
``job.attempt_failed`` / ``job.retried``
    A contained attempt failure, and the decision to re-attempt (with the
    backoff delay chosen).
``job.completed`` / ``job.failed``
    Terminal job states.  ``job.completed`` carries the per-job resource
    accounting captured in the executing process via
    ``resource.getrusage``: CPU seconds (user/system) *differenced*
    against a snapshot taken when the attempt began (getrusage counters
    are process-cumulative, so a reused pool worker would otherwise bill
    every job for its predecessors), and peak RSS — which stays a
    process-lifetime high-water mark, since a peak cannot be meaningfully
    differenced.
``worker.heartbeat``
    Emitted by a pool worker as it picks up work — liveness plus
    cumulative resource usage of that worker process.
``fault.injected``
    A deterministic fault from :mod:`repro.faults` fired, typed by kind.
``timeline.captured``
    A job's power-timeline artifact landed on disk
    (:mod:`repro.timeline`): the artifact path, how many run timelines it
    summarizes, and their total true energy.  A pointer, not a payload —
    replay ignores it, so journals stay replayable whether or not the
    timeline layer was armed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..exceptions import JournalError

__all__ = [
    "JOURNAL_VERSION",
    "EVENT_TYPES",
    "COMMON_FIELDS",
    "EVENT_FIELDS",
    "RUN_STATUSES",
    "validate_event",
    "check_event",
]

#: Schema version stamped into every event (the ``v`` field).
JOURNAL_VERSION = 1

#: Terminal statuses a ``run.stop`` event may carry.
RUN_STATUSES = ("ok", "failed", "aborted")

# (name, allowed types, required) for the fields every event carries.
COMMON_FIELDS: Tuple[Tuple[str, tuple, bool], ...] = (
    ("v", (int,), True),
    ("event", (str,), True),
    ("run_id", (str,), True),
    ("t_mono", (float, int), True),
    ("t_unix", (float, int), True),
    ("t_utc", (str,), True),
    ("pid", (int,), True),
    ("process", (str,), True),
)

#: Per-type fields: ``event -> ((name, allowed types, required), ...)``.
EVENT_FIELDS: Dict[str, Tuple[Tuple[str, tuple, bool], ...]] = {
    "run.start": (
        ("label", (str,), True),
        ("jobs", (int,), True),
        ("workers", (int,), True),
        ("retries_allowed", (int,), True),
        ("keep_going", (bool,), True),
        ("cache_enabled", (bool,), True),
        ("shards", (int,), False),
    ),
    "run.resumed": (
        ("jobs_recovered", (int,), True),
        ("jobs_pending", (int,), True),
        ("shards", (int,), True),
    ),
    "shard.planned": (
        ("shard", (int,), True),
        ("jobs", (int,), True),
    ),
    "run.stop": (
        ("status", (str,), True),
        ("jobs_failed", (int,), True),
        ("total_wall_s", (float, int), True),
    ),
    "job.scheduled": (
        ("job", (str,), True),
        ("key", (str,), True),
        ("index", (int,), True),
    ),
    "job.cache_hit": (
        ("job", (str,), True),
        ("key", (str,), True),
        ("attempt", (int,), True),
    ),
    "job.started": (
        ("job", (str,), True),
        ("attempt", (int,), True),
    ),
    "job.stolen": (
        ("job", (str,), True),
        ("from_shard", (int,), True),
        ("by_shard", (int,), True),
    ),
    "job.stored": (
        ("job", (str,), True),
        ("key", (str,), True),
    ),
    "job.attempt_failed": (
        ("job", (str,), True),
        ("attempt", (int,), True),
        ("error_type", (str,), True),
        ("error_message", (str,), True),
        ("wall_s", (float, int), True),
    ),
    "job.retried": (
        ("job", (str,), True),
        ("attempt", (int,), True),
        ("delay_s", (float, int), True),
    ),
    "job.completed": (
        ("job", (str,), True),
        ("attempts", (int,), True),
        ("wall_s", (float, int), True),
        ("cpu_user_s", (float, int, type(None)), False),
        ("cpu_system_s", (float, int, type(None)), False),
        ("max_rss_bytes", (int, type(None)), False),
    ),
    "job.failed": (
        ("job", (str,), True),
        ("attempts", (int,), True),
        ("error_type", (str,), True),
        ("error_message", (str,), True),
    ),
    "worker.heartbeat": (
        ("jobs_done", (int,), True),
        ("cpu_user_s", (float, int, type(None)), False),
        ("cpu_system_s", (float, int, type(None)), False),
        ("max_rss_bytes", (int, type(None)), False),
    ),
    "fault.injected": (
        ("kind", (str,), True),
        ("scope", (str,), True),
        ("attempt", (int,), True),
    ),
    "timeline.captured": (
        ("job", (str,), True),
        ("path", (str,), True),
        ("runs", (int,), True),
        ("energy_j", (float, int), True),
    ),
    "fleet.ranked": (
        ("systems", (int,), True),
        ("batched", (int,), True),
        ("simulated", (int,), True),
        ("wall_s", (float, int), True),
    ),
}

#: All known event type names, sorted.
EVENT_TYPES = tuple(sorted(EVENT_FIELDS))


def _check_fields(event: Dict, spec, problems: List[str]) -> None:
    for name, types, required in spec:
        if name not in event:
            if required:
                problems.append(f"missing field {name!r}")
            continue
        value = event[name]
        # bool is an int subclass; reject it where int is expected but
        # bool is not explicitly allowed, so counts stay counts.
        if isinstance(value, bool) and bool not in types:
            problems.append(f"field {name!r} must not be a bool, got {value!r}")
            continue
        if not isinstance(value, tuple(types)):
            problems.append(
                f"field {name!r} expects {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )


def validate_event(event: object) -> List[str]:
    """Schema-check one event; returns the list of problems (empty = valid)."""
    if not isinstance(event, dict):
        return [f"event must be a JSON object, got {type(event).__name__}"]
    problems: List[str] = []
    _check_fields(event, COMMON_FIELDS, problems)
    version = event.get("v")
    if isinstance(version, int) and version != JOURNAL_VERSION:
        problems.append(f"journal version {version} unsupported (reads {JOURNAL_VERSION})")
    kind = event.get("event")
    if isinstance(kind, str):
        spec = EVENT_FIELDS.get(kind)
        if spec is None:
            problems.append(f"unknown event type {kind!r}")
        else:
            _check_fields(event, spec, problems)
            known = {name for name, _, _ in COMMON_FIELDS}
            known.update(name for name, _, _ in spec)
            extras = sorted(set(event) - known)
            if extras:
                problems.append(f"unknown field(s) {extras} for event {kind!r}")
    if (
        event.get("event") == "run.stop"
        and isinstance(event.get("status"), str)
        and event["status"] not in RUN_STATUSES
    ):
        problems.append(
            f"run.stop status must be one of {RUN_STATUSES}, got {event['status']!r}"
        )
    return problems


def check_event(event: Dict) -> Dict:
    """Validate an event, raising :class:`~repro.exceptions.JournalError`."""
    problems = validate_event(event)
    if problems:
        raise JournalError(
            f"invalid journal event {event.get('event')!r}: " + "; ".join(problems)
        )
    return event
