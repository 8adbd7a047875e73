"""The campaign flight recorder: an append-only, crash-safe run journal.

Every journaled campaign run appends schema-versioned JSONL events —
run/job lifecycle, retries, cache hits, worker heartbeats, per-job
resource accounting, injected faults — to one file that the parent and
all pool workers share via atomic ``O_APPEND`` line writes.  Consumers:

:mod:`~repro.journal.writer`
    :class:`JournalWriter`, which the campaign layer passes to whatever
    emits (there is no ambient writer).
:mod:`~repro.journal.reader`
    Torn-tail-tolerant parsing, the :class:`JournalFollower` used by
    ``tgi watch`` to tail in-flight runs, and :func:`replay` — exact
    per-job attempt-state reconstruction, the substrate for crash-resume.
:mod:`~repro.journal.progress`
    Live progress snapshots (done/running/failed/cached, throughput,
    ETA, slowest-running watchlist).
:mod:`~repro.journal.trace_export`
    Chrome trace-event / Perfetto export of journals and telemetry span
    dumps on one aligned timeline.
:mod:`~repro.journal.report`
    Post-run anomaly flagging: stragglers, retry storms, cache-hit-rate
    collapse.

See ``docs/observability.md`` for the event taxonomy and CLI verbs.
"""

from .. import _lazy
from . import writer  # noqa: F401 - every journaled op emits through it

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "events": (
            "EVENT_TYPES",
            "JOURNAL_VERSION",
            "RUN_STATUSES",
            "check_event",
            "validate_event",
        ),
        "progress": (
            "RunProgress",
            "now_mono",
            "progress_from_state",
            "progress_to_dict",
            "render_progress",
        ),
        "reader": (
            "JobState",
            "JournalFollower",
            "RunState",
            "ScanResult",
            "apply_event",
            "attempt_table",
            "journal_digest",
            "read_events",
            "replay",
            "replay_journal",
            "scan_journal",
            "validate_events",
        ),
        "report": (
            "Anomaly",
            "JournalReport",
            "analyze_state",
            "render_report",
            "report_to_dict",
        ),
        "trace_export": (
            "TRACE_FORMATS",
            "chrome_trace",
            "journal_trace_events",
            "telemetry_trace_events",
            "validate_trace",
        ),
        "writer": (
            "CrashingJournalWriter",
            "JournalWriter",
            "SimulatedCrash",
            "new_run_id",
            "rusage_delta",
            "rusage_fields",
        ),
    },
)
