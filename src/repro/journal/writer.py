"""Append-only, crash-safe journal writing.

A :class:`JournalWriter` appends schema-validated events to one JSONL
file.  Each event is serialized to a single line and written with a single
``os.write`` on a file descriptor opened ``O_APPEND`` — on POSIX that
append is atomic for lines of this size, so the campaign parent and every
pool worker write to the *same* file concurrently without interleaving
partial lines.  A reader following the file therefore sees complete
events, live, while the run is still in flight; a crash can tear at most
the final line, which the reader drops (see :mod:`repro.journal.reader`).

There is no ambient writer: whoever emits holds the writer.  The campaign
layer hands it to each job's :class:`~repro.faults.FaultInjector`
(``journal=``), and code given no writer emits nothing, at the cost of one
``None`` check.

Finalization writes the terminal ``run.stop`` event, closes the
descriptor, and persists a small sidecar summary
(``<journal>.summary.json``: run id, event count, content digest, terminal
status) through the same atomic write-temp + ``os.replace`` helper the
manifest uses — a half-written summary can never shadow a good one.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union

from ..exceptions import JournalError
from .events import JOURNAL_VERSION, check_event

__all__ = [
    "JournalWriter",
    "CrashingJournalWriter",
    "SimulatedCrash",
    "new_run_id",
    "rusage_fields",
    "rusage_delta",
]

try:  # POSIX only; Windows ships without it.
    import resource as _resource
except ImportError:  # pragma: no cover - exercised only on Windows
    _resource = None


def new_run_id(label: str = "run") -> str:
    """A human-scannable, collision-safe run identifier.

    ``<label>-<utcstamp>-<pid>``: unique across processes on one host and
    across restarts of one campaign; never parsed, only matched.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in label) or "run"
    return f"{safe}-{stamp}-{os.getpid()}"


def rusage_fields() -> Dict[str, object]:
    """CPU time and peak RSS of this process, journal-field shaped.

    Measured via ``resource.getrusage(RUSAGE_SELF)``; on platforms without
    the ``resource`` module all three fields are ``None`` (the schema
    allows it), so journals stay portable.  ``ru_maxrss`` is kilobytes on
    Linux and bytes on macOS — normalized to bytes here.
    """
    if _resource is None:  # pragma: no cover - Windows
        return {"cpu_user_s": None, "cpu_system_s": None, "max_rss_bytes": None}
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    scale = 1 if sys.platform == "darwin" else 1024
    return {
        "cpu_user_s": usage.ru_utime,
        "cpu_system_s": usage.ru_stime,
        "max_rss_bytes": int(usage.ru_maxrss) * scale,
    }


def rusage_delta(start: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Per-job resource accounting relative to a :func:`rusage_fields` snapshot.

    ``getrusage(RUSAGE_SELF)`` counters are process-cumulative, so a reused
    pool worker's Nth job would otherwise inherit the CPU seconds of the
    N-1 jobs before it.  CPU user/system time is therefore differenced
    against the ``start`` snapshot taken when the attempt began.
    ``max_rss_bytes`` is a process-lifetime high-water mark — a peak cannot
    be meaningfully differenced — and is reported as the absolute peak so
    far (see the ``job.completed`` taxonomy entry).

    Passing ``start=None`` (or a snapshot from a platform without the
    ``resource`` module) degrades to the cumulative :func:`rusage_fields`.
    """
    end = rusage_fields()
    if (
        start is None
        or end.get("cpu_user_s") is None
        or start.get("cpu_user_s") is None
    ):
        return end
    return {
        "cpu_user_s": max(0.0, float(end["cpu_user_s"]) - float(start["cpu_user_s"])),
        "cpu_system_s": max(
            0.0, float(end["cpu_system_s"]) - float(start["cpu_system_s"])
        ),
        "max_rss_bytes": end["max_rss_bytes"],
    }


class JournalWriter:
    """Appends validated events to one journal file (see module docstring).

    Parameters
    ----------
    path:
        The JSONL file to append to (created if missing; an existing file
        is extended, which is how resumed runs will share one journal).
    run_id:
        Identifier stamped on every event; generated from ``label`` when
        omitted.
    process:
        Role tag (``"main"`` in the campaign parent, ``"worker-<pid>"``
        in pool workers).
    label:
        Seed for the generated run id.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        run_id: Optional[str] = None,
        process: str = "main",
        label: str = "run",
    ):
        self.path = Path(path)
        self.run_id = run_id or new_run_id(label)
        self.process = process
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._lock = threading.Lock()
        self.events_written = 0

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._fd is None

    def emit(self, event: str, **fields: object) -> Dict:
        """Validate and append one event; returns the full record."""
        if self._fd is None:
            raise JournalError(f"journal {self.path} is closed")
        now_unix = time.time()
        record: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "event": event,
            "run_id": self.run_id,
            "t_mono": time.perf_counter(),
            "t_unix": now_unix,
            "t_utc": datetime.fromtimestamp(now_unix, tz=timezone.utc)
            .isoformat()
            .replace("+00:00", "Z"),
            "pid": os.getpid(),
            "process": self.process,
        }
        record.update(fields)
        check_event(record)
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        with self._lock:
            os.write(self._fd, line.encode("utf-8"))
            self.events_written += 1
        return record

    def close(self) -> None:
        """Close the descriptor (idempotent); emits nothing."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def finalize(
        self,
        *,
        status: str = "ok",
        jobs_failed: int = 0,
        total_wall_s: float = 0.0,
        summary: bool = True,
    ) -> Optional[Dict]:
        """Write ``run.stop``, close the file, persist the sidecar summary.

        Returns the summary dict (``None`` with ``summary=False``).  The
        sidecar lands at ``<journal>.summary.json`` via the shared
        :func:`repro.serialization.atomic_write_text` helper — the same
        atomic write the manifest uses, by design, not by duplication.
        """
        self.emit(
            "run.stop",
            status=status,
            jobs_failed=jobs_failed,
            total_wall_s=float(total_wall_s),
        )
        self.close()
        if not summary:
            return None
        # Imported lazily: serialization pulls in the result-object stack,
        # which must stay importable before the journal package is.
        from ..serialization import atomic_write_text

        # Count and digest the *file*, not this writer: pool workers append
        # their events through their own handles, so the file holds more
        # than events_written.
        data = self.path.read_bytes()
        summary_data = {
            "journal_version": JOURNAL_VERSION,
            "run_id": self.run_id,
            "path": self.path.name,
            "events": data.count(b"\n"),
            "status": status,
            "jobs_failed": jobs_failed,
            "total_wall_s": float(total_wall_s),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        atomic_write_text(
            self.path.with_name(self.path.name + ".summary.json"),
            json.dumps(summary_data, indent=2, sort_keys=True) + "\n",
        )
        return summary_data

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.events_written} events"
        return f"JournalWriter({str(self.path)!r}, run_id={self.run_id!r}, {state})"


class SimulatedCrash(BaseException):
    """Raised by :class:`CrashingJournalWriter` once its budget is spent.

    Deliberately a ``BaseException``: it models the *process* dying
    (kill -9, OOM, node loss), not a job failing, so the campaign
    layer's per-job ``except Exception`` containment must not absorb it.
    """


class CrashingJournalWriter(JournalWriter):
    """Drill writer that dies after the Nth event lands on disk.

    The fatal event *is* written before :class:`SimulatedCrash` is raised
    — exactly the guarantee a real ``O_APPEND`` write plus ``kill -9``
    gives — so driving a campaign with ``crash_after=k`` for every ``k``
    enumerates every possible journal prefix a crash could leave behind.
    Used by the resume drills (tests and CI); not part of production flow.
    """

    def __init__(self, path, *, crash_after: int, **kwargs):
        super().__init__(path, **kwargs)
        self.crash_after = int(crash_after)

    def emit(self, event: str, **fields: object) -> Dict:
        record = super().emit(event, **fields)
        if self.events_written >= self.crash_after:
            self.close()
            raise SimulatedCrash(
                f"simulated crash after {self.events_written} events (last: {event})"
            )
        return record
