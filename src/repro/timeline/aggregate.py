"""Timeline artifacts and streaming fleet aggregation.

One campaign job → one ``<job_id>.timeline.json`` artifact holding a
downsampled summary of every run the job executed (min-max binned total,
per-component bin means, an LTTB-reduced meter trace, the conservation
audit, and the anomaly scan).  Artifacts are written atomically and are
deliberately small — ~100 bins per curve — so a 100k-rank run renders in
a few KB and a 50-config campaign's whole timeline directory stays under
a megabyte.

:class:`FleetAggregator` streams over artifacts (one at a time, never the
whole fleet in memory as timelines) and produces the ranking rows the
dashboard renders.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from ..exceptions import TimelineError
from .audit import audit_run_timeline
from .downsample import lttb_indices, minmax_bins
from .lenses import scan_run
from .model import RunTimeline

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "run_summary",
    "write_job_artifact",
    "read_job_artifact",
    "discover_artifacts",
    "load_artifacts",
    "FleetAggregator",
]

#: Bumped when the artifact layout changes incompatibly.
TIMELINE_SCHEMA_VERSION = 1

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]+")


def _round_list(values: np.ndarray, digits: int = 3) -> List[float]:
    return [round(float(v), digits) for v in values]


def run_summary(
    timeline: RunTimeline,
    *,
    bins: int = 96,
    meter_points: int = 64,
) -> Dict[str, object]:
    """A JSON-friendly, render-ready summary of one run timeline.

    Curve watts are rounded to milliwatts (rendering precision); energies
    and audit errors keep full precision.
    """
    audit = audit_run_timeline(timeline)
    binned = minmax_bins(
        timeline.total_starts, timeline.total_ends, timeline.total_watts, bins
    )
    edges, levels, _ = timeline.component_grid()
    component_bins = {
        name: _round_list(
            minmax_bins(edges[:-1], edges[1:], level, bins)["w_mean"]
        )
        for name, level in sorted(levels.items())
    }
    meter_idx = (
        lttb_indices(timeline.meter_times, timeline.meter_watts, meter_points)
        if timeline.meter_times.size > meter_points
        else np.arange(timeline.meter_times.size)
    )
    return {
        "label": timeline.label,
        "cluster": timeline.cluster_name,
        "num_ranks": timeline.num_ranks,
        "num_nodes": timeline.num_nodes,
        "nodes_active": timeline.nodes_active,
        "idle_nodes": timeline.idle_nodes,
        "makespan_s": timeline.makespan_s,
        "metering": timeline.metering,
        "segments": timeline.segments,
        "energy_j": timeline.energy_j,
        "true_energy_j": timeline.true_energy_j,
        "measured_energy_j": timeline.measured_energy_j,
        "mean_power_w": timeline.mean_power_w,
        "max_power_w": timeline.max_power_w,
        "breakdown": {k: float(v) for k, v in sorted(timeline.breakdown.items())},
        "audit": audit.as_dict(),
        "anomalies": scan_run(timeline),
        "total": {
            "t0": float(binned["edges"][0]),
            "t1": float(binned["edges"][-1]),
            "bins": bins,
            "w_min": _round_list(binned["w_min"]),
            "w_max": _round_list(binned["w_max"]),
            "w_mean": _round_list(binned["w_mean"]),
        },
        "components": component_bins,
        "meter": {
            "times": _round_list(timeline.meter_times[meter_idx]),
            "watts": _round_list(timeline.meter_watts[meter_idx]),
        },
    }


def artifact_path(directory: Union[str, Path], job_id: str) -> Path:
    """Where a job's timeline artifact lives (job id made filesystem-safe)."""
    return Path(directory) / f"{_SAFE_ID.sub('_', job_id)}.timeline.json"


def write_job_artifact(
    directory: Union[str, Path],
    *,
    job_id: str,
    timelines: Sequence[RunTimeline],
    bins: int = 96,
    meter_points: int = 64,
) -> Path:
    """Summarize one job's captured timelines into its artifact file."""
    if not timelines:
        raise TimelineError(f"job {job_id!r} captured no timelines")
    payload = {
        "timeline_version": TIMELINE_SCHEMA_VERSION,
        "job_id": job_id,
        "runs": [
            run_summary(tl, bins=bins, meter_points=meter_points)
            for tl in timelines
        ],
    }
    # Imported here: repro.serialization pulls in the benchmark layer,
    # which imports the executor, which imports this package — a cycle at
    # module-import time but not at write time.
    from ..serialization import atomic_write_text

    path = artifact_path(directory, job_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")
    return path


def read_job_artifact(path: Union[str, Path]) -> Dict[str, object]:
    """Load and structurally validate one artifact."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TimelineError(f"unreadable timeline artifact {path}: {exc}") from exc
    version = data.get("timeline_version")
    if version != TIMELINE_SCHEMA_VERSION:
        raise TimelineError(
            f"{path}: timeline artifact version {version!r} not supported "
            f"(this build reads version {TIMELINE_SCHEMA_VERSION})"
        )
    if "job_id" not in data or not isinstance(data.get("runs"), list):
        raise TimelineError(f"{path}: missing job_id/runs")
    return data


def discover_artifacts(directory: Union[str, Path]) -> List[Path]:
    """Every ``*.timeline.json`` under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise TimelineError(f"timeline directory not found: {directory}")
    return sorted(directory.glob("*.timeline.json"))


def load_artifacts(directory: Union[str, Path]) -> List[Dict[str, object]]:
    """Read every artifact in ``directory`` (raises when there are none)."""
    paths = discover_artifacts(directory)
    if not paths:
        raise TimelineError(f"no *.timeline.json artifacts under {directory}")
    return [read_job_artifact(p) for p in paths]


class FleetAggregator:
    """Streaming reduction of job artifacts into fleet ranking rows."""

    def __init__(self) -> None:
        self._rows: List[Dict[str, object]] = []
        self.runs_total = 0
        self.audits_failed = 0

    def add_artifact(self, artifact: Dict[str, object]) -> None:
        """Fold one job artifact in (constant memory per job)."""
        job_id = str(artifact["job_id"])
        runs: List[Dict] = artifact["runs"]  # type: ignore[assignment]
        if not runs:
            return
        self.runs_total += len(runs)
        energy = sum(float(r["energy_j"]) for r in runs)
        makespan = sum(float(r["makespan_s"]) for r in runs)
        flagged = sorted(
            {
                a["lens"]
                for r in runs
                for a in r.get("anomalies", [])
                if a.get("flagged")
            }
        )
        audit_ok = all(r.get("audit", {}).get("ok", False) for r in runs)
        if not audit_ok:
            self.audits_failed += 1
        self._rows.append(
            {
                "job_id": job_id,
                "cluster": str(runs[0]["cluster"]),
                "num_ranks": max(int(r["num_ranks"]) for r in runs),
                "num_nodes": int(runs[0]["num_nodes"]),
                "runs": len(runs),
                "energy_j": energy,
                "makespan_s": makespan,
                "mean_power_w": energy / makespan if makespan else 0.0,
                "max_power_w": max(float(r["max_power_w"]) for r in runs),
                "audit_ok": audit_ok,
                "flags": flagged,
            }
        )

    def add_directory(self, directory: Union[str, Path]) -> None:
        for path in discover_artifacts(directory):
            self.add_artifact(read_job_artifact(path))

    def rows(self, *, rank_by: str = "energy_j") -> List[Dict[str, object]]:
        """Ranking rows, greenest (lowest ``rank_by``) first."""
        ordered = sorted(
            self._rows, key=lambda r: (float(r[rank_by]), str(r["job_id"]))
        )
        for rank, row in enumerate(ordered, start=1):
            row["rank"] = rank
        return ordered
