"""Result persistence: JSON campaign archives.

A benchmarking campaign is expensive (on real hardware, days); archiving
the measurements so metrics can be recomputed later with different weights
or references is basic hygiene.  This module serializes the library's
result objects to plain JSON-compatible dicts and back:

* :func:`benchmark_result_to_dict` / :func:`benchmark_result_from_dict`
* :func:`suite_result_to_dict` / :func:`suite_result_from_dict`
* :func:`sweep_result_to_dict` / :func:`sweep_result_from_dict`
* :func:`reference_to_dict` / :func:`reference_from_dict`
* :func:`save_json` / :func:`load_json`

Round-tripped results keep everything the metric layer consumes (the
performance number, the ground-truth power curve, the metered trace), so
``TGICalculator`` works identically on loaded archives.  The archived
cluster is recorded by *name and shape only* — specs are code, not data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Union

from .benchmarks.base import BenchmarkResult
from .benchmarks.runner import ScalePoint, SweepResult
from .benchmarks.suite import SuiteResult
from .cluster.cluster import ClusterSpec
from .core.ree import ReferenceSet
from .exceptions import ReproError
from .power.trace import PiecewisePower, PowerTrace
from .sim.executor import RunRecord

__all__ = [
    "FORMAT_VERSION",
    "benchmark_result_to_dict",
    "benchmark_result_from_dict",
    "suite_result_to_dict",
    "suite_result_from_dict",
    "sweep_result_to_dict",
    "sweep_result_from_dict",
    "reference_to_dict",
    "reference_from_dict",
    "atomic_write_text",
    "save_json",
    "load_json",
]

#: Schema version embedded in every archive.
FORMAT_VERSION = 1


def _cluster_summary(record: RunRecord) -> Dict:
    cluster = record.cluster
    return {
        "name": cluster.name,
        "num_nodes": cluster.num_nodes,
        "cores_per_node": cluster.node.cores,
    }


def benchmark_result_to_dict(result: BenchmarkResult) -> Dict:
    """Serialize one benchmark result (including both power records)."""
    record = result.record
    return {
        "format_version": FORMAT_VERSION,
        "benchmark": result.benchmark,
        "metric_label": result.metric_label,
        "performance": result.performance,
        "scale": result.scale,
        "details": dict(result.details),
        "record": {
            "label": record.label,
            "cluster": _cluster_summary(record),
            "num_ranks": record.num_ranks,
            "makespan_s": record.makespan_s,
            "truth_segments": [list(segment) for segment in record.truth.segments],
            "trace_times": record.trace.times.tolist(),
            "trace_watts": record.trace.watts.tolist(),
        },
    }


def benchmark_result_from_dict(data: Dict, *, cluster: ClusterSpec = None) -> BenchmarkResult:
    """Rebuild a benchmark result.

    ``cluster`` optionally re-attaches a live spec; otherwise the record
    carries ``None`` for the cluster (the metric layer never touches it).
    """
    _check_version(data)
    rec = data["record"]
    record = RunRecord(
        label=rec["label"],
        cluster=cluster,
        num_ranks=rec["num_ranks"],
        makespan_s=rec["makespan_s"],
        truth=PiecewisePower([tuple(seg) for seg in rec["truth_segments"]]),
        trace=PowerTrace(rec["trace_times"], rec["trace_watts"]),
    )
    return BenchmarkResult(
        benchmark=data["benchmark"],
        metric_label=data["metric_label"],
        performance=data["performance"],
        scale=data["scale"],
        record=record,
        details=dict(data["details"]),
    )


def suite_result_to_dict(suite_result: SuiteResult) -> Dict:
    """Serialize a whole suite run."""
    return {
        "format_version": FORMAT_VERSION,
        "cores": suite_result.cores,
        "results": [benchmark_result_to_dict(r) for r in suite_result.results],
    }


def suite_result_from_dict(data: Dict, *, cluster: ClusterSpec = None) -> SuiteResult:
    """Rebuild a suite run."""
    _check_version(data)
    return SuiteResult(
        cores=data["cores"],
        results=tuple(
            benchmark_result_from_dict(r, cluster=cluster) for r in data["results"]
        ),
    )


def sweep_result_to_dict(sweep: SweepResult) -> Dict:
    """Serialize a scaling sweep (the raw data behind Figures 2-6)."""
    return {
        "format_version": FORMAT_VERSION,
        "cores": sweep.cores,
        "suites": [suite_result_to_dict(s) for s in sweep.suites],
    }


def sweep_result_from_dict(data: Dict, *, cluster: ClusterSpec = None) -> SweepResult:
    """Rebuild a scaling sweep."""
    _check_version(data)
    return SweepResult(
        points=tuple(ScalePoint(cores=c) for c in data["cores"]),
        suites=tuple(
            suite_result_from_dict(s, cluster=cluster) for s in data["suites"]
        ),
    )


def reference_to_dict(reference: ReferenceSet) -> Dict:
    """Serialize a reference set (the Table-I numbers)."""
    return {
        "format_version": FORMAT_VERSION,
        "system_name": reference.system_name,
        "efficiencies": reference.as_dict(),
    }


def reference_from_dict(data: Dict) -> ReferenceSet:
    """Rebuild a reference set."""
    _check_version(data)
    return ReferenceSet(data["efficiencies"], system_name=data["system_name"])


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and ``os.replace``.

    A crash (or a contained job failure unwinding the stack) mid-write can
    otherwise leave a half-serialized archive that poisons every later
    read.  The temp name carries the pid so two processes targeting the
    same path never collide on the intermediate file; the final rename is
    atomic on POSIX and Windows alike.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_json(data: Dict, path: Union[str, Path]) -> None:
    """Write a serialized object to a JSON file (atomically)."""
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True))


def load_json(path: Union[str, Path]) -> Dict:
    """Read a JSON archive."""
    return json.loads(Path(path).read_text())


def _check_version(data: Dict) -> None:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(
            f"archive format version {version!r} not supported "
            f"(this library reads version {FORMAT_VERSION})"
        )
