"""One benchmark run of one workload, in this process.

``run.py`` starts this file in a fresh interpreter with a quiet
environment (fixed ``PYTHONHASHSEED``, one BLAS/OpenMP thread) and the
program's ``src`` on the path::

    python3 perfbench/harness.py WORKLOAD SEED SECONDS TRACE

A run pins itself (and so its children) to the vCPU it started on, then
goes: imports, fixture, one untimed warm-up op checked against pinned
values, then timed ops until SECONDS have passed.  Every timed op follows
an untimed ``gc.collect()`` and sits between two host-speed probes
(``hostspeed.py``); its output is checked and its files removed.  Set-up
probes (fresh interpreters, also between host-speed probes) are spread
through the run.

The host this was built on drifts by up to 1.9x for minutes at a time, so
raw times of the same code disagree from run to run by more than any useful
bound.  Each timed interval is therefore reported at the reference host
speed (``hostspeed.at_reference``), and a run reports medians of those.

End-to-end metrics (``TRACE`` 0):

* ``setup_s``     -- median over the set-up probes of launch-to-ready time;
* ``op_s``        -- median time of the timed ops;
* ``peak_rss_mb`` -- this process's peak resident memory.

The diagnostics line before the result has the raw times and the host-probe
median.  With ``TRACE`` 1 the run alternates traced and untraced ops,
prints the per-layer metrics (per traced op) and the tracing overhead, and
fails if a boundary the workload should move saw no calls, or a layer that
should be idle saw some.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
import tracer as tracing
from workloads import WORKLOADS, OpInputs, Workload

#: Set-up probes per run; the run reports their median.
SETUP_PROBES = 5

HERE = Path(__file__).resolve().parent


def pin_to_current_cpu() -> None:
    """Keep this process and the children it starts on its current vCPU.

    The vCPUs slow down independently, so an interval and the host probes
    around it must run on the same one.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no /proc or no affinity call: run unpinned


def setup_probe(name: str, seed: int, workdir: Path) -> Tuple[float, float]:
    """Launch-to-ready time of a fresh interpreter: ``(seconds, host probe)``."""
    before = hostspeed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "setup", name, str(seed), str(workdir)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed, (before + hostspeed.probe()) / 2.0


def timed_op(
    workload: Workload,
    inputs: OpInputs,
    *,
    pinned: bool = False,
    tracer: Optional[tracing.Tracer] = None,
    tamper: Optional[Callable] = None,
):
    """Run one op between two host probes.

    Returns ``(seconds, host probe, failure reason)``: the op's wall time,
    the mean of the probes around it (both ``None`` when the op raised),
    and ``None`` for the reason when the op passed.  An op fails when it
    raises or when its output check fails.  ``tamper`` rewrites the output
    before the check (the smoke test's way to show a wrong output is
    counted).
    """
    gc.collect()
    before = hostspeed.probe()
    if tracer is not None:
        tracer.install(inputs.index)
    try:
        t0 = time.perf_counter()
        output = workload.op(inputs)
        elapsed = time.perf_counter() - t0
        after = hostspeed.probe()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, None, f"op {inputs.index} raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup(inputs)
    host = (before + after) / 2.0
    if tamper is not None:
        output = tamper(output)
    reason = workload.check_pinned(output) if pinned else workload.check(output)
    if reason is not None:
        return elapsed, host, f"op {inputs.index}: {reason}"
    return elapsed, host, None


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    *,
    tamper: Optional[Callable] = None,
) -> Dict:
    """Run ``name`` for ``seconds``; returns the result and diagnostics."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]()
    workload.load()
    workload.fixture(workdir)
    errors: List[str] = []
    *_, reason = timed_op(workload, workload.inputs(seed, 0, workdir), pinned=True)
    attempted, failed = 1, 0
    if reason is not None:
        failed += 1
        errors.append(f"warm-up: {reason}")

    tracer = tracing.Tracer() if trace else None
    op_raw: List[float] = []
    op_ref: List[float] = []
    traced_ref: List[float] = []
    host_s: List[float] = []
    setup_raw: List[float] = []
    setup_ref: List[float] = []
    due = [seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        while due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            raw, host = setup_probe(name, seed, workdir)
            setup_raw.append(raw)
            setup_ref.append(hostspeed.at_reference(raw, host))
        index += 1
        traced = tracer is not None and index % 2 == 1
        raw, host, reason = timed_op(
            workload,
            workload.inputs(seed, index, workdir),
            tracer=tracer if traced else None,
            tamper=tamper,
        )
        attempted += 1
        if reason is not None:
            failed += 1
            errors.append(reason)
        if raw is None:
            continue
        host_s.append(host)
        if traced:
            traced_ref.append(hostspeed.at_reference(raw, host))
        else:
            op_raw.append(raw)
            op_ref.append(hostspeed.at_reference(raw, host))
    for _ in due:
        raw, host = setup_probe(name, seed, workdir)
        setup_raw.append(raw)
        setup_ref.append(hostspeed.at_reference(raw, host))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = statistics.median(op_ref) if op_ref else 0.0
    metrics = {
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "op_s": {"value": op_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    diagnostics = {
        "workload": name,
        "seed": seed,
        "op_count": len(op_ref),
        "op_raw_min_s": min(op_raw) if op_raw else None,
        "op_raw_median_s": statistics.median(op_raw) if op_raw else None,
        "host_probe_median_s": statistics.median(host_s) if host_s else None,
        "op_at_reference_s": op_ref,
        "setup_raw_s": setup_raw,
        "setup_at_reference_s": setup_ref,
        "errors": errors,
    }
    if tracer is not None:
        trace_file = workdir.parent / f"trace-{name}.jsonl"
        tracer.dump(trace_file)
        totals = tracer.totals(len(traced_ref))
        errors.extend(tracing.coverage_errors(totals, workload.moves, workload.silent))
        traced_s = statistics.median(traced_ref) if traced_ref else 0.0
        overhead = traced_s / op_s - 1.0 if traced_ref and op_ref else 0.0
        diagnostics.update(
            end_to_end=metrics,
            traced_ops=len(traced_ref),
            tracing_overhead=overhead,
            trace_file=str(trace_file),
        )
        metrics = {
            **tracing.per_layer_metrics(totals),
            "trace.op_s": {"value": traced_s, "unit": "s"},
            "trace.overhead": {"value": overhead, "unit": "ratio"},
            "trace.spans": {"value": len(tracer.spans) / totals.ops, "unit": "count"},
        }
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "diagnostics": diagnostics}


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    pin_to_current_cpu()
    root = HERE.parent
    workdir = root / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"diagnostics": out["diagnostics"]}))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
