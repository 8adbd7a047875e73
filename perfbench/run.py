"""Benchmark entry point: run one workload in its own quiet process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_rank --seed 1 --seconds 20 --trace 0

Workloads: ``paper_repro`` (``tgi run all``), ``fleet_rank`` (``tgi fleet
rank`` over 2,000 generated systems), ``campaign_cold`` and
``campaign_warm`` (``tgi campaign --fleet 6`` on an empty and a filled
cache).  See ``workloads.py`` for the ops and their checks and
``harness.py`` for how a run measures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is 0
only when every op passed its check.  Without the program's sources
(``src/repro``) next to this directory the run exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The harness is stopped after this long, so a run always ends within 180 s.
TIMEOUT_S = 170

#: Every benchmark process: fixed hashing, and no more threads than the
#: two vCPUs the measurements were made on can run at once.
QUIET_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources at {src}/repro; nothing to measure", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(QUIET_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "harness.py"),
            args.workload,
            str(args.seed),
            str(args.seconds),
            str(args.trace),
        ],
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIMEOUT_S} s; stopped", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
