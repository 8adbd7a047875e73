"""Fresh-interpreter helpers of a benchmark run.

``python3 perfbench/probe.py setup WORKLOAD SEED WORKDIR``
    The set-up probe: import what WORKLOAD's op needs, build the first
    timed op's inputs, then print ``ready``.  The parent times the probe
    from launch to that line.

``python3 perfbench/probe.py fill WORKDIR``
    The ``campaign_warm`` fixture: run the default eight jobs into
    ``WORKDIR/warm-cache`` and print the manifest fingerprint as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, fill_cache


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        workload = WORKLOADS[name]()
        workload.load()
        workload.inputs(seed, 1, workdir)
        print("ready", flush=True)
        return 0
    if mode == "fill":
        print(json.dumps({"fingerprint": fill_cache(Path(argv[1]))}), flush=True)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
