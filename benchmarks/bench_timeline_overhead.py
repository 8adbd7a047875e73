"""Timeline overhead bench: watt-level capture must not slow the watts.

Two claims pinned here, mirroring the journal and telemetry benches.
Capture is armed per executor, by giving it a list
(``ClusterExecutor(..., timelines=[])``); each bench builds a bare and an
armed executor from the same cluster and seed:

1. A bare executor's disarmed path is the one ``self.timelines is not
   None`` check ``execute`` makes per run — nanoseconds.
2. An armed executor's capture is reference-stashing plus an O(1)
   ``build_run_timeline`` — all heavy analysis (component grids, audits,
   binning) is deferred to artifact/dashboard time.  The armed cost stays
   **< 3%** of a full 4096-rank execute.

The armed overhead is measured as the median of interleaved paired
diffs (armed minus bare execute, alternating) rather than a diff of two
separately-timed bests: at ~50 ms per execute, scheduler noise between
two measurement blocks easily exceeds the budget itself, while paired
diffs cancel the drift.  The absolute build cost is also measured
directly via the ``sim.timeline.capture`` telemetry span, which brackets
exactly the post-integration build + record work.
"""

import time

import numpy as np

from repro import telemetry as tele
from repro.cluster import presets
from repro.perfwatch import MetricSpec, scenario
from repro.sim import ClusterExecutor
from repro.sim.placement import breadth_first_placement
from repro.sim.workload import RankProgram, barrier, compute_phase

NUM_NODES = 256  # 4096 ranks on the Fire preset
PAIRS = 15


def _execute_state():
    """Bare and armed executors + placement + programs for a 4096-rank run."""
    cluster = presets.fire(NUM_NODES)
    num_ranks = NUM_NODES * cluster.node.cores
    bare = ClusterExecutor(cluster, rng=7)
    armed = ClusterExecutor(cluster, rng=7, timelines=[])
    placement = breadth_first_placement(cluster, num_ranks)
    programs = [
        RankProgram(
            rank=r,
            phases=[
                compute_phase(10.0 + r * 0.001),
                barrier(),
                compute_phase(5.0 + (r % 32) * 0.01),
            ],
        )
        for r in range(num_ranks)
    ]
    for executor in (bare, armed):  # warm caches and allocators
        executor.execute(placement, programs)
    armed.timelines.clear()
    return bare, armed, placement, programs


def _paired_overhead_fraction(bare, armed, placement, programs, pairs=PAIRS):
    """Median of interleaved (armed - bare) diffs over the bare median."""
    bare_s, armed_s = [], []
    for _ in range(pairs):
        t0 = time.perf_counter()
        bare.execute(placement, programs)
        bare_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        armed.execute(placement, programs)
        armed_s.append(time.perf_counter() - t0)
        armed.timelines.clear()
    diffs = np.array(armed_s) - np.array(bare_s)
    return max(0.0, float(np.median(diffs) / np.median(bare_s)))


def _capture_span_fraction(armed, placement, programs):
    """Direct build cost: the sim.timeline.capture span over execute wall."""
    with tele.use(tele.TelemetrySession(label="timeline-bench")) as session:
        t0 = time.perf_counter()
        armed.execute(placement, programs)
        wall = time.perf_counter() - t0
    armed.timelines.clear()
    build = sum(
        s.duration_s for s in session.spans if s.name == "sim.timeline.capture"
    )
    return build / wall


def _disarmed_check_ns(bare, samples=500_000):
    """Per-call cost of the check ``execute`` makes on a bare executor."""
    assert bare.timelines is None
    t0 = time.perf_counter()
    for _ in range(samples):
        bare.timelines is not None  # the disarmed path, as execute runs it
    return (time.perf_counter() - t0) / samples * 1e9


@scenario(
    "sim.timeline_overhead",
    description="power-timeline capture cost on a 4096-rank execute, armed and disarmed",
    tier="quick",
    repeats=2,
    setup=_execute_state,
    metrics=(
        MetricSpec(
            "armed_overhead_fraction",
            direction="lower",
            help="median interleaved (armed - bare) execute diff / bare median; budget 0.03",
        ),
        MetricSpec(
            "capture_build_fraction",
            direction="lower",
            help="sim.timeline.capture span (build + append) over armed execute wall",
        ),
        MetricSpec(
            "disarmed_check_ns",
            unit="ns",
            direction="lower",
            help="per-call cost of execute's timelines-is-None check on a bare executor",
        ),
    ),
)
def timeline_overhead_scenario(state):
    bare, armed, placement, programs = state
    return {
        "armed_overhead_fraction": _paired_overhead_fraction(
            bare, armed, placement, programs
        ),
        "capture_build_fraction": _capture_span_fraction(armed, placement, programs),
        "disarmed_check_ns": _disarmed_check_ns(bare, samples=200_000),
    }


def test_armed_capture_under_3_percent_at_4096_ranks():
    bare, armed, placement, programs = _execute_state()
    overhead = _paired_overhead_fraction(bare, armed, placement, programs)
    build = _capture_span_fraction(armed, placement, programs)
    print(
        f"\n4096-rank execute: paired-median overhead {100 * overhead:.3f}%, "
        f"direct build span {100 * build:.3f}%"
    )
    assert overhead < 0.03, (
        f"armed timeline capture {100 * overhead:.2f}% exceeds the 3% budget"
    )
    assert build < 0.03, (
        f"timeline build span {100 * build:.2f}% exceeds the 3% budget"
    )


def test_disarmed_capture_is_a_single_none_check():
    """Disarmed product: one check per execute against the execute wall."""
    bare, _, placement, programs = _execute_state()
    t0 = time.perf_counter()
    bare.execute(placement, programs)
    wall = time.perf_counter() - t0
    per_check_s = _disarmed_check_ns(bare, samples=200_000) / 1e9
    fraction = per_check_s / wall
    print(f"\ndisarmed check: {per_check_s * 1e9:.0f} ns -> {100 * fraction:.6f}%")
    assert fraction < 0.005


def test_timeline_capture_does_not_change_results():
    """The invariance half: armed and bare runs are bit-identical.

    Fresh executors for each run — the meter's noise stream advances per
    execute, so comparing two runs of one executor would differ anyway.
    """
    _, _, placement, programs = _execute_state()
    bare = ClusterExecutor(placement.cluster, rng=7).execute(placement, programs)
    captured = []
    armed = ClusterExecutor(placement.cluster, rng=7, timelines=captured).execute(
        placement, programs
    )
    assert len(captured) == 1
    assert armed.true_energy_j == bare.true_energy_j
    assert armed.measured_energy_j == bare.measured_energy_j
    assert armed.makespan_s == bare.makespan_s
    np.testing.assert_array_equal(armed.trace.watts, bare.trace.watts)
