"""Journal overhead bench: the flight recorder must not slow the flight.

The claim pinned here: with the recorder armed, the cost is (events the
campaign emits) x (measured per-emit cost: validate + serialize + one
``O_APPEND`` ``os.write``), and that product stays **< 2%** of the
campaign's wall time.  Measured as a product, not a diff, for the same
reason the telemetry bench does it: on deliberately tiny jobs a
wall-clock diff is noise, while the product is a stable upper bound.
Unarmed, nothing is emitted at all: every emitting site holds the writer
it was given and checks it against ``None``.

The campaign is 50 genuinely executed single-point jobs on a one-node
Fire preset with a small HPL — the same denominator the telemetry
overhead bench uses, so the two budgets are comparable.
"""

import dataclasses
import tempfile
import time
from pathlib import Path

from repro import journal as jrnl
from repro.campaign import CampaignRunner
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.experiments import PAPER_CONFIG
from repro.perfwatch import MetricSpec, scenario

JOB_COUNT = 50
REPEATS = 3

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


def _jobs():
    return [
        CampaignJob(
            job_id=f"journal-{i:02d}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=1),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
        )
        for i in range(JOB_COUNT)
    ]


def _campaign_seconds() -> float:
    """Best-of-REPEATS wall time of the unjournaled campaign (serial)."""
    best = float("inf")
    for _ in range(REPEATS):
        runner = CampaignRunner(workers=1)
        jobs = _jobs()
        t0 = time.perf_counter()
        runner.run(jobs, label="journal-overhead")
        best = min(best, time.perf_counter() - t0)
    return best


def _census_events() -> int:
    """Events one journaled run of this campaign actually appends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census.jsonl"
        CampaignRunner(workers=1, journal=path).run(_jobs(), label="census")
        return len(jrnl.read_events(path))


def _measured_emit_cost_s(samples: int = 20_000) -> float:
    """Per-event cost of one armed emit: validate + serialize + append."""
    with tempfile.TemporaryDirectory() as tmp:
        writer = jrnl.JournalWriter(Path(tmp) / "emit.jsonl", label="bench")
        t0 = time.perf_counter()
        for i in range(samples):
            writer.emit("job.started", job="bench", attempt=0)
        elapsed = time.perf_counter() - t0
        writer.close()
    return elapsed / samples


@scenario(
    "campaign.journal_overhead",
    description="flight-recorder cost, absolute and relative to a 50-config campaign",
    tier="quick",
    repeats=2,
    metrics=(
        MetricSpec(
            "emit_cost_us",
            unit="us",
            direction="lower",
            help="per-event cost of one armed emit (validate + serialize + O_APPEND write)",
        ),
        MetricSpec(
            "campaign_overhead_fraction",
            direction="lower",
            help="(events emitted x per-emit cost) / campaign wall time; budget is 0.02",
        ),
    ),
)
def journal_overhead_scenario():
    events = _census_events()
    per_emit_s = _measured_emit_cost_s()
    plain_s = _campaign_seconds()
    return {
        "emit_cost_us": per_emit_s * 1e6,
        "campaign_overhead_fraction": events * per_emit_s / plain_s,
    }


def test_journal_overhead_under_2_percent_on_50_config_campaign():
    events = _census_events()
    per_emit_s = _measured_emit_cost_s(samples=10_000)
    plain_s = _campaign_seconds()
    overhead = events * per_emit_s / plain_s
    print(
        f"\n50-config campaign: {events} journal events x "
        f"{per_emit_s * 1e6:.1f} us = {events * per_emit_s * 1e3:.2f} ms "
        f"over {plain_s:.3f} s -> {100 * overhead:.3f}% overhead"
    )
    assert overhead < 0.02, (
        f"journal overhead {100 * overhead:.2f}% exceeds the 2% budget"
    )


def test_journal_does_not_change_results():
    """The invariance half of the budget: identical fingerprints on or off."""
    jobs = _jobs()[:3]
    with tempfile.TemporaryDirectory() as tmp:
        journaled = CampaignRunner(
            workers=1, journal=Path(tmp) / "run.jsonl"
        ).run(jobs, label="x")
    bare = CampaignRunner(workers=1).run(jobs, label="x")
    assert journaled.manifest["fingerprint"] == bare.manifest["fingerprint"]
