"""Sharded-execution bench: coordination must stay a rounding error.

Three claims pinned here:

1. Shard planning and work stealing add **< 10%** to the same inline
   serial campaign: four shards (one worker slot draining its home
   shard, then stealing from the other three) against a single shard
   (no steals).  The two sides are measured *interleaved* (one shard,
   four shards, one shard, four shards, ...) and best-of-REPEATS so
   machine drift hits both denominators equally — on deliberately tiny
   jobs an un-paired wall-clock ratio swings by more than the budget.
2. A warm resume — every job recovered from the shared cache, nothing
   re-executed — costs a bounded fraction of the cold campaign: replaying
   the journal plus N cache probes, not N executions.
3. The crash-resume round trip (cold run killed mid-flight, then resumed
   to completion) re-executes only what the crash actually lost, so its
   total work stays close to one uninterrupted run.  Reported as a ratio
   of the uninterrupted wall time; the budget leaves room for one
   re-executed job (the in-flight casualty) plus replay.
"""

import dataclasses
import tempfile
import time
from pathlib import Path

from repro import journal as jrnl
from repro.campaign import CampaignRunner, ResultCache
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.experiments import PAPER_CONFIG
from repro.perfwatch import MetricSpec, scenario

JOB_COUNT = 30
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
            job_id=f"shard-{i:02d}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=1),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
        )
        for i in range(JOB_COUNT)
    ]


def _paired_seconds(repeats: int = 5) -> tuple:
    """Interleaved best-of wall times: (one shard, four shards)."""
    best_single = best_sharded = float("inf")
    for _ in range(repeats):
        jobs = _jobs()
        t0 = time.perf_counter()
        CampaignRunner(workers=1, shards=1).run(jobs, label="sharded-bench")
        best_single = min(best_single, time.perf_counter() - t0)
        jobs = _jobs()
        t0 = time.perf_counter()
        CampaignRunner(workers=1, shards=4).run(jobs, label="sharded-bench")
        best_sharded = min(best_sharded, time.perf_counter() - t0)
    return best_single, best_sharded


def _cold_and_warm_resume_seconds() -> tuple:
    """(cold journaled run, warm resume of it) — warm recovers everything."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        path = Path(tmp) / "run.jsonl"
        jobs = _jobs()
        t0 = time.perf_counter()
        CampaignRunner(workers=1, cache=cache, journal=path).run(
            jobs, label="sharded-bench"
        )
        cold = time.perf_counter() - t0
        best_warm = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = CampaignRunner(workers=1, cache=cache, journal=path).run(
                jobs, label="sharded-bench", resume=True
            )
            best_warm = min(best_warm, time.perf_counter() - t0)
        assert result.manifest["sharding"]["jobs_recovered"] == JOB_COUNT
    return cold, best_warm


def _crash_resume_roundtrip_seconds() -> float:
    """Kill the cold run mid-campaign, resume it; total wall of both legs."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        path = Path(tmp) / "run.jsonl"
        jobs = _jobs()
        # Crash roughly halfway through the event stream: run.start +
        # JOB_COUNT scheduled + 1 shard.planned, then ~half the per-job
        # started/completed/stored triplets.
        crash_after = 2 + JOB_COUNT + 3 * (JOB_COUNT // 2)
        crasher = jrnl.CrashingJournalWriter(
            path, crash_after=crash_after, label="sharded-bench"
        )
        t0 = time.perf_counter()
        try:
            CampaignRunner(workers=1, cache=cache, journal=crasher).run(
                jobs, label="sharded-bench"
            )
            raise AssertionError("drill writer never crashed")
        except jrnl.SimulatedCrash:
            pass
        result = CampaignRunner(workers=1, cache=cache, journal=path).run(
            jobs, label="sharded-bench", resume=True
        )
        elapsed = time.perf_counter() - t0
        assert result.manifest["sharding"]["resumed"] is True
    return elapsed


@scenario(
    "campaign.sharded_resume",
    description="shard planning + work stealing cost and crash-resume economics",
    tier="quick",
    repeats=2,
    metrics=(
        MetricSpec(
            "scheduler_overhead_fraction",
            direction="lower",
            help="(inline wall at 4 shards / inline wall at 1 shard) - 1; "
            "budget is 0.10",
        ),
        MetricSpec(
            "warm_resume_fraction",
            direction="lower",
            help="warm resume (all jobs recovered) wall / cold campaign wall",
        ),
        MetricSpec(
            "crash_roundtrip_ratio",
            direction="lower",
            help="wall of crash-at-half + resume, relative to one uninterrupted run",
        ),
    ),
)
def sharded_resume_scenario():
    single_s, sharded_s = _paired_seconds()
    cold_s, warm_s = _cold_and_warm_resume_seconds()
    roundtrip_s = _crash_resume_roundtrip_seconds()
    return {
        "scheduler_overhead_fraction": sharded_s / single_s - 1.0,
        "warm_resume_fraction": warm_s / cold_s,
        "crash_roundtrip_ratio": roundtrip_s / cold_s,
    }


def test_scheduler_overhead_under_10_percent():
    single_s, sharded_s = _paired_seconds()
    overhead = sharded_s / single_s - 1.0
    print(
        f"\n{JOB_COUNT}-config campaign: 1 shard {single_s:.3f} s, "
        f"4 shards {sharded_s:.3f} s -> {100 * overhead:.2f}% overhead"
    )
    assert overhead < 0.10, (
        f"sharding overhead {100 * overhead:.2f}% exceeds the 10% budget"
    )


def test_warm_resume_is_cheaper_than_rerunning():
    cold_s, warm_s = _cold_and_warm_resume_seconds()
    fraction = warm_s / cold_s
    print(
        f"\ncold campaign {cold_s:.3f} s, warm resume {warm_s:.3f} s "
        f"-> {100 * fraction:.1f}% of cold"
    )
    # Replay + N probes must beat N executions by a wide margin.
    assert fraction < 0.5, (
        f"warm resume costs {100 * fraction:.0f}% of a cold run — "
        "recovery is not recovering"
    )
