"""Crash-resume bench: recovery must cost a fraction of the work it saves.

Two claims pinned here:

1. A warm resume — every job recovered from the shared cache, nothing
   re-executed — costs a bounded fraction of the cold campaign: replaying
   the journal plus N cache probes, not N executions.
2. The crash-resume round trip (cold run killed mid-flight, then resumed
   to completion) re-executes only what the crash actually lost, so its
   total work stays close to one uninterrupted run.  Reported as a ratio
   of the uninterrupted wall time; the budget leaves room for one
   re-executed job (the in-flight casualty) plus replay.

Every cold or uninterrupted leg is the median of ``REPEATS`` campaigns,
each in a fresh directory, taken after one untimed warm-up campaign: a
single first timing in a fresh process reads high.
"""

import dataclasses
import statistics
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
            job_id=f"resume-{i:02d}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=1),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
        )
        for i in range(JOB_COUNT)
    ]


def _cold_and_warm_resume_seconds() -> tuple:
    """(median cold journaled run, best warm resume) — warm recovers everything.

    The untimed warm-up campaign leaves the journal and cache that every
    warm leg resumes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        path = Path(tmp) / "run.jsonl"
        jobs = _jobs()
        CampaignRunner(workers=1, cache=cache, journal=path).run(
            jobs, label="resume-bench"
        )
        cold = statistics.median(_uninterrupted_seconds() for _ in range(REPEATS))
        best_warm = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = CampaignRunner(workers=1, cache=cache, journal=path).run(
                jobs, label="resume-bench", resume=True
            )
            best_warm = min(best_warm, time.perf_counter() - t0)
        assert result.manifest["execution"]["jobs_recovered"] == JOB_COUNT
    return cold, best_warm


def _crash_resume_roundtrip_seconds() -> float:
    """Kill the cold run mid-campaign, resume it; total wall of both legs."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        path = Path(tmp) / "run.jsonl"
        jobs = _jobs()
        # Crash roughly halfway through the event stream: run.start +
        # JOB_COUNT scheduled, then ~half the per-job
        # started/completed/stored triplets.
        crash_after = 1 + JOB_COUNT + 3 * (JOB_COUNT // 2)
        crasher = jrnl.CrashingJournalWriter(
            path, crash_after=crash_after, label="resume-bench"
        )
        t0 = time.perf_counter()
        try:
            CampaignRunner(workers=1, cache=cache, journal=crasher).run(
                jobs, label="resume-bench"
            )
            raise AssertionError("drill writer never crashed")
        except jrnl.SimulatedCrash:
            pass
        result = CampaignRunner(workers=1, cache=cache, journal=path).run(
            jobs, label="resume-bench", resume=True
        )
        elapsed = time.perf_counter() - t0
        assert result.manifest["execution"]["resumed"] is True
    return elapsed


def _uninterrupted_seconds() -> float:
    """One cold journaled campaign, start to finish, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        path = Path(tmp) / "run.jsonl"
        jobs = _jobs()
        t0 = time.perf_counter()
        CampaignRunner(workers=1, cache=cache, journal=path).run(
            jobs, label="resume-bench"
        )
        return time.perf_counter() - t0


def _crash_roundtrip_ratio() -> float:
    """Median crash-and-resume wall over the median uninterrupted wall.

    The two legs alternate after one untimed warm-up campaign, so drift
    over the measurement lands on both sides of the ratio.
    """
    _uninterrupted_seconds()
    roundtrips, uninterrupted = [], []
    for _ in range(REPEATS):
        roundtrips.append(_crash_resume_roundtrip_seconds())
        uninterrupted.append(_uninterrupted_seconds())
    return statistics.median(roundtrips) / statistics.median(uninterrupted)


@scenario(
    "campaign.resume",
    description="crash-resume economics: warm recovery and the kill-and-resume round trip",
    tier="quick",
    repeats=2,
    metrics=(
        MetricSpec(
            "warm_resume_fraction",
            direction="lower",
            help="best warm resume (all jobs recovered) / median cold campaign wall",
        ),
        MetricSpec(
            "crash_roundtrip_ratio",
            direction="lower",
            help="median wall of crash-at-half + resume over the median uninterrupted run",
        ),
    ),
)
def campaign_resume_scenario():
    cold_s, warm_s = _cold_and_warm_resume_seconds()
    return {
        "warm_resume_fraction": warm_s / cold_s,
        "crash_roundtrip_ratio": _crash_roundtrip_ratio(),
    }


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
