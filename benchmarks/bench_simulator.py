"""Simulator-cost benchmarks: what a campaign costs to run.

Times the substrate itself — one full suite run at a scale point, one
engine execution at 1024 ranks, one metered power-folding pass, and the
campaign executor's three regimes (serial, process pool, warm cache) — so
regressions in the simulation core and the campaign layer are caught by
the benchmark suite.
"""

import dataclasses
import os
import time

import pytest

from repro.benchmarks import BenchmarkSuite, HPLBenchmark, IOzoneBenchmark, StreamBenchmark
from repro.campaign import CampaignRunner, ResultCache, fleet_jobs
from repro.cluster import presets
from repro.experiments import PAPER_CONFIG
from repro.perfwatch import MetricSpec, scenario
from repro.sim import (
    ClusterExecutor,
    RankProgram,
    SimulationEngine,
    barrier,
    breadth_first_placement,
    compute_phase,
)


@scenario(
    "sim.suite_run",
    description="one full three-benchmark suite run on Fire at 128 ranks",
)
def suite_run_scenario():
    fire = presets.fire()
    executor = ClusterExecutor(fire, rng=7)
    suite = BenchmarkSuite(
        [
            HPLBenchmark(sizing=("fixed", 20160), rounds=4),
            StreamBenchmark(target_seconds=45),
            IOzoneBenchmark(target_seconds=45),
        ]
    )
    suite.run(executor, 128)


@scenario(
    "sim.engine_1024_ranks",
    description="discrete-event engine: 1024 ranks, compute + barrier phases",
)
def engine_scenario():
    programs = [
        RankProgram(
            rank=r,
            phases=[compute_phase(10.0 + (r % 7) * 0.1), barrier(), compute_phase(5.0)],
        )
        for r in range(1024)
    ]
    SimulationEngine(programs).run_arrays()


# --- engine (struct-of-arrays sweep) --------------------------------------
#
# Program construction happens in setup (untimed); the timed region is one
# vectorized engine execution.  Staggered per-rank durations keep every
# barrier column honest (distinct arrival times, real wait synthesis).


def _engine_programs(num_ranks):
    return [
        RankProgram(
            rank=r,
            phases=[
                compute_phase(10.0 + (r % 7) * 0.1),
                barrier(),
                compute_phase(5.0 + (r % 32) * 0.01),
                barrier(),
                compute_phase(2.0 + (r % 5) * 0.05),
            ],
        )
        for r in range(num_ranks)
    ]


_ENGINE_METRICS = (
    MetricSpec(
        "intervals",
        unit="intervals",
        direction="higher",
        help="intervals emitted by the engine run (work accomplished)",
    ),
)


@scenario(
    "sim.engine_16384",
    description="vectorized sweep engine: 16384 ranks, three barrier segments",
    setup=lambda: _engine_programs(16384),
    metrics=_ENGINE_METRICS,
)
def engine_16384_scenario(programs):
    arrays = SimulationEngine(programs).run_arrays()
    return {"intervals": float(len(arrays))}


@scenario(
    "sim.engine_102400",
    description="vectorized sweep engine: a Top500-class 102400-rank run",
    setup=lambda: _engine_programs(102400),
    tier="full",
    repeats=2,
    metrics=_ENGINE_METRICS,
)
def engine_102400_scenario(programs):
    arrays = SimulationEngine(programs).run_arrays()
    return {"intervals": float(len(arrays))}


@scenario(
    "sim.power_folding",
    description="fold 128 ranks' activity into a metered cluster power curve",
)
def power_folding_scenario():
    fire = presets.fire()
    executor = ClusterExecutor(fire, rng=7)
    placement = breadth_first_placement(fire, 128)
    programs = [
        RankProgram(
            rank=r,
            phases=[compute_phase(30.0), barrier(), compute_phase(10.0 + (r % 16))],
        )
        for r in range(128)
    ]
    executor.execute(placement, programs)


# --- power integration (sweep-line pipeline) ------------------------------
#
# The engine run happens in setup (untimed); the timed region is exactly
# the integration phase the sweep-line rewrite targets.  Per-rank staggered
# durations make nearly every interval endpoint a distinct global cut, so
# the scenario exercises the integrator at its real segment density.


def _integration_state(num_nodes):
    cluster = presets.fire(num_nodes)
    num_ranks = num_nodes * cluster.node.cores
    executor = ClusterExecutor(cluster, rng=7)
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
    intervals = SimulationEngine(programs).run_arrays()
    return executor, placement, intervals, intervals.makespan


_SEGMENT_METRICS = (
    MetricSpec(
        "segments_out",
        unit="segments",
        direction="lower",
        help="compacted truth-curve segments produced by the integrator",
    ),
)


@scenario(
    "sim.power_integration_1024",
    description="sweep-line power integration: 1024 ranks on 64 Fire nodes",
    setup=lambda: _integration_state(64),
    metrics=_SEGMENT_METRICS,
)
def power_integration_1024_scenario(state):
    executor, placement, intervals, makespan = state
    _, _, stats = executor.integrate_power(placement, intervals, makespan)
    return {"segments_out": float(stats["segments_out"])}


@scenario(
    "sim.power_integration_4096",
    description="sweep-line power integration: 4096 ranks on 256 Fire nodes",
    setup=lambda: _integration_state(256),
    tier="full",
    repeats=2,
    metrics=_SEGMENT_METRICS,
)
def power_integration_4096_scenario(state):
    executor, placement, intervals, makespan = state
    _, _, stats = executor.integrate_power(placement, intervals, makespan)
    return {"segments_out": float(stats["segments_out"])}


@scenario(
    "sim.campaign_serial_50",
    description="the 50-config fleet campaign through the serial executor",
    tier="full",
    repeats=2,
    metrics=(
        MetricSpec(
            "jobs_per_s",
            unit="jobs/s",
            direction="higher",
            help="campaign throughput (jobs over executor wall time)",
        ),
    ),
)
def campaign_serial_scenario():
    import time as _time

    jobs = _campaign_jobs()
    t0 = _time.perf_counter()
    result = CampaignRunner(workers=1).run(jobs)
    wall = _time.perf_counter() - t0
    assert len(result) == _CAMPAIGN_SIZE
    return {"jobs_per_s": _CAMPAIGN_SIZE / wall}


def test_suite_run_cost(benchmark):
    fire = presets.fire()
    executor = ClusterExecutor(fire, rng=7)
    suite = BenchmarkSuite(
        [
            HPLBenchmark(sizing=("fixed", 20160), rounds=4),
            StreamBenchmark(target_seconds=45),
            IOzoneBenchmark(target_seconds=45),
        ]
    )
    result = benchmark(suite.run, executor, 128)
    assert len(result) == 3


def test_engine_scales_to_thousand_ranks(benchmark):
    def run():
        programs = [
            RankProgram(
                rank=r,
                phases=[compute_phase(10.0 + (r % 7) * 0.1), barrier(), compute_phase(5.0)],
            )
            for r in range(1024)
        ]
        return SimulationEngine(programs).run_arrays().makespan

    makespan = benchmark(run)
    assert makespan == pytest.approx(10.6 + 5.0)


def test_power_folding_cost(benchmark):
    """Folding 128 ranks' intervals into a metered cluster power curve."""
    fire = presets.fire()
    executor = ClusterExecutor(fire, rng=7)
    placement = breadth_first_placement(fire, 128)
    programs = [
        RankProgram(
            rank=r,
            phases=[compute_phase(30.0), barrier(), compute_phase(10.0 + (r % 16))],
        )
        for r in range(128)
    ]
    record = benchmark(executor.execute, placement, programs)
    assert record.makespan_s == pytest.approx(30.0 + 25.0)


# --- campaign executor ----------------------------------------------------

#: A cheap per-job suite so 50-job campaigns stay benchmark-sized.
_CAMPAIGN_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=8960,
    hpl_rounds=2,
    stream_target_seconds=10,
    iozone_target_seconds=10,
)

#: The acceptance-scale campaign: >= 50 independent experiment configs.
_CAMPAIGN_SIZE = 50


def _campaign_jobs():
    return fleet_jobs(_CAMPAIGN_SIZE, era="2011", config=_CAMPAIGN_CONFIG)


def test_campaign_serial_cost(benchmark):
    """Baseline: the 50-config campaign through the serial path."""
    runner = CampaignRunner(workers=1)
    result = benchmark.pedantic(runner.run, args=(_campaign_jobs(),), rounds=1, iterations=1)
    assert len(result) == _CAMPAIGN_SIZE


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs more than one CPU",
)
def test_campaign_parallel_beats_serial():
    """Acceptance: workers=4 beats the serial path on the same 50 configs."""
    jobs = _campaign_jobs()
    t0 = time.perf_counter()
    serial = CampaignRunner(workers=1).run(jobs)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = CampaignRunner(workers=4).run(jobs)
    parallel_s = time.perf_counter() - t0
    assert parallel_s < serial_s, (parallel_s, serial_s)
    # and the pool changed nothing but the wall time
    assert [o.payload for o in parallel] == [o.payload for o in serial]


@pytest.mark.slow
def test_engine_102400_under_10s():
    """Acceptance: a Top500-class 102400-rank simulation completes in
    under 10 s end-to-end (program compilation included)."""
    t0 = time.perf_counter()
    programs = _engine_programs(102400)
    arrays = SimulationEngine(programs).run_arrays()
    wall = time.perf_counter() - t0
    assert len(arrays) > 3 * 102400  # three phases + waits per rank
    assert arrays.makespan == pytest.approx(18.11)
    assert wall < 10.0, f"102400-rank simulation took {wall:.1f}s"


def test_campaign_warm_cache_cost(benchmark, tmp_path):
    """A warm-cache rerun costs file reads, not simulation."""
    jobs = _campaign_jobs()
    CampaignRunner(workers=1, cache=ResultCache(tmp_path)).run(jobs)

    def rerun():
        return CampaignRunner(workers=1, cache=ResultCache(tmp_path)).run(jobs)

    result = benchmark(rerun)
    assert result.manifest["cache_run"]["hit_rate"] >= 0.9
