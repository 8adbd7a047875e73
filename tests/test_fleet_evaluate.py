"""Batched fleet evaluation: bit-for-bit agreement with the scalar oracle,
the deeper check that the analytic oracle reproduces the *simulator's*
ground truth for full-machine fleet jobs, and that both keep agreeing when
any shared model constant moves."""

import dataclasses

import numpy as np
import pytest

from repro.benchmarks import hpl as bench_hpl
from repro.benchmarks import iozone as bench_iozone
from repro.cluster.cluster import ClusterSpec
from repro.cluster.generator import generate_fleet
from repro.exceptions import FleetError
from repro.experiments import PAPER_CONFIG, build_suite
from repro.fleet import FLEET_BENCHMARKS, FleetColumns, evaluate_fleet
from repro.perfmodels import hpl as perf_hpl
from repro.perfmodels import iozone as perf_iozone
from repro.perfmodels import stream as perf_stream
from repro.power import components, node_power

from .oracles import evaluate_system, scalar_fleet

QUICK = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2.0,
    iozone_target_seconds=2.0,
)

_FIELDS = ("performance", "time_s", "power_w", "energy_j", "efficiency")


@pytest.fixture(scope="module")
def mixed_fleet():
    fleet = []
    for era in ("2008", "2011", "2015", "2021"):
        fleet += generate_fleet(3, era=era, seed=13)
    return fleet


class TestBatchedVsScalar:
    def test_all_fields_match_oracle(self, mixed_fleet):
        batched = evaluate_fleet(mixed_fleet, QUICK)
        scalar = scalar_fleet(mixed_fleet, QUICK)
        for b in FLEET_BENCHMARKS:
            for field in _FIELDS:
                got = getattr(batched.scores[b], field)
                want = getattr(scalar.scores[b], field)
                assert np.allclose(got, want, rtol=1e-9, atol=0.0), (b, field)

    def test_reference_semantics_match_oracle(self, mixed_fleet):
        batched = evaluate_fleet(mixed_fleet, QUICK, reference=True)
        scalar = scalar_fleet(mixed_fleet, QUICK, reference=True)
        for b in FLEET_BENCHMARKS:
            got = batched.scores[b].efficiency
            want = scalar.scores[b].efficiency
            assert np.allclose(got, want, rtol=1e-9, atol=0.0), b

    def test_accepts_packed_columns(self, mixed_fleet):
        cols = FleetColumns.pack(mixed_fleet)
        from_cols = evaluate_fleet(cols, QUICK)
        from_specs = evaluate_fleet(mixed_fleet, QUICK)
        for b in FLEET_BENCHMARKS:
            assert np.array_equal(
                from_cols.scores[b].efficiency, from_specs.scores[b].efficiency
            )

    def test_system_accessor_round_trips(self, mixed_fleet):
        evaluation = evaluate_fleet(mixed_fleet, QUICK)
        row = evaluation.system(2)
        oracle = evaluate_system(mixed_fleet[2], QUICK)
        for b in FLEET_BENCHMARKS:
            assert row[b]["efficiency"] == pytest.approx(
                oracle[b]["efficiency"], rel=1e-9
            )


def _assert_identical(batched, scalar):
    for b in FLEET_BENCHMARKS:
        for field in _FIELDS:
            got = getattr(batched.scores[b], field)
            want = getattr(scalar.scores[b], field)
            assert np.array_equal(got, want), (b, field, got[got != want], want[got != want])


class TestBitIdenticalToTheOracle:
    """The fleet path and the model objects share one formula per term.

    ``evaluate_fleet`` calls each model's elementwise functions with spec
    columns and the scalar oracle calls them through the model objects, so
    every number agrees exactly, not just to a tolerance.
    """

    @pytest.mark.parametrize("reference", [False, True], ids=["fixed_n", "memory_n"])
    @pytest.mark.parametrize("era", ["2008", "2011", "2015", "2021"])
    def test_generated_fleet(self, era, reference):
        fleet = generate_fleet(50, era=era, seed=26)
        _assert_identical(
            evaluate_fleet(fleet, PAPER_CONFIG, reference=reference),
            scalar_fleet(fleet, PAPER_CONFIG, reference=reference),
        )

    @pytest.mark.parametrize("cores", [2, 8], ids=["3242_ranks", "12968_ranks"])
    def test_rank_counts_where_math_log2_differs(self, cores):
        # math.log2 and np.log2 differ in the last bit at 3,242 and 12,968;
        # HPL's log p is np.log2 on both paths.
        base = generate_fleet(1, era="2011", seed=7)[0].node
        node = dataclasses.replace(
            base, sockets=1, cpu=dataclasses.replace(base.cpu, cores=cores)
        )
        spec = ClusterSpec(name=f"p{1621 * cores}", node=node, num_nodes=1621)
        assert spec.total_cores == 1621 * cores
        _assert_identical(
            evaluate_fleet([spec], PAPER_CONFIG), scalar_fleet([spec], PAPER_CONFIG)
        )


class TestOracleVsSimulation:
    """The analytic path *is* the simulator's truth for fleet jobs.

    A full-machine run packs every node identically with rank-uniform
    programs and no barrier waits, so utilization is piecewise constant and
    the sweep-line energy integral collapses to the closed form the fleet
    path evaluates.  Performance and makespan must agree to float noise,
    and power must match the record's *true* (unmetered) mean.
    """

    @pytest.mark.parametrize("index", [0, 2])
    def test_matches_sim_ground_truth(self, index):
        from repro.sim import ClusterExecutor

        spec = generate_fleet(3, era="2011", seed=7)[index]
        result = build_suite(QUICK).run(
            ClusterExecutor(spec, rng=123), spec.total_cores
        )
        analytic = evaluate_system(spec, QUICK)
        for b in FLEET_BENCHMARKS:
            sim = result[b]
            a = analytic[b]
            assert sim.performance == pytest.approx(a["performance"], rel=1e-9)
            assert sim.time_s == pytest.approx(a["time_s"], rel=1e-9)
            assert sim.record.true_mean_power_w == pytest.approx(
                a["power_w"], rel=1e-9
            )
            # The metered value differs only by the simulated meter's noise.
            assert sim.power_w == pytest.approx(a["power_w"], rel=0.1)


#: Every model constant the batched fleet path shares with the simulator,
#: as (owning module, name, a different valid value).  The NIC and memory
#: shares are small enough that ``k * share`` stays below saturation on
#: the test system's 24-core nodes.
_PERTURBATIONS = [
    (components, "CPU_AWAKE_FLOOR", 0.3),
    (node_power, "PSU_SIZING_FACTOR", 1.6),
    (perf_hpl, "DGEMM_EFFICIENCY", 0.7),
    (perf_hpl, "BLOCK_SIZE", 192),
    (perf_hpl, "BYTES_PER_ELEMENT", 4),
    (perf_stream, "TRIAD_BYTES_PER_ELEMENT", 32),
    (perf_stream, "ARRAY_ELEMENTS", 5_000_000),
    (perf_iozone, "FILESYSTEM_EFFICIENCY", 0.8),
    (perf_iozone, "CACHE_BANDWIDTH", 3.0e9),
    (perf_iozone, "CACHE_WINDOW_FRACTION", 0.1),
    (bench_hpl, "HPL_MEMORY_PER_RANK", 0.01),
    (bench_hpl, "HPL_NIC_UTIL", 0.02),
    (bench_hpl, "HPL_COMPUTE_INTENSITY", 0.9),
    (bench_hpl, "HPL_COMM_INTENSITY", 0.6),
    (bench_iozone, "IOZONE_INTENSITY", 0.3),
    (bench_iozone, "IOZONE_MEMORY", 0.2),
]

#: QUICK with an IOzone write long enough to spill past the page-cache
#: window, so the filesystem efficiency enters the score.
SPILLING = dataclasses.replace(QUICK, iozone_target_seconds=20.0)


class TestConstantPerturbation:
    """Each constant has one definition that every path reads at call time.

    Moving it in its owning module must move the batched fleet path, the
    scalar oracle and the simulator together; a hand-copied constant in
    any of them would leave that path on the old value.
    """

    @pytest.mark.parametrize(
        "module, name, value", _PERTURBATIONS, ids=[p[1] for p in _PERTURBATIONS]
    )
    def test_all_paths_follow_the_owner(self, monkeypatch, module, name, value):
        from repro.sim import ClusterExecutor

        spec = generate_fleet(3, era="2011", seed=7)[0]
        before = evaluate_fleet([spec], SPILLING).system(0)
        monkeypatch.setattr(module, name, value)
        batched = evaluate_fleet([spec], SPILLING).system(0)
        oracle = scalar_fleet([spec], SPILLING).system(0)
        result = build_suite(SPILLING).run(
            ClusterExecutor(spec, rng=123), spec.total_cores
        )
        for b in FLEET_BENCHMARKS:
            got = batched[b]
            for field in _FIELDS:
                assert got[field] == pytest.approx(oracle[b][field], rel=1e-9), (b, field)
            sim = result[b]
            assert got["performance"] == pytest.approx(sim.performance, rel=1e-9), b
            assert got["time_s"] == pytest.approx(sim.time_s, rel=1e-9), b
            assert got["power_w"] == pytest.approx(
                sim.record.true_mean_power_w, rel=1e-9
            ), b
        assert any(
            batched[b][field] != before[b][field]
            for b in FLEET_BENCHMARKS
            for field in _FIELDS
        ), f"{name} = {value} moved no fleet number"


class TestMemoization:
    """Identical systems score identically (every one is computed)."""

    def test_clones_score_identically(self):
        spec = generate_fleet(1, era="2015", seed=9)[0]
        evaluation = evaluate_fleet([spec] * 5, QUICK)
        for b in FLEET_BENCHMARKS:
            eff = evaluation.scores[b].efficiency
            assert np.all(eff == eff[0])


class TestErrors:
    def test_empty_fleet_rejected(self):
        with pytest.raises(FleetError):
            evaluate_fleet([], QUICK)

    def test_tiny_problem_size_rejected(self, mixed_fleet):
        small = dataclasses.replace(QUICK, hpl_problem_size=16)
        with pytest.raises(FleetError):
            evaluate_fleet(mixed_fleet, small)
        with pytest.raises(FleetError):
            evaluate_system(mixed_fleet[0], small)
