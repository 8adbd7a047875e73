"""End-to-end integration tests across the whole stack.

Each test runs the genuine pipeline: hardware spec -> benchmark compile ->
discrete-event simulation -> component power -> PSU -> meter -> trace ->
EE -> REE -> weights -> TGI -> analysis.
"""

import numpy as np
import pytest

from repro import (
    ArithmeticMeanWeights,
    BenchmarkSuite,
    ClusterExecutor,
    CustomWeights,
    EnergyWeights,
    HPLBenchmark,
    IOzoneBenchmark,
    ReferenceSet,
    StreamBenchmark,
    TGICalculator,
    presets,
    rank_systems,
)
from repro.analysis import pearson
from repro.benchmarks import run_sweep
from repro.core import InverseEDP
from repro.power import FixedPUECooling, PiecewisePower


class TestFullPipeline:
    def test_quickstart_flow(self):
        """The README quickstart, verified."""
        fire = presets.fire()
        executor = ClusterExecutor(fire, rng=7)
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 8960), rounds=2),
                StreamBenchmark(target_seconds=15),
                IOzoneBenchmark(target_seconds=15),
            ]
        )
        result = suite.run(executor, 64)
        sysg = presets.system_g(num_nodes=8)
        ref_exec = ClusterExecutor(sysg, rng=1)
        ref_result = suite.run(ref_exec, sysg.total_cores)
        reference = ReferenceSet.from_suite_result(ref_result, system_name="SystemG-8")
        tgi = TGICalculator(reference).compute(result)
        assert tgi.value > 0
        assert set(tgi.ree) == {"HPL", "STREAM", "IOzone"}

    def test_determinism_end_to_end(self):
        """Identical seeds produce bit-identical TGI."""

        def run_once():
            fire = presets.fire()
            executor = ClusterExecutor(fire, rng=1234)
            suite = BenchmarkSuite(
                [
                    HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                    StreamBenchmark(target_seconds=5),
                    IOzoneBenchmark(target_seconds=5),
                ]
            )
            result = suite.run(executor, 32)
            ref = ReferenceSet.from_suite_result(result)
            return TGICalculator(ref, weighting=EnergyWeights()).compute(result)

        a, b = run_once(), run_once()
        assert a.value == b.value
        assert a.weights == b.weights

    def test_meter_error_does_not_break_ordering(self):
        """Two meters with different gain errors may disagree on absolute
        EE but must agree on which system is greener when the gap is real."""
        fire = presets.fire()
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                StreamBenchmark(target_seconds=5),
                IOzoneBenchmark(target_seconds=5),
            ]
        )
        sysg = presets.system_g(num_nodes=8)
        for seed in (0, 99):
            fire_res = suite.run(ClusterExecutor(fire, rng=seed), 128)
            sysg_res = suite.run(ClusterExecutor(sysg, rng=seed + 1), 64)
            ref = ReferenceSet.from_suite_result(sysg_res, system_name="SystemG-8")
            ranking = rank_systems(
                [("Fire", fire_res), ("SystemG-8", sysg_res)], TGICalculator(ref)
            )
            # Fire (2010 DDR3 system) beats the FB-DIMM reference
            assert ranking[0].system_name == "Fire"

    def test_cross_generation_ranking(self):
        """A modern system must out-TGI both 2008-2010 systems."""
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 8960), rounds=1),
                StreamBenchmark(target_seconds=5),
                IOzoneBenchmark(target_seconds=5),
            ]
        )
        sysg = presets.system_g(num_nodes=4)
        ref_res = suite.run(ClusterExecutor(sysg, rng=1), sysg.total_cores)
        ref = ReferenceSet.from_suite_result(ref_res, system_name="SystemG-4")
        entries = []
        for cluster in (presets.fire(num_nodes=4), presets.modern_cluster(num_nodes=4)):
            res = suite.run(ClusterExecutor(cluster, rng=2), cluster.total_cores)
            entries.append((cluster.name, res))
        ranking = rank_systems(entries, TGICalculator(ref))
        assert ranking[0].system_name == "ModernEPYC"

    def test_edp_based_tgi_pipeline(self):
        """Section II's metric-agnosticism, end to end."""
        fire = presets.fire(num_nodes=2)
        executor = ClusterExecutor(fire, rng=5)
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                StreamBenchmark(target_seconds=5),
                IOzoneBenchmark(target_seconds=5),
            ]
        )
        result = suite.run(executor, 32)
        ref = ReferenceSet.from_suite_result(result, metric=InverseEDP())
        tgi = TGICalculator(ref, metric=InverseEDP()).compute(result)
        assert tgi.value == pytest.approx(1.0)

    def test_center_wide_tgi_with_cooling(self):
        """The paper's future-work extension: adding a PUE factor scales
        every benchmark's power identically, so REE (both systems cooled
        alike) and hence TGI are unchanged — while absolute EE drops."""
        fire = presets.fire(num_nodes=2)
        executor = ClusterExecutor(fire, rng=5)
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                StreamBenchmark(target_seconds=5),
            ]
        )
        result = suite.run(executor, 16)
        pue = 1.8
        it_ee = {r.benchmark: r.energy_efficiency for r in result}
        facility_ee = {
            r.benchmark: r.performance / (pue * r.power_w) for r in result
        }
        for name in it_ee:
            assert facility_ee[name] == pytest.approx(it_ee[name] / pue)

    def test_weight_choice_can_flip_a_ranking(self):
        """The flexibility claim of Section II: with REEs that disagree
        across subsystems, user weights decide the winner."""
        ree_a = {"HPL": 2.0, "STREAM": 0.5, "IOzone": 1.0}
        ree_b = {"HPL": 0.5, "STREAM": 2.0, "IOzone": 1.0}
        from repro.core import tgi_from_components

        cpu_heavy = {"HPL": 0.8, "STREAM": 0.1, "IOzone": 0.1}
        mem_heavy = {"HPL": 0.1, "STREAM": 0.8, "IOzone": 0.1}
        assert tgi_from_components(ree_a, cpu_heavy) > tgi_from_components(ree_b, cpu_heavy)
        assert tgi_from_components(ree_a, mem_heavy) < tgi_from_components(ree_b, mem_heavy)

    def test_sweep_and_correlation_machinery(self):
        """Mini Table II on a 2-node cluster: machinery holds off the
        calibrated path too."""
        fire = presets.fire(num_nodes=2)
        executor = ClusterExecutor(fire, rng=3)
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                StreamBenchmark(target_seconds=5),
                IOzoneBenchmark(target_seconds=5),
            ]
        )
        sweep = run_sweep(suite, executor, [4, 8, 16, 32])
        ref = ReferenceSet.from_suite_result(sweep.suites[0])
        series = TGICalculator(ref).compute_series(sweep)
        r = pearson(series.values, sweep.efficiency_series("IOzone"))
        assert -1.0 <= r <= 1.0
