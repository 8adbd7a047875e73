#!/usr/bin/env python
"""Five-benchmark TGI: the suite is open-ended by design.

Section IV-A: "TGI is neither limited by the metrics used in each
benchmark nor by the number of benchmarks."  This example extends the
paper's three-benchmark suite with two more HPCC-style members —
RandomAccess (memory *latency*, GUPS) and an effective-bandwidth network
test — and recomputes TGI for Fire vs SystemG.

The punchline: Fire's GigE fabric, invisible to the original suite, shows
up immediately — the network benchmark's REE is the worst of the five,
displacing HPL as the weakest subsystem and moving the single number.

Run:  python examples/extended_suite.py
"""

from repro import (
    BenchmarkSuite,
    ClusterExecutor,
    HPLBenchmark,
    IOzoneBenchmark,
    ReferenceSet,
    StreamBenchmark,
    SuiteResult,
    TGICalculator,
    presets,
)
from repro.benchmarks import EffectiveBandwidthBenchmark, RandomAccessBenchmark
from repro.core import format_tgi_result
from repro.viz import ascii_sparkline


PAPER_SUITE = ("HPL", "STREAM", "IOzone")


def build_suites():
    base = [
        HPLBenchmark(sizing=("fixed", 36288), rounds=4),
        StreamBenchmark(target_seconds=45, intensity=0.4),
        IOzoneBenchmark(target_seconds=45),
    ]
    extended = base + [
        RandomAccessBenchmark(target_seconds=45),
        EffectiveBandwidthBenchmark(target_seconds=45),
    ]
    return BenchmarkSuite(base), BenchmarkSuite(extended)


def paper_subset(result: SuiteResult) -> SuiteResult:
    """The paper's three benchmarks out of a five-benchmark suite run."""
    return SuiteResult(
        cores=result.cores,
        results=tuple(r for r in result.results if r.benchmark in PAPER_SUITE),
    )


def main() -> None:
    base_suite, extended_suite = build_suites()

    system_g = presets.system_g()
    ref_exec = ClusterExecutor(system_g, rng=1)
    print("measuring the reference (SystemG) with all five benchmarks...")
    ref_result = extended_suite.run(ref_exec, system_g.total_cores)
    reference = ReferenceSet.from_suite_result(ref_result, system_name="SystemG")

    fire = presets.fire()
    fire_exec = ClusterExecutor(fire, rng=7)
    print("measuring the system under test (Fire)...")
    fire_result = extended_suite.run(fire_exec, fire.total_cores)

    # Three-benchmark TGI (the paper's suite) from the same measurements,
    # scored against the reference's own three-benchmark subset.
    three_reference = ReferenceSet.from_suite_result(
        paper_subset(ref_result), system_name="SystemG"
    )
    three = TGICalculator(three_reference).compute(paper_subset(fire_result))
    five = TGICalculator(reference).compute(fire_result)

    print("\n--- paper suite (3 benchmarks) ---")
    print(format_tgi_result(three))
    print("\n--- extended suite (5 benchmarks) ---")
    print(format_tgi_result(five))

    print("\nREE fingerprint (sorted):")
    for name, value in sorted(five.ree.items(), key=lambda kv: kv[1]):
        bar = ascii_sparkline([0, value], width=max(2, int(20 * value / max(five.ree.values()))))
        print(f"  {name:13s} {value:6.3f}  {bar[-1] * max(1, int(20 * value / max(five.ree.values())))}")

    print(
        f"\nweakest subsystem: {three.least_efficient_benchmark} (3-benchmark) "
        f"-> {five.least_efficient_benchmark} (5-benchmark)\n"
        f"TGI moved {three.value:.3f} -> {five.value:.3f}: the added network "
        "probe exposes Fire's GigE fabric, which the paper's suite never "
        "touches directly."
    )


if __name__ == "__main__":
    main()
