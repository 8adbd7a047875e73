"""The benchmark suite (paper Section IV-A).

Three benchmarks stress the three subsystems the paper targets:

* :class:`~repro.benchmarks.hpl.HPLBenchmark` — CPU (reports FLOP/s);
* :class:`~repro.benchmarks.stream.StreamBenchmark` — memory (bytes/s);
* :class:`~repro.benchmarks.iozone.IOzoneBenchmark` — disk (bytes/s).

Each benchmark compiles its performance-model prediction into per-rank phase
programs, executes them on the simulated, metered cluster, and returns a
:class:`~repro.benchmarks.base.BenchmarkResult` carrying the reported
performance plus the full power record.  :class:`~repro.benchmarks.suite.BenchmarkSuite`
runs all members at one scale point; :class:`~repro.benchmarks.runner.ScalingSweep`
sweeps the suite over core counts the way the paper's figures do.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "base": ("Benchmark", "BenchmarkResult"),
        "hpl": ("HPLBenchmark",),
        "stream": ("StreamBenchmark",),
        "iozone": ("IOzoneBenchmark",),
        "randomaccess": ("RandomAccessBenchmark",),
        "network": ("EffectiveBandwidthBenchmark",),
        "suite": ("BenchmarkSuite", "SuiteResult"),
        "runner": ("ScalingSweep", "SweepResult", "ScalePoint", "run_sweep"),
    },
)
