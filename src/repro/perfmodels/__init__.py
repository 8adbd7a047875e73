"""Analytic performance models for the benchmark suite.

Each model predicts, for a given cluster and run configuration, the time
breakdown and reported performance of one benchmark:

* :mod:`~repro.perfmodels.hpl` — dense LU (HPL): flop count, DGEMM kernel
  efficiency, block-cyclic communication cost (Hockney), per-node packing
  contention;
* :mod:`~repro.perfmodels.stream` — STREAM Triad: per-core streaming rate
  saturating at the socket's sustained bandwidth;
* :mod:`~repro.perfmodels.iozone` — IOzone sequential write: per-node disk
  rate with a page-cache absorption window;
* :mod:`~repro.perfmodels.amdahl` / :mod:`~repro.perfmodels.roofline` —
  classic scaling-law helpers used by the analysis layer and tests.

The predictions are consumed by :mod:`repro.benchmarks`, which compiles them
into per-rank phase programs for the simulator.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "hpl": ("HPLModel", "HPLPrediction"),
        "stream": ("StreamModel", "StreamPrediction"),
        "iozone": ("IOzoneModel", "IOzonePrediction"),
        "randomaccess": ("RandomAccessModel", "RandomAccessPrediction"),
        "network": ("EffectiveBandwidthModel", "EffectiveBandwidthPrediction"),
        "amdahl": (
            "amdahl_speedup",
            "gustafson_speedup",
            "karp_flatt_serial_fraction",
            "parallel_efficiency",
        ),
        "roofline": ("RooflineModel", "arithmetic_intensity"),
    },
)
