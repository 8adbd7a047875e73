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
* :mod:`~repro.perfmodels.randomaccess` / :mod:`~repro.perfmodels.network` —
  the extension members, HPCC RandomAccess (GUPS) and b_eff.

The predictions are consumed by :mod:`repro.benchmarks`, which compiles them
into per-rank phase programs for the simulator.  HPL, STREAM and IOzone
write each formula once, as elementwise module functions over plain
numbers or NumPy arrays: the model classes call them with one cluster's
numbers, and the batched fleet evaluator (:mod:`repro.fleet.evaluate`)
with per-system spec columns.
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
    },
)
