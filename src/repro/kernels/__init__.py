"""Real, executable host kernels.

These are genuine mini-versions of the suite's benchmarks that run on the
host machine (NumPy linear algebra, NumPy streaming, tempfile I/O).  They
serve two purposes:

* **model validation** — tests check that the analytic performance models'
  qualitative behaviour (e.g. Triad bandwidth saturating with thread count,
  LU time scaling as N^3) matches reality at laptop scale;
* **honest benchmarking** — the pytest-benchmark suite exercises them so
  the repository measures something real, not only simulated.

No power measurement happens here (the host has no wall-plug meter — that
is exactly the gap the simulated substrate fills); the kernels report
performance only.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "timing": ("Timer",),
        "linalg": ("lu_solve_gflops", "LinalgKernelResult"),
        "stream": ("triad_bandwidth", "stream_kernels", "StreamKernelResult"),
        "io": ("file_write_bandwidth", "IOKernelResult"),
    },
)
