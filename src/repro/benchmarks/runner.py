"""Scaling sweeps: run the suite across core counts.

The paper's Figures 2-6 are all functions of scale on the Fire cluster
(MPI processes for HPL/STREAM, nodes for IOzone, cores for the TGI plots).
:func:`run_sweep` runs a :class:`~repro.benchmarks.suite.BenchmarkSuite`
at each point and collects a :class:`SweepResult` that the experiment
drivers and the metric layer slice by benchmark or by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .. import telemetry as tele
from ..exceptions import BenchmarkError
from ..sim.executor import ClusterExecutor
from .suite import BenchmarkSuite, SuiteResult

__all__ = ["ScalePoint", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class ScalePoint:
    """One x-axis point of a sweep."""

    cores: int

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise BenchmarkError(f"cores must be >= 1, got {self.cores}")


@dataclass(frozen=True)
class SweepResult:
    """Suite results at every scale point, in ascending core order."""

    points: Tuple[ScalePoint, ...]
    suites: Tuple[SuiteResult, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.suites):
            raise BenchmarkError("points and suites must align")
        cores = [p.cores for p in self.points]
        if cores != sorted(cores):
            raise BenchmarkError("scale points must be in ascending core order")

    @property
    def cores(self) -> List[int]:
        """The x-axis."""
        return [p.cores for p in self.points]

    def series(self, benchmark: str, attribute: str) -> np.ndarray:
        """A per-point series of one benchmark's attribute.

        ``attribute`` is any :class:`~repro.benchmarks.base.BenchmarkResult`
        property name (``"performance"``, ``"power_w"``, ``"time_s"``,
        ``"energy_j"``, ``"energy_efficiency"``).
        """
        values = []
        for suite in self.suites:
            result = suite[benchmark]
            values.append(getattr(result, attribute))
        return np.array(values, dtype=float)

    def efficiency_series(self, benchmark: str) -> np.ndarray:
        """EE_i at every scale point."""
        return self.series(benchmark, "energy_efficiency")

    def __len__(self) -> int:
        return len(self.points)


def run_sweep(
    suite: BenchmarkSuite,
    executor: ClusterExecutor,
    core_counts: Sequence[int],
    *,
    on_error: str = "raise",
) -> SweepResult:
    """Run ``suite`` at each core count on one executor, in order.

    This is the pure execution primitive behind the experiment drivers'
    Fire sweep and the campaign layer's jobs: given the same suite, a
    freshly-seeded executor, and the same core counts, it produces
    bit-identical results regardless of which process runs it.  It rejects
    empty, unsorted and repeated core counts.  ``on_error`` is forwarded to
    :meth:`BenchmarkSuite.run` — ``"skip"`` yields partial suite points
    when individual benchmarks fail (e.g. under injected node crashes).
    """
    if not core_counts:
        raise BenchmarkError("need at least one core count")
    if list(core_counts) != sorted(core_counts):
        raise BenchmarkError("core counts must be ascending")
    if len(set(core_counts)) != len(core_counts):
        raise BenchmarkError("core counts must be distinct")
    points = []
    suites = []
    for cores in core_counts:
        points.append(ScalePoint(cores=cores))
        with tele.span("sweep.point", cores=cores):
            suites.append(suite.run(executor, cores, on_error=on_error))
    return SweepResult(points=tuple(points), suites=tuple(suites))

