"""HPL (High-Performance LINPACK) performance model.

HPL solves a dense ``N x N`` system by blocked LU factorization with row
partial pivoting on a 2-D block-cyclic process grid.  The model predicts
run time as the sum of three terms:

* **compute** — ``(2/3 N^3 + 2 N^2)`` flops at per-core peak times a DGEMM
  kernel efficiency, degraded by a *packing contention* factor when many
  ranks share a node (shared caches, NUMA links, and memory channels slow
  the update kernel as the node fills up);
* **communication volume** — panel and update broadcasts move
  ``O(N^2 log p / sqrt(p))`` bytes through each process's link (Hockney beta
  term), with a tunable prefactor;
* **communication latency** — ``(N / nb)`` factorization steps each pay
  ``O(log p)`` message latencies (alpha term).

With ``N`` fixed while ``p`` grows (strong scaling, the configuration of the
paper's Figure 2 sweep) the communication terms flatten the speedup and the
packing contention bends it down, producing the characteristic rise /
plateau / rolloff of HPL's energy-efficiency curve.  With ``N`` sized from
memory (the "capability run" configuration) compute dominates and the model
reports the machine's headline GFLOPS.

One formula per term: :func:`flop_count`, :func:`memory_problem_size`,
:func:`contention_factor` and :func:`run_times` are elementwise over plain
numbers or NumPy arrays.  :class:`HPLModel` calls them with one cluster's
numbers; the batched fleet evaluator (:mod:`repro.fleet.evaluate`) calls
them with per-system spec columns.  ``log p`` is ``np.log2`` on both paths,
and ``log2(1) == 0`` makes a single rank's communication terms exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "HPLModel",
    "HPLPrediction",
    "BYTES_PER_ELEMENT",
    "BLOCK_SIZE",
    "DGEMM_EFFICIENCY",
    "flop_count",
    "memory_problem_size",
    "contention_factor",
    "run_times",
]

#: Bytes per double-precision matrix element.
BYTES_PER_ELEMENT = 8
#: HPL blocking factor ``NB``.
BLOCK_SIZE = 224
#: Fraction of per-core peak the update kernel sustains with the node
#: otherwise quiet.
DGEMM_EFFICIENCY = 0.85


def flop_count(n):
    """Official HPL flop count ``2/3 n^3 + 2 n^2`` (elementwise)."""
    return (2.0 / 3.0) * n**3 + 2.0 * n**2


def memory_problem_size(total_bytes):
    """Largest ``N`` whose matrix fits in ``total_bytes``, as a float (elementwise).

    Rounded down to a multiple of :data:`BLOCK_SIZE`, as HPL practitioners
    do; a result below one block means the memory is too small.
    """
    n = np.floor(np.sqrt(total_bytes / BYTES_PER_ELEMENT))
    return n - np.mod(n, BLOCK_SIZE)


def contention_factor(ranks_per_node, node_cores, threshold, slope):
    """Compute-kernel slowdown (>= 1) of ``ranks_per_node`` ranks on a node.

    ``1 + slope * max(0, ranks_per_node - threshold) / node_cores``,
    elementwise.
    """
    return 1.0 + slope * np.maximum(0, ranks_per_node - threshold) / node_cores


def run_times(
    n,
    ranks,
    core_peak_flops,
    slowdown,
    nic_bandwidth,
    nic_latency_s,
    *,
    comm_volume_factor,
    accelerator_flops=0.0,
):
    """``(compute, comm volume, comm latency)`` seconds of one run (elementwise).

    ``slowdown`` is the :func:`contention_factor` of the run's packing, and
    ``accelerator_flops`` the sustained accelerator rate added to the CPU
    ranks' DGEMM rate (0 for CPU-only runs).
    """
    compute_rate = (
        ranks * core_peak_flops * DGEMM_EFFICIENCY / slowdown + accelerator_flops
    )
    log_p = np.log2(ranks)
    # Broadcast volume through each rank's link: the column of panels and
    # the row of U updates sum to ~N^2 elements / sqrt(p) per rank, each
    # forwarded ~log p times by tree broadcasts.
    volume_bytes = (
        comm_volume_factor * BYTES_PER_ELEMENT * n**2 * log_p / np.sqrt(ranks)
    )
    # Each of the N/nb steps pays O(log p) latencies for panel bcast,
    # pivot exchange, and U bcast (factor 3).
    steps = np.maximum(1.0, np.floor(n / BLOCK_SIZE))
    return (
        flop_count(n) / compute_rate,
        volume_bytes / nic_bandwidth,
        3.0 * steps * log_p * nic_latency_s,
    )


@dataclass(frozen=True)
class HPLPrediction:
    """Predicted timing and performance of one HPL run."""

    problem_size: int
    num_ranks: int
    flops: float
    compute_time_s: float
    comm_volume_time_s: float
    comm_latency_time_s: float

    @property
    def comm_time_s(self) -> float:
        """Total communication seconds."""
        return self.comm_volume_time_s + self.comm_latency_time_s

    @property
    def total_time_s(self) -> float:
        """Wall-clock seconds of the run."""
        return self.compute_time_s + self.comm_time_s

    @property
    def performance_flops(self) -> float:
        """Reported HPL rate in FLOP/s."""
        return self.flops / self.total_time_s

    @property
    def parallel_efficiency(self) -> float:
        """Fraction of time spent computing."""
        return self.compute_time_s / self.total_time_s


@dataclass(frozen=True)
class HPLModel:
    """HPL time/performance predictor for one cluster.

    Parameters
    ----------
    cluster:
        The machine.
    comm_volume_factor:
        Prefactor on the broadcast-volume term (absorbs algorithmic
        constants: U broadcasts, row swaps, pivoting traffic).
    contention_threshold:
        Ranks per node beyond which packing contention sets in (typically
        the per-socket core count: one memory domain per rank is free).
    contention_slope:
        Strength of packing contention; the compute kernel slows by
        ``1 + slope * (k - threshold) / cores`` when ``k`` ranks share a
        ``cores``-core node.
    use_accelerators:
        When the node carries accelerators, add their sustained HPL rate
        (CPU+GPU hybrid DGEMM, the Fermi-era HPL-CUDA scheme) to every
        participating node's compute throughput.

    The kernel efficiency and blocking factor are the module constants
    :data:`DGEMM_EFFICIENCY` and :data:`BLOCK_SIZE`, read at call time.
    """

    cluster: ClusterSpec
    comm_volume_factor: float = 1.0
    contention_threshold: int = 8
    contention_slope: float = 1.0
    use_accelerators: bool = True

    def __post_init__(self) -> None:
        check_positive(self.comm_volume_factor, "comm_volume_factor", exc=BenchmarkError)
        check_positive_int(self.contention_threshold, "contention_threshold", exc=BenchmarkError)
        if self.contention_slope < 0:
            raise BenchmarkError("contention_slope must be >= 0")

    # ------------------------------------------------------------------
    # Problem sizing
    # ------------------------------------------------------------------
    def problem_size_from_memory(self, *, memory_fraction: float = 0.8, nodes: int = 0) -> int:
        """Largest ``N`` whose matrix fills ``memory_fraction`` of DRAM.

        ``nodes=0`` means all nodes.  The result is rounded down to a
        multiple of the block size, as HPL practitioners do.
        """
        check_fraction(memory_fraction, "memory_fraction", exc=BenchmarkError)
        if memory_fraction == 0:
            raise BenchmarkError("memory_fraction must be > 0")
        n_nodes = nodes or self.cluster.num_nodes
        if not 1 <= n_nodes <= self.cluster.num_nodes:
            raise BenchmarkError(f"nodes must be in [1, {self.cluster.num_nodes}]")
        total_bytes = memory_fraction * n_nodes * self.cluster.node.memory_bytes
        n = int(memory_problem_size(total_bytes))
        if n < BLOCK_SIZE:
            raise BenchmarkError("memory too small for a single block")
        return n

    @staticmethod
    def flop_count(n: int) -> float:
        """Official HPL flop count: ``2/3 n^3 + 2 n^2``."""
        check_positive_int(n, "n", exc=BenchmarkError)
        return flop_count(n)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def contention_factor(self, ranks_per_node: int) -> float:
        """Compute-kernel slowdown factor (>= 1) for a node with ``k`` ranks."""
        check_positive_int(ranks_per_node, "ranks_per_node", exc=BenchmarkError)
        cores = self.cluster.node.cores
        if ranks_per_node > cores:
            raise BenchmarkError(f"{ranks_per_node} ranks exceed {cores} cores per node")
        return float(
            contention_factor(
                ranks_per_node, cores, self.contention_threshold, self.contention_slope
            )
        )

    def predict(self, problem_size: int, num_ranks: int, *, ranks_per_node: int = 0) -> HPLPrediction:
        """Predict one run of size ``problem_size`` on ``num_ranks`` ranks.

        ``ranks_per_node`` defaults to the breadth-first value
        ``ceil(num_ranks / num_nodes)``.
        """
        check_positive_int(problem_size, "problem_size", exc=BenchmarkError)
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        slowdown = self.contention_factor(k)
        node = self.cluster.node
        accelerator_flops = 0.0
        if self.use_accelerators and node.accelerators:
            accelerator_flops = math.ceil(num_ranks / k) * sum(
                acc.sustained_hpl_flops for acc in node.accelerators
            )
        compute, comm_volume, comm_latency = run_times(
            problem_size,
            num_ranks,
            node.cpu.peak_flops_per_core,
            slowdown,
            node.nic.bandwidth,
            node.nic.latency_s,
            comm_volume_factor=self.comm_volume_factor,
            accelerator_flops=accelerator_flops,
        )
        return HPLPrediction(
            problem_size=problem_size,
            num_ranks=num_ranks,
            flops=flop_count(problem_size),
            compute_time_s=float(compute),
            comm_volume_time_s=float(comm_volume),
            comm_latency_time_s=float(comm_latency),
        )
