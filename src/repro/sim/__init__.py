"""Execution substrate: run phase-based MPI workloads on a simulated cluster.

A benchmark is compiled (by :mod:`repro.benchmarks` using
:mod:`repro.perfmodels`) into one *program* per MPI rank: a sequence of
:class:`~repro.sim.workload.Phase` objects with fixed durations and per-rank
resource demands, separated by barriers.  The discrete-event engine
(:mod:`repro.sim.engine`) executes the programs, resolving barrier waits, and
yields per-rank busy/wait intervals.  The executor
(:mod:`repro.sim.executor`) folds those intervals into per-node utilization
timelines, evaluates the node power models, sums wall power across *all*
nodes of the cluster (idle nodes included — the meter wraps the whole system,
paper Figure 1), and meters the result.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "workload": (
            "Phase",
            "PhaseKind",
            "RankProgram",
            "barrier",
            "compute_phase",
            "memory_phase",
            "io_phase",
            "comm_phase",
            "idle_phase",
        ),
        "placement": ("Placement", "breadth_first_placement", "packed_placement"),
        "communication": ("CommunicationModel",),
        "engine": ("SimulationEngine", "IntervalArrays"),
        "executor": ("ClusterExecutor", "RunRecord"),
    },
)
