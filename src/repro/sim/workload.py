"""Phase-based workload description.

A rank's program is an immutable tuple of :class:`Phase` objects executed
in order.  Each phase has a fixed duration (computed upstream by the
performance models) and declares what the rank demands from its node while
the phase runs:

* ``cpu_intensity`` — how power-hungry the busy core is (1.0 = dense
  compute, ~0.6 = bandwidth-bound, ~0.15 = blocked on I/O or messages);
* ``memory`` / ``storage`` / ``nic`` — the fraction of the *node's*
  sustained bandwidth of that resource this single rank consumes.  When
  several ranks share a node their fractions add (saturating at 1) in
  :mod:`repro.sim.executor`.

:data:`PhaseKind.BARRIER` phases have zero duration and synchronize all
ranks; the engine inserts explicit wait intervals for early arrivers.

Every rank of a benchmark run executes the same sequence, so the builders
compose one template tuple per run and hand that same object to every
:class:`RankProgram`; the engine then works once per distinct sequence,
not once per rank.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..exceptions import SimulationError
from ..validation import check_fraction, check_non_negative

__all__ = [
    "PhaseKind",
    "Phase",
    "RankProgram",
    "rank_programs",
    "barrier",
    "compute_phase",
    "memory_phase",
    "io_phase",
    "comm_phase",
    "idle_phase",
    "WAIT_INTENSITY",
]

#: CPU intensity of a core spinning/blocking at a barrier or in MPI_Wait.
WAIT_INTENSITY = 0.15


class PhaseKind(str, enum.Enum):
    """What a rank is doing during a phase."""

    COMPUTE = "compute"
    MEMORY = "memory"
    IO = "io"
    COMMUNICATION = "communication"
    BARRIER = "barrier"
    IDLE = "idle"
    WAIT = "wait"  # engine-inserted barrier wait


@dataclass(frozen=True, slots=True)
class Phase:
    """One phase of one rank's program (see module docstring).

    ``slots=True``: phases are shared across thousands of intervals and
    read field-by-field in the power-integration hot loops.
    """

    kind: PhaseKind
    duration_s: float
    cpu_intensity: float = 0.0
    memory: float = 0.0
    storage: float = 0.0
    nic: float = 0.0
    accelerator: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PhaseKind):
            raise SimulationError(f"kind must be a PhaseKind, got {self.kind!r}")
        check_non_negative(self.duration_s, "duration_s", exc=SimulationError)
        check_fraction(self.cpu_intensity, "cpu_intensity", exc=SimulationError)
        check_fraction(self.memory, "memory", exc=SimulationError)
        check_fraction(self.storage, "storage", exc=SimulationError)
        check_fraction(self.nic, "nic", exc=SimulationError)
        check_fraction(self.accelerator, "accelerator", exc=SimulationError)
        if self.kind is PhaseKind.BARRIER and self.duration_s != 0.0:
            raise SimulationError("BARRIER phases must have zero duration")
        if self.kind is not PhaseKind.BARRIER and self.duration_s == 0.0:
            # zero-length non-barrier phases are legal no-ops but usually a
            # model bug; they are tolerated to keep builders simple.
            pass

    @property
    def occupies_core(self) -> bool:
        """Whether a core counts as busy during this phase."""
        return self.kind not in (PhaseKind.IDLE, PhaseKind.BARRIER)

    def demand_vector(self) -> Tuple[float, float, float, float, float, float]:
        """The phase's demand row for the struct-of-arrays integrators:
        ``(occupies, occupies * intensity, memory, storage, nic,
        accelerator)``.  Only core-occupying phases contribute intensity;
        bandwidth demands always count.  Shared by the columnar
        :class:`~repro.sim.engine.IntervalArrays` and the executor's
        sweep-line power integration."""
        occ = 1.0 if self.occupies_core else 0.0
        return (
            occ,
            occ * self.cpu_intensity,
            self.memory,
            self.storage,
            self.nic,
            self.accelerator,
        )


@dataclass
class RankProgram:
    """The ordered phases of one MPI rank.

    ``phases`` is normalized to a tuple; a tuple passed in is kept as the
    same object, so ranks built from one template share it.  ``append``
    and ``extend`` rebind ``phases`` to a new tuple, which leaves every
    other rank sharing the old one unchanged.
    """

    rank: int
    phases: Tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise SimulationError(f"rank must be >= 0, got {self.rank}")
        self.phases = tuple(self.phases)

    def append(self, phase: Phase) -> "RankProgram":
        """Append a phase (returns self for chaining)."""
        self.phases += (phase,)
        return self

    def extend(self, phases: Sequence[Phase]) -> "RankProgram":
        """Append several phases (returns self for chaining)."""
        self.phases += tuple(phases)
        return self

    @property
    def barrier_count(self) -> int:
        """Number of barrier phases (must match across ranks)."""
        return sum(1 for p in self.phases if p.kind is PhaseKind.BARRIER)

    @property
    def busy_time(self) -> float:
        """Sum of phase durations, excluding engine-inserted waits."""
        return sum(p.duration_s for p in self.phases)


def rank_programs(template: Tuple[Phase, ...], num_ranks: int) -> Tuple[RankProgram, ...]:
    """Programs for ranks ``0..num_ranks-1``, every one sharing ``template``.

    The builders' one per-rank step; ``map`` drives the constructor with
    no Python loop of its own.
    """
    return tuple(map(RankProgram, range(num_ranks), itertools.repeat(template, num_ranks)))


# ----------------------------------------------------------------------
# Phase constructors
# ----------------------------------------------------------------------
# Interned once, like the engine's barrier-wait phase: every barrier of
# every program is this one Phase object.
_BARRIER = Phase(kind=PhaseKind.BARRIER, duration_s=0.0, label="barrier")


def barrier() -> Phase:
    """A synchronization point across all ranks (one shared object)."""
    return _BARRIER


def compute_phase(
    duration_s: float,
    *,
    intensity: float = 1.0,
    memory: float = 0.0,
    accelerator: float = 0.0,
    label: str = "compute",
) -> Phase:
    """Dense compute on one core (optionally with a memory-traffic share
    and an accelerator-offload share)."""
    return Phase(
        kind=PhaseKind.COMPUTE,
        duration_s=duration_s,
        cpu_intensity=intensity,
        memory=memory,
        accelerator=accelerator,
        label=label,
    )


def memory_phase(duration_s: float, *, memory: float, intensity: float = 0.6, label: str = "memory") -> Phase:
    """Bandwidth-bound work: core busy at reduced intensity, DRAM streaming."""
    return Phase(
        kind=PhaseKind.MEMORY,
        duration_s=duration_s,
        cpu_intensity=intensity,
        memory=memory,
        label=label,
    )


def io_phase(duration_s: float, *, storage: float, intensity: float = 0.15, label: str = "io") -> Phase:
    """I/O-bound work: core mostly blocked, disk streaming."""
    return Phase(
        kind=PhaseKind.IO,
        duration_s=duration_s,
        cpu_intensity=intensity,
        storage=storage,
        label=label,
    )


def comm_phase(duration_s: float, *, nic: float = 0.8, intensity: float = WAIT_INTENSITY, label: str = "comm") -> Phase:
    """Message exchange: core blocked in MPI, NIC streaming."""
    return Phase(
        kind=PhaseKind.COMMUNICATION,
        duration_s=duration_s,
        cpu_intensity=intensity,
        nic=nic,
        label=label,
    )


def idle_phase(duration_s: float, *, label: str = "idle") -> Phase:
    """The rank does nothing (core considered free)."""
    return Phase(kind=PhaseKind.IDLE, duration_s=duration_s, label=label)
