"""Component-level power models: utilization in, watts out.

Each model maps a component's specification plus an instantaneous
utilization to DC power draw.  The models are deliberately simple
(linear-in-utilization between a measured idle floor and a measured
full-load ceiling, with a CPU refinement described below) because the paper's
metric consumes *whole-system wall power*; what matters for reproducing its
curves is that the floors and ceilings are right and that partially-loaded
nodes land in between monotonically.

CPU refinement: a core that is awake but stalled (e.g. running STREAM,
waiting on DRAM) still burns clock-tree and leakage power.  The model
therefore splits the per-core dynamic range into an *awake floor*
(:data:`CPU_AWAKE_FLOOR`) paid by any busy core, plus an
intensity-proportional remainder — so compute-bound HPL draws close to TDP
while memory-bound STREAM draws noticeably less at the same core count,
matching the power gap the paper observes between its benchmarks.

One formula per model: :func:`cpu_power` and :func:`linear_power` are
elementwise over plain numbers or NumPy arrays.  Each model's ``power``
accepts a scalar :class:`NodeUtilization` (one instant, range-checked) or a
:class:`NodeUtilizationArray` (a whole timeline as struct-of-arrays, from
the sweep-line integrator in :mod:`repro.sim.executor`) and returns watts of
the same shape.  The batched fleet evaluator (:mod:`repro.fleet.evaluate`)
calls the two functions directly with its per-system spec columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.accelerator import AcceleratorSpec
from ..cluster.cpu import CPUSpec
from ..cluster.memory import MemorySpec
from ..cluster.nic import InterconnectSpec
from ..cluster.storage import StorageSpec
from ..exceptions import PowerModelError
from ..validation import check_fraction

__all__ = [
    "CPU_AWAKE_FLOOR",
    "cpu_power",
    "linear_power",
    "NodeUtilization",
    "NodeUtilizationArray",
    "CPUPowerModel",
    "MemoryPowerModel",
    "StoragePowerModel",
    "NICPowerModel",
    "AcceleratorPowerModel",
]


#: Fraction of a package's dynamic range any busy core draws, however
#: stalled: the clock tree and leakage of an awake core.
CPU_AWAKE_FLOOR = 0.45


@dataclass(frozen=True)
class NodeUtilization:
    """Instantaneous utilization of one node's components.

    All fields are fractions in [0, 1].

    Attributes
    ----------
    cpu_active_fraction:
        Fraction of the node's cores that are busy (running a rank).
    cpu_intensity:
        How power-hungry the busy cores' work is: ~1.0 for dense compute
        (HPL), ~0.6 for bandwidth-bound code (STREAM), ~0.15 for cores
        blocked on I/O or messages.
    memory:
        Fraction of sustained memory bandwidth in use.
    storage:
        Fraction of disk bandwidth in use.
    nic:
        Fraction of link bandwidth in use.
    accelerator:
        Fraction of accelerator throughput in use (extension systems).
    """

    cpu_active_fraction: float = 0.0
    cpu_intensity: float = 0.0
    memory: float = 0.0
    storage: float = 0.0
    nic: float = 0.0
    accelerator: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "cpu_active_fraction",
            "cpu_intensity",
            "memory",
            "storage",
            "nic",
            "accelerator",
        ):
            check_fraction(getattr(self, name), name, exc=PowerModelError)

    @classmethod
    def idle(cls) -> "NodeUtilization":
        """A fully idle node."""
        return cls()


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality only
class NodeUtilizationArray:
    """A whole utilization timeline as struct-of-arrays.

    Field-for-field the batched counterpart of :class:`NodeUtilization`:
    each attribute is a 1-D float array with one entry per timeline slice.
    Instances are produced by trusted code (the sweep-line integrator), so
    construction validates shape agreement but not per-element ranges —
    the producers clamp to [0, 1] themselves.
    """

    cpu_active_fraction: np.ndarray
    cpu_intensity: np.ndarray
    memory: np.ndarray
    storage: np.ndarray
    nic: np.ndarray
    accelerator: np.ndarray

    _FIELDS = (
        "cpu_active_fraction",
        "cpu_intensity",
        "memory",
        "storage",
        "nic",
        "accelerator",
    )

    def __post_init__(self) -> None:
        shapes = {getattr(self, name).shape for name in self._FIELDS}
        if len(shapes) != 1 or next(iter(shapes)) != (len(self),):
            raise PowerModelError(
                f"utilization arrays must share one 1-D shape, got {sorted(shapes)}"
            )

    def __len__(self) -> int:
        return int(np.asarray(self.cpu_active_fraction).shape[0])


def cpu_power(idle_w, tdp_w, sockets, active, intensity):
    """Watts of ``sockets`` CPU packages (elementwise over numbers or arrays).

    ``sockets * (idle + (tdp - idle) * active * (floor + (1-floor) * intensity))``

    where ``active`` is the fraction of busy cores and ``floor`` is
    :data:`CPU_AWAKE_FLOOR`, read at call time.
    """
    dynamic_range = tdp_w - idle_w
    per_core_load = CPU_AWAKE_FLOOR + (1.0 - CPU_AWAKE_FLOOR) * intensity
    package = idle_w + dynamic_range * active * per_core_load
    return sockets * package


def linear_power(idle_w, active_w, util, count=1):
    """Watts of ``count`` devices, each linear in ``util`` from idle to active.

    Elementwise over numbers or arrays.
    """
    return count * (idle_w + (active_w - idle_w) * util)


@dataclass(frozen=True)
class CPUPowerModel:
    """Power of all CPU packages in a node (see :func:`cpu_power`)."""

    spec: CPUSpec
    sockets: int

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise PowerModelError(f"sockets must be >= 1, got {self.sockets}")

    def power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts for a :class:`NodeUtilization` or :class:`NodeUtilizationArray`."""
        return cpu_power(
            self.spec.idle_watts,
            self.spec.tdp_watts,
            self.sockets,
            util.cpu_active_fraction,
            util.cpu_intensity,
        )


@dataclass(frozen=True)
class MemoryPowerModel:
    """Power of all DIMMs in a node (linear in bandwidth utilization)."""

    spec: MemorySpec
    sockets: int

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise PowerModelError(f"sockets must be >= 1, got {self.sockets}")

    def power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts for a :class:`NodeUtilization` or :class:`NodeUtilizationArray`."""
        return linear_power(
            self.spec.idle_watts, self.spec.active_watts, util.memory, self.sockets
        )


@dataclass(frozen=True)
class StoragePowerModel:
    """Power of the node's local storage device."""

    spec: StorageSpec

    def power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts for a :class:`NodeUtilization` or :class:`NodeUtilizationArray`."""
        return linear_power(self.spec.idle_watts, self.spec.active_watts, util.storage)


@dataclass(frozen=True)
class NICPowerModel:
    """Power of the node's network adapter."""

    spec: InterconnectSpec

    def power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts for a :class:`NodeUtilization` or :class:`NodeUtilizationArray`."""
        return linear_power(self.spec.idle_watts, self.spec.active_watts, util.nic)


@dataclass(frozen=True)
class AcceleratorPowerModel:
    """Power of one accelerator card (linear between idle and TDP)."""

    spec: AcceleratorSpec

    def power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts for a :class:`NodeUtilization` or :class:`NodeUtilizationArray`."""
        return linear_power(self.spec.idle_watts, self.spec.tdp_watts, util.accelerator)
