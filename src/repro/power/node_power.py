"""Per-node power aggregation: DC draw and wall draw for one node.

:class:`NodePowerModel` bundles the component models for one
:class:`~repro.cluster.node.NodeSpec` and its PSU.  It is the single place
where "a node at utilization *u* draws *P* watts at the wall" is defined;
everything upstream (the simulator) produces utilizations and everything
downstream (the meter) sums wall watts across nodes.  Every method takes a
scalar :class:`~repro.power.components.NodeUtilization` (one instant) or a
:class:`~repro.power.components.NodeUtilizationArray` (a whole timeline,
priced in one call) and returns watts of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.node import NodeSpec
from .components import (
    AcceleratorPowerModel,
    CPUPowerModel,
    MemoryPowerModel,
    NICPowerModel,
    NodeUtilization,
    NodeUtilizationArray,
    StoragePowerModel,
)
from .psu import PSUModel

__all__ = ["NodePowerModel", "PSU_SIZING_FACTOR"]

#: Headroom factor: PSUs are sized above the node's nominal full-load draw.
PSU_SIZING_FACTOR = 1.25


@dataclass(frozen=True)
class NodePowerModel:
    """Utilization -> watts for one node.

    Parameters
    ----------
    node:
        The node being modelled.
    psu:
        Power supply; defaults to a :class:`~repro.power.psu.PSUModel` rated
        at :data:`PSU_SIZING_FACTOR` x the node's nominal full-load DC draw
        with the default efficiency curve.
    """

    node: NodeSpec
    psu: Optional[PSUModel] = None

    def __post_init__(self) -> None:
        if self.psu is None:
            object.__setattr__(
                self,
                "psu",
                PSUModel(rated_watts=PSU_SIZING_FACTOR * self.node.nominal_max_watts),
            )
        object.__setattr__(
            self, "_cpu", CPUPowerModel(spec=self.node.cpu, sockets=self.node.sockets)
        )
        object.__setattr__(
            self, "_memory", MemoryPowerModel(spec=self.node.memory, sockets=self.node.sockets)
        )
        object.__setattr__(self, "_storage", StoragePowerModel(spec=self.node.storage))
        object.__setattr__(self, "_nic", NICPowerModel(spec=self.node.nic))
        object.__setattr__(
            self,
            "_accelerators",
            tuple(AcceleratorPowerModel(spec=acc) for acc in self.node.accelerators),
        )

    def dc_power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts drawn by the node at the given utilization."""
        total = (
            self.node.base_watts
            + self._cpu.power(util)
            + self._memory.power(util)
            + self._storage.power(util)
            + self._nic.power(util)
        )
        for acc in self._accelerators:
            total += acc.power(util)
        return total

    def wall_power(self, util: NodeUtilization | NodeUtilizationArray):
        """AC watts drawn from the outlet at the given utilization."""
        return self.psu.wall_watts(self.dc_power(util))

    def idle_wall_power(self) -> float:
        """Wall watts of a fully idle node."""
        return self.wall_power(NodeUtilization.idle())

    def max_wall_power(self) -> float:
        """Wall watts with every component fully loaded."""
        full = NodeUtilization(
            cpu_active_fraction=1.0,
            cpu_intensity=1.0,
            memory=1.0,
            storage=1.0,
            nic=1.0,
            accelerator=1.0,
        )
        return self.wall_power(full)

    def component_breakdown(self, util: NodeUtilization | NodeUtilizationArray) -> dict:
        """Per-component DC watts (for reports, energy attribution and debugging).

        On a :class:`~repro.power.components.NodeUtilizationArray` every
        entry, the constant base draw included, is one array per slice.
        """
        base = self.node.base_watts
        if isinstance(util, NodeUtilizationArray):
            base = np.full(len(util), base)
        breakdown = {
            "base": base,
            "cpu": self._cpu.power(util),
            "memory": self._memory.power(util),
            "storage": self._storage.power(util),
            "nic": self._nic.power(util),
        }
        if self._accelerators:
            breakdown["accelerators"] = sum(acc.power(util) for acc in self._accelerators)
        return breakdown
