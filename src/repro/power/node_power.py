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
from functools import cached_property
from typing import Dict, Optional, Tuple

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

    def _price(self, util: NodeUtilization | NodeUtilizationArray):
        """``(dc, parts)``: DC watts and per-component DC watts, each component priced once.

        The total adds base, CPU, memory, storage, NIC and then each
        accelerator card in turn; ``parts`` reports the cards as one
        ``accelerators`` sum.
        """
        base = self.node.base_watts
        parts = {
            "base": np.full(len(util), base) if isinstance(util, NodeUtilizationArray) else base,
            "cpu": self._cpu.power(util),
            "memory": self._memory.power(util),
            "storage": self._storage.power(util),
            "nic": self._nic.power(util),
        }
        dc = base + parts["cpu"] + parts["memory"] + parts["storage"] + parts["nic"]
        if self._accelerators:
            cards = [acc.power(util) for acc in self._accelerators]
            for card in cards:
                dc = dc + card
            parts["accelerators"] = sum(cards)
        return dc, parts

    def dc_power(self, util: NodeUtilization | NodeUtilizationArray):
        """DC watts drawn by the node at the given utilization."""
        return self._price(util)[0]

    def wall_power(self, util: NodeUtilization | NodeUtilizationArray):
        """AC watts drawn from the outlet at the given utilization."""
        return self.psu.wall_watts(self.dc_power(util))

    def wall_power_and_breakdown(self, util: NodeUtilization | NodeUtilizationArray):
        """``(wall_power(util), component_breakdown(util))`` from one pricing of each component."""
        dc, parts = self._price(util)
        return self.psu.wall_watts(dc), parts

    @cached_property
    def _idle(self) -> Tuple[float, Dict[str, float]]:
        # A model's specs and PSU are frozen, so a fully idle node is priced once.
        return self.wall_power_and_breakdown(NodeUtilization.idle())

    def idle_wall_power(self) -> float:
        """Wall watts of a fully idle node."""
        return self._idle[0]

    def idle_component_breakdown(self) -> Dict[str, float]:
        """:meth:`component_breakdown` of a fully idle node (a fresh dict)."""
        return dict(self._idle[1])

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
        return self._price(util)[1]
