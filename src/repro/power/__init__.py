"""Power substrate: utilization -> watts -> metered energy.

The chain mirrors the paper's measurement setup (Figure 1):

1. A benchmark run produces, per node, a piecewise-constant timeline of
   component utilizations (:class:`~repro.power.components.NodeUtilization`).
2. :class:`~repro.power.node_power.NodePowerModel` converts utilization to DC
   watts per node from component models (CPU, DRAM, disk, NIC, accelerator).
3. :class:`~repro.power.psu.PSUModel` converts DC watts to wall (AC) watts
   through a load-dependent efficiency curve.
4. :class:`~repro.power.meter.WallPlugMeter` — a model of the Watts Up? PRO
   ES used in the paper — samples the aggregate wall power at 1 Hz with gain
   error and quantization, producing a :class:`~repro.power.trace.PowerTrace`.
5. Energy is the trapezoidal integral of the trace, exactly as one computes
   it from a real meter log.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "components": (
            "NodeUtilization",
            "NodeUtilizationArray",
            "CPUPowerModel",
            "MemoryPowerModel",
            "StoragePowerModel",
            "NICPowerModel",
            "AcceleratorPowerModel",
        ),
        "node_power": ("NodePowerModel",),
        "psu": ("PSUModel", "IDEAL_PSU"),
        "trace": ("PowerTrace", "PiecewisePower"),
        "meter": ("WallPlugMeter", "MeterSpec", "WATTS_UP_PRO"),
        "energy": ("energy_delay_product", "average_power", "energy_to_solution"),
        "cooling": ("CoolingModel", "FixedPUECooling", "COPCooling"),
        "dvfs": ("DVFSOperatingPoint", "DVFSModel"),
    },
)
