"""Hardware substrate: parametric models of HPC cluster hardware.

This subpackage defines *specifications* — immutable, validated descriptions
of CPUs, memory subsystems, storage devices, interconnects, nodes, and whole
clusters — plus interconnect topologies and presets for the two machines in
the paper (the *Fire* system under test and the *SystemG* reference) and a
few extension systems.

Specifications are pure data: they carry peak rates and nominal power
envelopes but no behaviour.  Power draw as a function of utilization lives in
:mod:`repro.power`; performance as a function of scale lives in
:mod:`repro.perfmodels`.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "cpu": ("CPUSpec",),
        "memory": ("MemorySpec",),
        "storage": ("StorageSpec", "StorageKind"),
        "nic": ("InterconnectSpec",),
        "node": ("NodeSpec",),
        "cluster": ("ClusterSpec",),
        "topology": ("Topology", "star_topology", "fat_tree_topology", "ring_topology"),
        "accelerator": ("AcceleratorSpec",),
        "generator": ("EraTemplate", "ERAS", "generate_cluster", "generate_fleet"),
        "presets": ("presets",),
    },
)
