"""Seeded generator of plausible cluster specifications.

The paper's future work wants "the general applicability of TGI by
benchmarking more systems".  This generator produces whole *families* of
era-consistent machines so list-scale studies (a simulated Green500, rank
stability, metric comparisons across dozens of systems) are one loop away —
see ``examples/green500_style_list.py``.

Machines are sampled around an era template (2008 / 2011 / 2015 / 2021)
with correlated perturbations: a machine with faster DRAM also tends to get
a faster interconnect tier, higher-clock parts burn proportionally more
power, and so on.  Everything is driven by a named RNG stream, so
``generate_cluster(seed=k)`` is stable across runs and platforms.

The draws go through :func:`_pick` and :func:`_uniform`, which make the
same draws as NumPy's ``Generator.choice(seq)`` and ``Generator.uniform``
without their per-call overhead: ``choice`` with replacement and no ``p``
draws ``integers(0, len(seq))``, and ``uniform`` is
``lo + (hi - lo) * random()``.  Each consumes the same bits in the same
order, so the stream and the generator's end state match those methods
exactly.  The arithmetic runs in Python, which rounds every operation and
never fuses a multiply and an add, so no value depends on how a NumPy
build compiles ``uniform``.  Batching the draws into one ``random(k)``
would change the stream: ``integers`` below 2**32 takes 32-bit halves
that the bit generator buffers between doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import SpecError
from ..rng import RandomState, ensure_rng
from ..units import GIB, gbps, mbps
from .cluster import ClusterSpec
from .cpu import CPUSpec
from .memory import MemorySpec
from .nic import InterconnectSpec
from .node import NodeSpec
from .storage import StorageKind, StorageSpec

__all__ = [
    "EraTemplate",
    "ERAS",
    "generate_cluster",
    "generate_fleet",
    "fleet_seeds",
    "fleet_member_seed",
]


@dataclass(frozen=True)
class EraTemplate:
    """Central values a generated machine is sampled around."""

    name: str
    clock_ghz: Tuple[float, float]  # (low, high)
    cores_per_socket: Tuple[int, ...]
    flops_per_cycle: float
    tdp_per_core_w: float
    idle_fraction: float  # idle = fraction * tdp
    channel_bw_gbs: float
    channels: Tuple[int, ...]
    stream_efficiency: Tuple[float, float]
    mem_per_core_gib: Tuple[int, ...]
    disk_mbps: Tuple[float, float]
    disk_kind: StorageKind
    nic_tiers: Tuple[Tuple[str, float, float], ...]  # (name, GB/s, latency us)
    base_watts: Tuple[float, float]
    node_counts: Tuple[int, ...]


ERAS: Dict[str, EraTemplate] = {
    "2008": EraTemplate(
        name="2008",
        clock_ghz=(2.0, 3.0),
        cores_per_socket=(2, 4),
        flops_per_cycle=4.0,
        tdp_per_core_w=20.0,
        idle_fraction=0.30,
        channel_bw_gbs=6.4,
        channels=(2, 4),
        stream_efficiency=(0.15, 0.45),
        mem_per_core_gib=(1, 2),
        disk_mbps=(55.0, 90.0),
        disk_kind=StorageKind.HDD,
        nic_tiers=(
            ("GigE", 0.118, 50.0),
            ("DDR InfiniBand", 1.5, 2.5),
        ),
        base_watts=(40.0, 70.0),
        node_counts=(8, 16, 32, 64, 128),
    ),
    "2011": EraTemplate(
        name="2011",
        clock_ghz=(2.0, 2.9),
        cores_per_socket=(6, 8, 12),
        flops_per_cycle=4.0,
        tdp_per_core_w=9.0,
        idle_fraction=0.28,
        channel_bw_gbs=10.7,
        channels=(3, 4),
        stream_efficiency=(0.25, 0.6),
        mem_per_core_gib=(1, 2, 4),
        disk_mbps=(90.0, 160.0),
        disk_kind=StorageKind.HDD,
        nic_tiers=(
            ("GigE", 0.118, 50.0),
            ("QDR InfiniBand", 3.2, 1.3),
        ),
        base_watts=(35.0, 60.0),
        node_counts=(8, 16, 32, 64, 128, 256),
    ),
    "2015": EraTemplate(
        name="2015",
        clock_ghz=(2.2, 3.0),
        cores_per_socket=(10, 12, 16),
        flops_per_cycle=16.0,
        tdp_per_core_w=8.0,
        idle_fraction=0.25,
        channel_bw_gbs=17.0,
        channels=(4,),
        stream_efficiency=(0.55, 0.75),
        mem_per_core_gib=(2, 4, 8),
        disk_mbps=(200.0, 500.0),
        disk_kind=StorageKind.SSD,
        nic_tiers=(
            ("10GigE", 1.1, 8.0),
            ("FDR InfiniBand", 6.0, 1.0),
        ),
        base_watts=(30.0, 55.0),
        node_counts=(16, 32, 64, 128, 256),
    ),
    "2021": EraTemplate(
        name="2021",
        clock_ghz=(2.2, 3.2),
        cores_per_socket=(32, 48, 64),
        flops_per_cycle=16.0,
        tdp_per_core_w=4.0,
        idle_fraction=0.28,
        channel_bw_gbs=25.6,
        channels=(8,),
        stream_efficiency=(0.7, 0.85),
        mem_per_core_gib=(2, 4),
        disk_mbps=(1500.0, 3500.0),
        disk_kind=StorageKind.NVME,
        nic_tiers=(
            ("25GigE", 2.8, 4.0),
            ("HDR InfiniBand", 24.0, 0.9),
        ),
        base_watts=(40.0, 70.0),
        node_counts=(16, 32, 64, 128, 256, 512),
    ),
}


def _pick(rng: np.random.Generator, seq: Tuple[int, ...]) -> int:
    """``int(rng.choice(seq))``: the same index draw, without the array."""
    return seq[int(rng.integers(len(seq)))]


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)``: the same double from the same draw."""
    return lo + (hi - lo) * rng.random()


def generate_cluster(seed: RandomState, *, era: str = "2011", name: str = "") -> ClusterSpec:
    """One plausible machine of the given era, fully determined by ``seed``."""
    if era not in ERAS:
        raise SpecError(f"unknown era {era!r}; available: {sorted(ERAS)}")
    template = ERAS[era]
    rng = ensure_rng(seed)

    clock = _uniform(rng, *template.clock_ghz)
    cores = _pick(rng, template.cores_per_socket)
    tdp = cores * template.tdp_per_core_w * _uniform(rng, 0.85, 1.2)
    cpu = CPUSpec(
        model=f"{template.name}-gen CPU {clock:.1f} GHz x{cores}",
        cores=cores,
        base_clock_hz=clock * 1e9,
        flops_per_cycle=template.flops_per_cycle,
        tdp_watts=tdp,
        idle_watts=template.idle_fraction * tdp,
    )
    # correlated quality draw: one "budget tier" knob nudges memory, disk,
    # and network together
    tier = _uniform(rng, 0.0, 1.0)
    channels = _pick(rng, template.channels)
    stream_eff = (
        template.stream_efficiency[0]
        + (template.stream_efficiency[1] - template.stream_efficiency[0])
        * min(1.0, tier + _uniform(rng, -0.15, 0.15))
    )
    stream_eff = min(max(stream_eff, template.stream_efficiency[0]), template.stream_efficiency[1])
    memory = MemorySpec(
        technology=f"{template.name}-gen DRAM",
        capacity_bytes=_pick(rng, template.mem_per_core_gib) * cores * GIB,
        channels=channels,
        channel_bandwidth=template.channel_bw_gbs * 1e9,
        stream_efficiency=stream_eff,
        cores_to_saturate=max(1, min(cores, int(round(cores * _uniform(rng, 0.3, 0.9))))),
        dimms=channels,
        dimm_idle_watts=_uniform(rng, 1.0, 3.0),
        dimm_active_watts=_uniform(rng, 3.5, 6.0),
    )
    disk_lo, disk_hi = template.disk_mbps
    disk_rate = disk_lo + (disk_hi - disk_lo) * min(1.0, tier + _uniform(rng, -0.2, 0.2))
    disk_rate = min(max(disk_rate, disk_lo), disk_hi)
    storage = StorageSpec(
        model=f"{template.name}-gen {template.disk_kind.value}",
        kind=template.disk_kind,
        capacity_bytes=1e12,
        seq_write_bandwidth=mbps(disk_rate),
        seq_read_bandwidth=mbps(disk_rate * 1.2),
        idle_watts=_uniform(rng, 1.0, 6.0),
        active_watts=_uniform(rng, 6.0, 11.0),
    )
    nic_name, nic_gbs, nic_us = template.nic_tiers[
        1 if tier > 0.5 else 0
    ]
    nic = InterconnectSpec(
        name=nic_name,
        latency_s=nic_us * 1e-6,
        bandwidth=gbps(nic_gbs),
        idle_watts=_uniform(rng, 2.0, 10.0),
        active_watts=_uniform(rng, 10.0, 18.0),
    )
    node = NodeSpec(
        name=f"{template.name}-gen node (2x {cores} cores)",
        sockets=2,
        cpu=cpu,
        memory=memory,
        storage=storage,
        nic=nic,
        base_watts=_uniform(rng, *template.base_watts),
    )
    num_nodes = _pick(rng, template.node_counts)
    cluster_name = name or f"{template.name}-sys-{rng.integers(0, 10_000):04d}"
    return ClusterSpec(name=cluster_name, node=node, num_nodes=num_nodes)


def _fleet_base(seed: RandomState) -> int:
    """One stable base integer for a fleet's whole seed family."""
    return int(ensure_rng(seed).integers(0, 2**63 - 1))


def _member_seed(base: int, index: int) -> int:
    # Same derivation idiom as rng.child_rng: a fresh generator keyed by
    # (base, index) makes every member's stream independent of its
    # neighbours', so fleets of different sizes share a common prefix.
    return int(np.random.default_rng([base, index]).integers(0, 2**62))


def fleet_member_seed(index: int, seed: RandomState = None) -> int:
    """The sub-seed of fleet member ``index``, in O(1).

    ``fleet_member_seed(i, s) == fleet_seeds(n, s)[i]`` for any ``n > i``
    (with an int or ``None`` seed) — member seeds are a pure function of
    ``(seed, index)`` rather than positions in a shared sequential stream,
    so one member can be derived without materializing those before it.
    Passing a live ``Generator`` consumes one draw per call.
    """
    if index < 0:
        raise SpecError(f"index must be >= 0, got {index}")
    return _member_seed(_fleet_base(seed), index)


def fleet_seeds(count: int, seed: RandomState = None) -> List[int]:
    """The per-machine sub-seeds a fleet of ``count`` machines draws.

    Exposed so a single fleet member can be regenerated in isolation (e.g.
    by a campaign job running in another process) without materializing the
    whole fleet: ``generate_cluster(fleet_seeds(n, seed)[i], ...)`` equals
    ``generate_fleet(n, seed=seed)[i]`` spec-for-spec.

    Seeds are derived per member from ``(seed, index)``, not drawn from one
    sequential stream, so fleets of size ``n`` and ``n + 1`` built from the
    same ``seed`` agree on their first ``n`` machines and any single member
    is recoverable via :func:`fleet_member_seed`.
    """
    if count < 1:
        raise SpecError(f"count must be >= 1, got {count}")
    base = _fleet_base(seed)
    return [_member_seed(base, i) for i in range(count)]


def generate_fleet(
    count: int, *, era: str = "2011", seed: RandomState = None
) -> List[ClusterSpec]:
    """``count`` distinct machines of one era with unique names."""
    fleet = []
    for i, sub_seed in enumerate(fleet_seeds(count, seed)):
        fleet.append(generate_cluster(sub_seed, era=era, name=f"{era}-sys-{i:02d}"))
    return fleet
