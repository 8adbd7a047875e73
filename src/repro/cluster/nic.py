"""Interconnect (NIC + link) specification.

The performance models price messages with the Hockney alpha-beta model
(HPL's terms in :mod:`repro.perfmodels.hpl`, b_eff in
:mod:`repro.perfmodels.network`): a message of ``m`` bytes between two
nodes costs ``alpha + m / beta`` seconds per hop, where ``alpha`` is
:attr:`InterconnectSpec.latency_s` and ``beta`` is
:attr:`InterconnectSpec.bandwidth` (bytes/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import SpecError
from ..units import format_bandwidth
from ..validation import check_non_negative, check_positive

__all__ = ["InterconnectSpec"]


@dataclass(frozen=True)
class InterconnectSpec:
    """One network adapter and its link.

    Parameters
    ----------
    name:
        e.g. ``"QDR InfiniBand"`` or ``"GigE"``.
    latency_s:
        One-way small-message latency (the Hockney ``alpha``).
    bandwidth:
        Sustained unidirectional bytes/s per link (the Hockney ``1/beta``).
    idle_watts / active_watts:
        Adapter power at idle and while transferring.
    """

    name: str
    latency_s: float
    bandwidth: float
    idle_watts: float = 5.0
    active_watts: float = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("interconnect name must be non-empty")
        check_positive(self.latency_s, "latency_s", exc=SpecError)
        check_positive(self.bandwidth, "bandwidth", exc=SpecError)
        check_non_negative(self.idle_watts, "idle_watts", exc=SpecError)
        check_positive(self.active_watts, "active_watts", exc=SpecError)
        if self.active_watts < self.idle_watts:
            raise SpecError("active_watts must be >= idle_watts")

    def transfer_time(self, message_bytes: float, *, hops: int = 1) -> float:
        """Hockney time for one point-to-point message over ``hops`` hops."""
        check_non_negative(message_bytes, "message_bytes", exc=SpecError)
        if hops < 1:
            raise SpecError(f"hops must be >= 1, got {hops}")
        return hops * self.latency_s + message_bytes / self.bandwidth

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.latency_s * 1e6:.1f} us latency, "
            f"{format_bandwidth(self.bandwidth)}"
        )
