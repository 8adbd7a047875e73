"""Deterministic fault injection for campaigns and the simulation substrate.

Real measurement campaigns lose runs: jobs die on flaky nodes, USB power
loggers drop records under host load, nodes crash mid-benchmark.  The CEEC
experience report documents partial and failed power measurements as the
*norm* on production systems, so a reproduction that aims at
production-scale campaigns needs those failure modes on tap — injected
deterministically, so the containment machinery around them is testable.

A :class:`FaultPlan` describes which faults a job should suffer:

``transient_failures``
    The first N execution attempts raise :class:`TransientFault`; attempt
    N+1 succeeds.  The workhorse for retry testing (retry-then-succeed
    with ``retries >= N``, retry-exhausted with ``retries < N``).
``transient_probability``
    A seeded per-attempt coin: attempt ``k`` fails iff its named draw from
    the plan's seed falls below the probability.  Unlike the counter above
    this can model a *permanently* flaky job (probability 1.0).
``meter_dropout``
    Probability of losing each individual power sample, applied to the
    wall-plug meter's spec (the existing
    :attr:`~repro.power.meter.MeterSpec.dropout_probability` machinery).
    The job still succeeds; its traces simply have holes, as a real
    Watts Up? log does.
``node_crash_probability``
    A seeded coin per simulated run: when it fires, a node id and a crash
    time inside the run are drawn and :class:`NodeCrashFault` is raised
    from the executor — mid-phase, before any power is metered.
    ``containment`` decides the blast radius: ``"job"`` (default) fails
    the whole campaign job, ``"benchmark"`` lets the suite skip the
    crashed benchmark and produce a *partial* suite result, the input to
    the degraded-TGI path (see :mod:`repro.core.tgi`).

All draws are named streams derived from ``(plan.seed, scope, attempt)``
via :func:`repro.rng.child_rng`, so the same plan on the same job produces
the same faults whether the job runs inline, in a pool worker, or is
replayed in a test — the serial/parallel equivalence contract of the
campaign layer holds under injection too.

Every injection increments the ``tgi_faults_injected_total`` counter
(labelled by ``kind``) when a telemetry session is active; pool workers
ship the counts back with their payloads like every other metric.  An
injector given the run's journal writer (``journal=``, which the campaign
layer passes in) also appends each injection as a typed
``fault.injected`` event, so post-mortems can line faults up against the
retries they caused.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from . import telemetry as tele
from .exceptions import FaultInjectionError, InjectedFault, NodeCrashFault, TransientFault
from .power.meter import MeterSpec
from .rng import child_rng

if TYPE_CHECKING:  # annotation only: an injector never loads repro.journal
    from .journal.writer import JournalWriter

__all__ = [
    "FAULT_KINDS",
    "CONTAINMENT_SCOPES",
    "FaultPlan",
    "FaultInjector",
    "plan_to_dict",
    "plan_from_dict",
]

#: Fault kinds reported in telemetry and CLI specs.
FAULT_KINDS = ("transient", "flaky", "meter-dropout", "node-crash")

#: Valid blast radii for an injected node crash.
CONTAINMENT_SCOPES = ("job", "benchmark")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, hashable description of the faults to inject into one job.

    The default plan injects nothing; fields compose freely (a job can be
    transiently flaky *and* suffer meter dropout).
    """

    transient_failures: int = 0
    transient_probability: float = 0.0
    meter_dropout: float = 0.0
    node_crash_probability: float = 0.0
    containment: str = "job"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.transient_failures < 0:
            raise FaultInjectionError(
                f"transient_failures must be >= 0, got {self.transient_failures}"
            )
        for name in ("transient_probability", "node_crash_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1], got {value!r}")
        if not 0.0 <= self.meter_dropout < 1.0:
            raise FaultInjectionError(
                f"meter_dropout must be in [0, 1), got {self.meter_dropout!r}"
            )
        if self.containment not in CONTAINMENT_SCOPES:
            raise FaultInjectionError(
                f"containment must be one of {CONTAINMENT_SCOPES}, got {self.containment!r}"
            )

    @property
    def injects_anything(self) -> bool:
        """Whether this plan can produce any fault at all."""
        return bool(
            self.transient_failures
            or self.transient_probability
            or self.meter_dropout
            or self.node_crash_probability
        )


def plan_to_dict(plan: FaultPlan) -> Dict:
    """Serialize a plan (the form embedded in job specs and manifests)."""
    return {
        "transient_failures": plan.transient_failures,
        "transient_probability": plan.transient_probability,
        "meter_dropout": plan.meter_dropout,
        "node_crash_probability": plan.node_crash_probability,
        "containment": plan.containment,
        "seed": plan.seed,
    }


def plan_from_dict(data: Dict) -> FaultPlan:
    """Rebuild a plan serialized by :func:`plan_to_dict`."""
    return FaultPlan(
        transient_failures=data.get("transient_failures", 0),
        transient_probability=data.get("transient_probability", 0.0),
        meter_dropout=data.get("meter_dropout", 0.0),
        node_crash_probability=data.get("node_crash_probability", 0.0),
        containment=data.get("containment", "job"),
        seed=data.get("seed", 0),
    )


class FaultInjector:
    """A plan bound to one execution attempt of one job.

    The campaign layer builds a fresh injector per attempt
    (``FaultInjector(plan, scope=job_id, attempt=k, journal=writer)``); the
    simulation substrate consumes it.  Crash draws for successive simulated
    runs come from one named stream, so a fixed ``(plan, scope, attempt)``
    produces an identical fault sequence in any process.  ``journal`` is
    the writer each injection is recorded to; without one, nothing is
    journaled.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        scope: str = "",
        attempt: int = 0,
        journal: Optional[JournalWriter] = None,
    ):
        if attempt < 0:
            raise FaultInjectionError(f"attempt must be >= 0, got {attempt}")
        self.plan = plan
        self.scope = scope
        self.attempt = attempt
        self.journal = journal
        self._crash_rng = child_rng(plan.seed, f"fault:crash:{scope}:{attempt}")

    # -- transient job exceptions --------------------------------------
    def check_transient(self) -> None:
        """Raise :class:`TransientFault` if this attempt is fated to fail.

        Called once at the start of an attempt, before any work happens —
        a transient fault models the job never getting off the ground
        (scheduler eviction, spawn failure), not a half-finished run.
        """
        plan = self.plan
        if self.attempt < plan.transient_failures:
            self._count("transient")
            raise TransientFault(
                f"injected transient fault: attempt {self.attempt} of job "
                f"{self.scope!r} (fails first {plan.transient_failures})"
            )
        if plan.transient_probability > 0.0:
            draw = float(
                child_rng(
                    plan.seed, f"fault:transient:{self.scope}:{self.attempt}"
                ).uniform()
            )
            if draw < plan.transient_probability:
                self._count("flaky")
                raise TransientFault(
                    f"injected flaky fault: attempt {self.attempt} of job "
                    f"{self.scope!r} (p={plan.transient_probability}, drew {draw:.3f})"
                )

    # -- meter dropout --------------------------------------------------
    def meter_spec(self, spec: MeterSpec) -> MeterSpec:
        """The meter spec this job should measure through.

        With ``meter_dropout`` set, returns a copy of ``spec`` that loses
        samples; otherwise returns ``spec`` unchanged.
        """
        if self.plan.meter_dropout <= 0.0:
            return spec
        self._count("meter-dropout")
        return spec.with_dropout(self.plan.meter_dropout)

    # -- node crash mid-phase -------------------------------------------
    def maybe_crash(self, *, label: str, makespan: float, num_nodes: int) -> None:
        """Possibly raise :class:`NodeCrashFault` for one simulated run.

        Consumes one coin flip per call (plus the node/time draws when it
        fires), so the crash pattern over a sweep is a pure function of
        ``(plan.seed, scope, attempt)`` and the run order.
        """
        if self.plan.node_crash_probability <= 0.0:
            return
        if float(self._crash_rng.uniform()) >= self.plan.node_crash_probability:
            return
        node = int(self._crash_rng.integers(0, max(1, num_nodes)))
        t_crash = float(self._crash_rng.uniform(0.0, 1.0)) * makespan
        self._count("node-crash")
        raise NodeCrashFault(
            f"injected node crash: node {node} failed at t={t_crash:.2f}s "
            f"during {label!r} (job {self.scope!r}, attempt {self.attempt})"
        )

    def _count(self, kind: str) -> None:
        """Record one injection: the telemetry counter plus a typed
        ``fault.injected`` journal event (each a no-op when inactive)."""
        if tele.active():
            tele.count("tgi_faults_injected_total", kind=kind)
        if self.journal is not None:
            self.journal.emit(
                "fault.injected", kind=kind, scope=self.scope, attempt=self.attempt
            )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(scope={self.scope!r}, attempt={self.attempt}, "
            f"plan={self.plan})"
        )


# Re-exported for callers that build plans programmatically.
replace_plan = dataclasses.replace
