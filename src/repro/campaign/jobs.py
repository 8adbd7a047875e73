"""Campaign jobs: pure, picklable units of benchmark execution.

A :class:`CampaignJob` fully describes one measurement — which machine
(by *reference*, not by live spec, so jobs stay tiny, hashable, and stable
across processes), which suite configuration, which scale points, and the
meter seed.  :func:`execute_job` turns a job into a JSON-compatible payload
with no ambient state: a fresh seeded executor per job means the result is
bit-identical whether the job runs inline, in a worker process, or was
archived by a previous campaign.

Job granularity is deliberate: the simulated meter's RNG advances across
runs *within* one executor, so the unit of parallelism is a whole seeded
sweep on one machine — never a single point of someone else's sweep.
Splitting finer would change the draws and break serial/parallel
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cluster import presets
from ..cluster.cluster import ClusterSpec
from ..cluster.generator import fleet_seeds, generate_cluster
from ..benchmarks.runner import SweepResult, run_sweep
from ..exceptions import ReproError
from ..experiments.config import (
    ExperimentConfig,
    PAPER_CONFIG,
    build_suite,
    config_from_dict,
    config_to_dict,
)
from ..faults import FaultInjector, FaultPlan, plan_from_dict, plan_to_dict
from ..serialization import sweep_result_from_dict, sweep_result_to_dict
from ..sim.executor import ClusterExecutor

if TYPE_CHECKING:  # annotations only
    from ..journal.writer import JournalWriter
    from ..timeline.model import RunTimeline

__all__ = [
    "ClusterRef",
    "CampaignJob",
    "execute_job",
    "payload_sweep",
    "paper_jobs",
    "fleet_jobs",
    "job_to_dict",
    "job_from_dict",
    "PAYLOAD_VERSION",
]

#: Schema version of job payloads (part of the cache contract).
PAYLOAD_VERSION = 1

#: Preset factories a ClusterRef may name.
_PRESETS = tuple(presets.__all__)


@dataclass(frozen=True)
class ClusterRef:
    """A serializable pointer to a cluster specification.

    ``kind="preset"`` resolves through :mod:`repro.cluster.presets` (with an
    optional ``num_nodes`` override, 0 meaning the preset default);
    ``kind="generated"`` resolves through the seeded era generator.  Either
    way, resolution is deterministic, so the reference — not the resolved
    spec — is what gets hashed and pickled.
    """

    kind: str = "preset"
    name: str = "fire"
    num_nodes: int = 0
    era: str = "2011"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("preset", "generated"):
            raise ReproError(f"cluster ref kind must be preset/generated, got {self.kind!r}")
        if self.kind == "preset" and self.name not in _PRESETS:
            raise ReproError(f"unknown preset {self.name!r}; available: {_PRESETS}")
        if self.num_nodes < 0:
            raise ReproError(f"num_nodes must be >= 0, got {self.num_nodes}")

    def resolve(self) -> ClusterSpec:
        """Materialize the spec."""
        if self.kind == "preset":
            factory = getattr(presets, self.name)
            if self.num_nodes:
                return factory(num_nodes=self.num_nodes)
            return factory()
        return generate_cluster(self.seed, era=self.era, name=self.name or "")


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work: a seeded suite sweep on one machine.

    ``core_counts`` of ``()`` means "the machine's full core count"
    (resolved at execution time).  ``reference_suite`` selects the
    capability-sized HPL used for reference-system runs.  ``faults``
    optionally attaches a deterministic :class:`~repro.faults.FaultPlan`;
    a faulted job is still pure in the caching sense — the plan is part of
    the job's identity, so its cache key differs from the clean job's.
    """

    job_id: str
    cluster: ClusterRef = field(default_factory=ClusterRef)
    core_counts: Tuple[int, ...] = ()
    seed: int = 0
    config: ExperimentConfig = PAPER_CONFIG
    reference_suite: bool = False
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ReproError("job_id must be non-empty")
        if any(c < 0 for c in self.core_counts):
            raise ReproError(f"core counts must be >= 0, got {self.core_counts}")


def execute_job(
    job: CampaignJob,
    *,
    attempt: int = 0,
    journal: Optional[JournalWriter] = None,
    timelines: Optional[List[RunTimeline]] = None,
) -> Dict:
    """Run one job and return its JSON-compatible payload.

    Pure in the caching sense: output depends only on the job (and the code
    version).  Safe to call from a worker process — everything it needs
    arrives pickled inside ``job``.

    ``attempt`` selects the retry attempt for fault injection: a plan with
    ``transient_failures=N`` makes attempts ``0..N-1`` raise and attempt
    ``N`` succeed with the *same* payload a clean job produces (each
    attempt gets a freshly seeded executor, so success is
    attempt-invariant and the cache stays sound).

    The two instrumentation arguments never change the payload.
    ``journal`` is the run's writer; the job's fault injector records
    each ``fault.injected`` event to it.  ``timelines`` arms power-timeline
    capture: the job's executor appends every run's
    :class:`~repro.timeline.model.RunTimeline` to it.
    """
    injector: Optional[FaultInjector] = None
    if job.faults is not None and job.faults.injects_anything:
        injector = FaultInjector(
            job.faults, scope=job.job_id, attempt=attempt, journal=journal
        )
        injector.check_transient()
    cluster = job.cluster.resolve()
    executor = ClusterExecutor(
        cluster, rng=job.seed, faults=injector, timelines=timelines
    )
    suite = build_suite(job.config, reference=job.reference_suite)
    core_counts = [c or cluster.total_cores for c in (job.core_counts or (0,))]
    on_error = (
        "skip" if injector is not None and job.faults.containment == "benchmark" else "raise"
    )
    sweep = run_sweep(suite, executor, core_counts, on_error=on_error)
    # Every value is JSON-native (lists, not tuples), so a payload compares
    # equal whether it was just computed or read back from cache, and its
    # one serialization is the canonical dump in ``execute_work_item``.
    return {
        "payload_version": PAYLOAD_VERSION,
        "job_id": job.job_id,
        "cluster_name": cluster.name,
        "sweep": sweep_result_to_dict(sweep),
    }


def payload_sweep(payload: Dict) -> SweepResult:
    """Rebuild the sweep result a payload carries."""
    if payload.get("payload_version") != PAYLOAD_VERSION:
        raise ReproError(
            f"payload version {payload.get('payload_version')!r} not supported "
            f"(this library reads version {PAYLOAD_VERSION})"
        )
    return sweep_result_from_dict(payload["sweep"])


def paper_jobs(config: ExperimentConfig = PAPER_CONFIG) -> List[CampaignJob]:
    """The calibrated paper campaign as two independent jobs.

    Job 0 is the SystemG reference run (Table I), job 1 the Fire scaling
    sweep (Figures 2-6) — exactly the work :class:`~repro.experiments.runner.SharedContext`
    computes, so a campaign-backed context reproduces the serial numbers
    bit-for-bit.
    """
    return [
        CampaignJob(
            job_id="reference",
            cluster=ClusterRef(kind="preset", name="system_g"),
            core_counts=(),
            seed=config.reference_seed,
            config=config,
            reference_suite=True,
        ),
        CampaignJob(
            job_id="fire-sweep",
            cluster=ClusterRef(kind="preset", name="fire"),
            core_counts=tuple(config.core_counts),
            seed=config.fire_seed,
            config=config,
        ),
    ]


def fleet_jobs(
    count: int,
    *,
    era: str = "2011",
    fleet_seed: int = 20110615,
    config: ExperimentConfig = PAPER_CONFIG,
    executor_seeds: Sequence[int] = (),
) -> List[CampaignJob]:
    """One full-machine job per generated fleet member.

    ``executor_seeds`` optionally pins each machine's meter seed (defaults
    to ``100 + i``, the convention of the Green500-style example).
    """
    if count < 0:
        raise ReproError(f"fleet size must be >= 0, got {count}")
    seeds = list(executor_seeds) or [100 + i for i in range(count)]
    if len(seeds) != count:
        raise ReproError(f"need {count} executor seeds, got {len(seeds)}")
    jobs = []
    for i, sub_seed in enumerate(fleet_seeds(count, fleet_seed)):
        ref = ClusterRef(
            kind="generated", name=f"{era}-sys-{i:02d}", era=era, seed=sub_seed
        )
        jobs.append(
            CampaignJob(
                job_id=f"{era}-sys-{i:02d}",
                cluster=ref,
                core_counts=(),
                seed=seeds[i],
                config=config,
            )
        )
    return jobs


# Round-trip helpers for manifests/tooling ------------------------------

def job_to_dict(job: CampaignJob) -> Dict:
    """Serialize a job (the form embedded in manifests)."""
    return {
        "job_id": job.job_id,
        "cluster": {
            "kind": job.cluster.kind,
            "name": job.cluster.name,
            "num_nodes": job.cluster.num_nodes,
            "era": job.cluster.era,
            "seed": job.cluster.seed,
        },
        "core_counts": list(job.core_counts),
        "seed": job.seed,
        "config": config_to_dict(job.config),
        "reference_suite": job.reference_suite,
        # Emitted only when set, so manifests of clean jobs keep their
        # pre-fault-injection byte layout (and fingerprints).
        **({"faults": plan_to_dict(job.faults)} if job.faults is not None else {}),
    }


def job_from_dict(data: Dict) -> CampaignJob:
    """Rebuild a job serialized by :func:`job_to_dict`."""
    faults = data.get("faults")
    return CampaignJob(
        job_id=data["job_id"],
        cluster=ClusterRef(**data["cluster"]),
        core_counts=tuple(data["core_counts"]),
        seed=data["seed"],
        config=config_from_dict(data["config"]),
        reference_suite=data["reference_suite"],
        faults=plan_from_dict(faults) if faults is not None else None,
    )
