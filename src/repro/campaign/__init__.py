"""Campaign execution: parallel fan-out, result caching, run manifests.

Every interesting study in this repository — weight sensitivity, DVFS
sweeps, Green500-style lists, reference-system sensitivity — is an
O(systems x benchmarks x configs) *campaign* of independent measurements.
This package is the substrate that runs them at scale:

:mod:`~repro.campaign.jobs`
    :class:`CampaignJob` / :class:`ClusterRef` — pure, picklable units of
    work — and :func:`execute_job`, the single function both the process
    pool and the cache address.
:mod:`~repro.campaign.cache`
    :class:`ResultCache` — content-addressed on-disk payload cache with
    hit/miss/invalidation accounting.
:mod:`~repro.campaign.runner`
    :class:`CampaignRunner` — the one executor: cache probe, sharded
    work-stealing dispatch over a transport-shaped worker API (inline or
    process pool), and journal-replay crash resume — and
    :class:`CampaignResult`.
:mod:`~repro.campaign.manifest`
    Machine-readable run manifests and their reproducibility fingerprint.
:mod:`~repro.campaign.scheduler`
    The pure, deterministic shard plan (:func:`shard_of`,
    :func:`plan_shards`); see ``docs/distributed_campaigns.md``.

Quick tour:

>>> from repro.campaign import CampaignRunner, ResultCache, fleet_jobs
>>> runner = CampaignRunner(workers=4, cache=ResultCache("~/.cache/tgi"))
>>> result = runner.run(fleet_jobs(50))          # doctest: +SKIP
>>> result.manifest["cache_run"]["hit_rate"]     # doctest: +SKIP
"""

from .cache import CacheStats, ResultCache, cache_key, canonical_json
from .jobs import (
    CampaignJob,
    ClusterRef,
    execute_job,
    fleet_jobs,
    job_from_dict,
    job_to_dict,
    paper_jobs,
    payload_sweep,
)
from .manifest import (
    MANIFEST_VERSION,
    load_manifest,
    manifest_core,
    manifest_fingerprint,
    write_manifest,
)
from .runner import (
    CampaignResult,
    CampaignRunner,
    InlineTransport,
    JobOutcome,
    ProcessPoolTransport,
    WorkerTransport,
    WorkItem,
    WorkResult,
    build_manifest,
    check_jobs,
    execute_work_item,
    run_cache_stats,
)
from .scheduler import ShardPlan, plan_shards, shard_of

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "CampaignJob",
    "ClusterRef",
    "execute_job",
    "fleet_jobs",
    "job_from_dict",
    "job_to_dict",
    "paper_jobs",
    "payload_sweep",
    "MANIFEST_VERSION",
    "load_manifest",
    "manifest_core",
    "manifest_fingerprint",
    "write_manifest",
    "CampaignResult",
    "CampaignRunner",
    "JobOutcome",
    "run_cache_stats",
    "check_jobs",
    "build_manifest",
    "shard_of",
    "ShardPlan",
    "plan_shards",
    "WorkItem",
    "WorkResult",
    "execute_work_item",
    "WorkerTransport",
    "InlineTransport",
    "ProcessPoolTransport",
]
