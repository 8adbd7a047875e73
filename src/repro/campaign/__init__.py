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
    :class:`CampaignRunner` — the one executor: cache probe, job-order
    dispatch (inline, or on one process pool), and journal-replay crash
    resume (see ``docs/distributed_campaigns.md``) — and
    :class:`CampaignResult`.
:mod:`~repro.campaign.manifest`
    Machine-readable run manifests and their reproducibility fingerprint.

Quick tour:

>>> from repro.campaign import CampaignRunner, ResultCache, fleet_jobs
>>> runner = CampaignRunner(workers=4, cache=ResultCache("~/.cache/tgi"))
>>> result = runner.run(fleet_jobs(50))          # doctest: +SKIP
>>> result.manifest["cache_run"]["hit_rate"]     # doctest: +SKIP
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "cache": ("CacheStats", "ResultCache", "cache_key", "canonical_json"),
        "jobs": (
            "CampaignJob",
            "ClusterRef",
            "execute_job",
            "fleet_jobs",
            "job_from_dict",
            "job_to_dict",
            "paper_jobs",
            "payload_sweep",
        ),
        "manifest": (
            "MANIFEST_VERSION",
            "load_manifest",
            "manifest_core",
            "manifest_fingerprint",
            "write_manifest",
        ),
        "runner": (
            "CampaignResult",
            "CampaignRunner",
            "JobOutcome",
            "WorkItem",
            "WorkResult",
            "build_manifest",
            "check_jobs",
            "execute_work_item",
            "run_cache_stats",
        ),
    },
)
