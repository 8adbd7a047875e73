"""Cache-hit bench: a warm campaign rerun is reads, not recomputation.

``tgi campaign`` over a filled result cache executes nothing: each job is
keyed, probed and served from its entry (one file read, the header
checks, a SHA-256 over the stored payload text and one ``json.loads``),
and the manifest takes every payload digest from the entry instead of
serializing the payload again.  The scenario times exactly that rerun
over the paper campaign plus a six-system fleet, the eight jobs the
repository benchmark's ``campaign_warm`` workload runs.  The fill is
set-up, done once outside the timed region; its cost is a cold campaign.
"""

import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, ResultCache, fleet_jobs, paper_jobs
from repro.perfwatch import MetricSpec, scenario

FLEET_SIZE = 6


def _filled_cache():
    """(temporary directory, jobs, fill fingerprint) of one cold campaign."""
    tmp = tempfile.TemporaryDirectory(prefix="tgi-warm-cache-")
    jobs = paper_jobs() + fleet_jobs(FLEET_SIZE)
    fill = CampaignRunner(cache=ResultCache(Path(tmp.name))).run(jobs, label="warm-bench")
    return tmp, jobs, fill.manifest["fingerprint"]


@scenario(
    "campaign.warm_hits",
    description="warm campaign rerun: 8 jobs served from a filled result cache",
    setup=_filled_cache,
    metrics=(
        MetricSpec(
            "hits",
            unit="jobs",
            direction="higher",
            help="jobs served from the cache (all 8; a miss means the cache stopped serving)",
        ),
    ),
)
def warm_hits_scenario(state):
    tmp, jobs, fingerprint = state
    result = CampaignRunner(cache=ResultCache(Path(tmp.name))).run(jobs, label="warm-bench")
    if result.cache_hits != len(jobs):
        raise RuntimeError(f"warm rerun hit {result.cache_hits} of {len(jobs)} jobs")
    if result.manifest["fingerprint"] != fingerprint:
        raise RuntimeError("warm rerun fingerprint differs from the fill's")
    return {"hits": float(result.cache_hits)}

