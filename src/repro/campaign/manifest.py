"""Machine-readable run manifests.

Every campaign writes (or at least builds) a manifest: which jobs ran,
under which cache keys, what each cost, what the payloads hashed to, and
how the cache behaved.  Two campaigns that did the same *work* produce
manifests that agree on everything except execution circumstances — wall
times, timestamps, worker counts, cache statuses — so reproducibility
checks reduce to comparing :func:`manifest_core` (the manifest with the
volatile fields stripped) byte-for-byte, or just :func:`manifest_fingerprint`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from ..exceptions import ReproError
from ..serialization import atomic_write_text
from .cache import cache_key

__all__ = [
    "MANIFEST_VERSION",
    "VOLATILE_CAMPAIGN_FIELDS",
    "VOLATILE_JOB_FIELDS",
    "manifest_core",
    "manifest_fingerprint",
    "write_manifest",
    "load_manifest",
]

#: Schema version written into every manifest.
MANIFEST_VERSION = 1

#: Top-level fields that describe *how* a campaign ran, not *what* it computed.
VOLATILE_CAMPAIGN_FIELDS = (
    "created_unix",
    "total_wall_s",
    "workers_requested",
    "workers_used",
    "cache",
    "cache_run",
    "cache_enabled",
    # Observability summary: spans/metrics describe execution, never results.
    "telemetry",
    # Flight-recorder block: journal path/digest/event count describe one
    # specific execution; journaled and bare runs must fingerprint alike.
    "journal",
    # Power-timeline block: artifact directory and count describe where
    # observability output landed; captured and bare runs must
    # fingerprint alike.
    "timeline",
    # Failure accounting: a warm cache skips executions, so retry counts
    # differ between cold and warm runs of the same campaign.
    "failures",
    # Execution block: transport and resume recovery describe one
    # execution; inline, pooled and resumed runs must fingerprint alike.
    "execution",
    # The execution block's name in manifests written by older code;
    # kept so those manifests still re-fingerprint to their stored value.
    "sharding",
    # Not volatile, but derived from the core — excluded so that
    # recomputing manifest_fingerprint(manifest) reproduces the stored one.
    "fingerprint",
)

#: Per-job fields that vary run-to-run without the results changing.
#: ``attempts`` depends on cache warmth; ``error`` tracebacks differ
#: between the pool and serial call stacks.  ``status`` is *not* here —
#: whether a job succeeded is part of what the campaign computed.
VOLATILE_JOB_FIELDS = ("wall_s", "cache_status", "attempts", "error")


def manifest_core(manifest: Dict) -> Dict:
    """The reproducible core of a manifest: volatile fields removed.

    Serial vs. parallel runs, and cold vs. warm-cache runs, of the same
    campaign have identical cores (the determinism contract the test tier
    enforces).
    """
    core = {k: v for k, v in manifest.items() if k not in VOLATILE_CAMPAIGN_FIELDS}
    core["jobs"] = [
        {k: v for k, v in job.items() if k not in VOLATILE_JOB_FIELDS}
        for job in manifest.get("jobs", [])
    ]
    return core


def manifest_fingerprint(manifest: Dict) -> str:
    """SHA-256 over the canonical JSON of :func:`manifest_core`."""
    return cache_key(manifest_core(manifest))


def write_manifest(manifest: Dict, path: Union[str, Path]) -> None:
    """Write a manifest as stable, human-diffable JSON (atomically)."""
    atomic_write_text(Path(path), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path: Union[str, Path]) -> Dict:
    """Read a manifest back, checking the schema version."""
    manifest = json.loads(Path(path).read_text())
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ReproError(
            f"manifest version {version!r} not supported "
            f"(this library reads version {MANIFEST_VERSION})"
        )
    return manifest
