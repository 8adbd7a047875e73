"""Content-addressed on-disk result cache.

A campaign job is addressed by the SHA-256 of its canonical JSON
serialization (:func:`canonical_json`: frozen dataclasses -> sorted-key
JSON, tuples -> lists).  The cache stores one file per key under a
two-level fan-out (``<dir>/<key[:2]>/<key>.json``): a header line naming
the entry layout, the key, the code version that produced the payload and
the SHA-256 of the payload's canonical text, then that text byte for byte.
Entries written by a different code version or layout, mis-filed under
another key, or whose text no longer hashes to the header's digest are
*invalidated* on read (counted and deleted), so the effective address is
``(job, code version)`` while stale or damaged entries remain observable
in the accounting instead of silently shadowing fresh results.

The cache never deserializes payloads into live objects — it deals in the
same JSON-compatible dicts :mod:`repro.serialization` produces — so a hit
is a file read, the header checks, one SHA-256 over the stored bytes and
one ``json.loads``.  A hit hands back the payload together with its
digest (:class:`CacheHit`), so nothing serializes a served payload again.

One cache directory may be shared by many processes (pool workers of one
campaign, or several campaigns/hosts on a shared filesystem): writers
stage entries under unique per-writer temp names and publish with an
atomic rename, so readers never observe half a file and concurrent
writers of the same key never clobber each other's staging file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .. import telemetry as tele
from ..exceptions import ReproError

__all__ = [
    "canonical_json",
    "canonical_digest",
    "cache_key",
    "CacheHit",
    "CacheStats",
    "ResultCache",
    "CACHE_ENTRY_VERSION",
]

#: Layout version of on-disk cache entries (2: digest header + canonical text).
CACHE_ENTRY_VERSION = 2


def _dataclass_fields(obj):
    """``json.dumps`` hook: a dataclass instance becomes the dict of its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)
        }
    raise ReproError(
        f"cannot canonically serialize {type(obj).__name__!r} for cache keying"
    )


def canonical_json(obj) -> str:
    """Stable JSON text for hashing: sorted keys, no whitespace drift.

    Dataclass instances serialize as objects of their fields and tuples as
    lists; anything else that is not JSON-native raises
    :class:`~repro.exceptions.ReproError`.  Dict keys must be strings:
    ``json`` renders other keys its own way (``True`` as ``"true"``, ints
    sorted numerically), and no campaign job, payload or manifest has any.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_dataclass_fields
    )


def canonical_digest(obj) -> Tuple[str, str]:
    """``obj``'s canonical JSON text and the SHA-256 hex digest of that text."""
    text = canonical_json(obj)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(obj) -> str:
    """SHA-256 hex digest of an object's canonical serialization."""
    return canonical_digest(obj)[1]


class CacheHit(NamedTuple):
    """What :meth:`ResultCache.get` serves: the payload and its digest."""

    payload: Dict
    #: SHA-256 hex digest of the payload's canonical JSON text.
    payload_sha256: str


@dataclasses.dataclass
class CacheStats:
    """Cumulative accounting over the lifetime of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses + self.invalidations

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when nothing was looked up)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot for manifests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Filesystem-backed cache of campaign job payloads.

    Parameters
    ----------
    directory:
        Root directory; created on first write.
    code_version:
        Version stamp written into every entry and checked on read.
        Defaults to the library version — bump it (or pass a custom stamp
        covering e.g. a model calibration hash) to invalidate en masse.
    """

    def __init__(self, directory: Union[str, Path], *, code_version: Optional[str] = None):
        from .. import __version__

        self.directory = Path(directory)
        self.code_version = code_version or __version__
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where an entry for ``key`` lives (whether or not it exists)."""
        return self.directory / key[:2] / f"{key}.json"

    def _read_entry(self, key: str) -> Optional[CacheHit]:
        """The entry for ``key`` if present *and* valid, else ``None``.

        Valid means: the header and the body parse, the header names this
        layout's entry version, this cache's code version and ``key``
        itself, and the body still hashes to the header's digest — so an
        entry edited or cut short on disk is never served.  Pure read: no
        stats mutation, no deletion.  This is the single validation
        predicate — ``get`` layers accounting and stale-entry cleanup on
        top of it, and ``__contains__``/``__len__`` use it directly so
        membership always agrees with what ``get`` would actually serve.
        """
        path = self.path_for(key)
        try:
            head, body = path.read_bytes().split(b"\n", 1)
            header = json.loads(head)
            if (
                not isinstance(header, dict)
                or header.get("entry_version") != CACHE_ENTRY_VERSION
                or header.get("code_version") != self.code_version
                or header.get("key") != key
                or header.get("payload_sha256") != hashlib.sha256(body).hexdigest()
            ):
                return None
            # Only a body that passed every header check is parsed.
            return CacheHit(json.loads(body), header["payload_sha256"])
        except (OSError, ValueError):
            return None

    def get(self, key: str) -> Optional[CacheHit]:
        """The cached payload and its digest, or ``None`` (miss/invalidated)."""
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            tele.count("tgi_cache_lookups_total", result="miss")
            return None
        entry = self._read_entry(key)
        if entry is None:
            # Stale, damaged or corrupt: drop it so the rerun's put() replaces it.
            self.stats.invalidations += 1
            tele.count("tgi_cache_lookups_total", result="invalidated")
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        tele.count("tgi_cache_lookups_total", result="hit")
        return entry

    def put(self, key: str, text: str, payload_sha256: str) -> Path:
        """Store a payload's canonical text under ``key``; returns the entry path.

        ``text`` and ``payload_sha256`` are the pair :func:`canonical_digest`
        returns for the payload; the text is written as is, not serialized
        again.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "entry_version": CACHE_ENTRY_VERSION,
            "key": key,
            "code_version": self.code_version,
            "payload_sha256": payload_sha256,
        }
        # Unique per-writer staging name: a shared name (the old
        # ``path.with_suffix(".tmp")``) let one writer's replace() yank the
        # file out from under another writer of the same key mid-write.
        # The ``.tmp`` suffix keeps stragglers out of the ``*/*.json`` scan.
        tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            tmp.write_text(
                json.dumps(header, sort_keys=True) + "\n" + text, encoding="utf-8"
            )
            tmp.replace(path)  # atomic publish: readers never see half a file
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.stats.puts += 1
        tele.count("tgi_cache_puts_total")
        return path

    @property
    def cache_stats(self) -> Dict[str, float]:
        """The accounting snapshot (same shape campaign manifests embed)."""
        return self.stats.as_dict()

    def __contains__(self, key: str) -> bool:
        """Whether ``get(key)`` would hit (validated, stats untouched)."""
        return self._read_entry(key) is not None

    def __len__(self) -> int:
        """Number of entries ``get`` would serve (stale/corrupt excluded)."""
        if not self.directory.exists():
            return 0
        return sum(
            1
            for path in self.directory.glob("*/*.json")
            if self._read_entry(path.stem) is not None
        )
