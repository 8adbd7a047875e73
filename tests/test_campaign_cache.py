"""Result-cache tests: canonical keying, the hit/miss/invalidation books,
validation-aware membership, and multi-process sharing.

The concurrency contracts pinned here:

* ``put`` stages under a per-writer unique name, so concurrent writers of
  the same key (different processes, one cache directory) can never tear
  each other's entries or crash on a vanished staging file;
* readers racing those writers see either a miss or a complete valid
  entry — never a torn read, never a spurious invalidation;
* ``in`` / ``len`` report *usable* entries (valid for this cache's code
  version), without touching the stats books or deleting anything.
"""

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign import (
    CampaignJob,
    CampaignRunner,
    ClusterRef,
    ResultCache,
    cache_key,
    canonical_json,
)
from repro.exceptions import ReproError
from repro.experiments import PAPER_CONFIG


@pytest.fixture
def job():
    return CampaignJob(job_id="j1", cluster=ClusterRef(kind="preset", name="fire"))


class TestCanonicalJson:
    def test_dataclasses_become_sorted_objects(self, job):
        text = canonical_json(job)
        data = json.loads(text)
        assert data["job_id"] == "j1"
        assert data["cluster"]["name"] == "fire"
        # canonical form: no whitespace, keys sorted
        assert " " not in text
        assert list(data) == sorted(data)

    def test_tuples_and_lists_agree(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_rejects_unserializable_values(self):
        with pytest.raises(ReproError):
            canonical_json(object())

    def test_key_is_stable_across_calls(self, job):
        assert cache_key(job) == cache_key(job)

    def test_key_changes_with_any_field(self, job):
        assert cache_key(job) != cache_key(dataclasses.replace(job, seed=1))
        assert cache_key(job) != cache_key(
            dataclasses.replace(job, config=dataclasses.replace(PAPER_CONFIG, hpl_rounds=5))
        )

    def test_key_is_sha256_hex(self, job):
        key = cache_key(job)
        assert len(key) == 64
        int(key, 16)  # parses as hex


class TestResultCache:
    def test_miss_then_put_then_hit(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = cache_key(job)
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_entry_path_is_content_addressed(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = cache_key(job)
        path = cache.put(key, {"x": 1})
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.exists()

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.put("cd" + "0" * 62, {"x": 2})
        assert len(cache) == 2
        assert "ab" + "0" * 62 in cache
        assert "ef" + "0" * 62 not in cache

    def test_stale_code_version_is_invalidated(self, tmp_path):
        key = "ab" + "0" * 62
        old = ResultCache(tmp_path, code_version="0.9.0")
        old.put(key, {"x": 1})
        new = ResultCache(tmp_path, code_version="1.0.0")
        assert new.get(key) is None
        assert new.stats.invalidations == 1
        assert new.stats.hits == 0
        # the stale entry was dropped, so the rerun repopulates cleanly
        new.put(key, {"x": 2})
        assert new.get(key) == {"x": 2}

    def test_corrupt_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, {"x": 1})
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1
        assert not path.exists()

    def test_key_mismatch_inside_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = "ab" + "0" * 62
        key_b = "cd" + "0" * 62
        path_a = cache.put(key_a, {"x": 1})
        # simulate a mis-filed entry
        target = cache.path_for(key_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path_a.read_text())
        assert cache.get(key_b) is None
        assert cache.stats.invalidations == 1

    def test_hit_rate_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.get(key)  # miss
        cache.put(key, {"x": 1})
        cache.get(key)  # hit
        cache.get(key)  # hit
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        snapshot = cache.stats.as_dict()
        assert snapshot["hits"] == 2
        assert snapshot["misses"] == 1
        assert snapshot["invalidations"] == 0

    def test_default_code_version_is_library_version(self, tmp_path):
        import repro

        assert ResultCache(tmp_path).code_version == repro.__version__


class TestValidationAwareMembership:
    """``in`` / ``len`` answer "is this entry usable?", not "does a file exist?"."""

    def test_corrupt_entry_is_not_a_member(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, {"x": 1})
        path.write_text("{not json")
        assert key not in cache
        assert len(cache) == 0
        # membership checks are read-only: no deletion, no stats mutation
        assert path.exists()
        assert cache.stats.misses == 0
        assert cache.stats.invalidations == 0
        assert cache.stats.lookups == 0

    def test_stale_code_version_is_not_a_member(self, tmp_path):
        key = "ab" + "0" * 62
        ResultCache(tmp_path, code_version="0.9.0").put(key, {"x": 1})
        new = ResultCache(tmp_path, code_version="1.0.0")
        assert key not in new
        assert len(new) == 0
        assert new.path_for(key).exists()  # still there for get() to reap
        # ... while the writer of that version still counts it
        old = ResultCache(tmp_path, code_version="0.9.0")
        assert key in old
        assert len(old) == 1

    def test_misfiled_entry_is_not_a_member(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = "ab" + "0" * 62
        key_b = "cd" + "0" * 62
        path_a = cache.put(key_a, {"x": 1})
        target = cache.path_for(key_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path_a.read_text())
        assert key_a in cache
        assert key_b not in cache
        assert len(cache) == 1

    def test_empty_cache_is_falsy_but_real(self, tmp_path):
        """``len`` makes an empty cache falsy — callers must test ``is not None``."""
        cache = ResultCache(tmp_path)
        assert not cache
        assert cache is not None

    def test_put_leaves_no_staging_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            cache.put(f"{i:02d}" + "0" * 62, {"x": i})
        stray = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
        assert stray == []
        assert len(cache) == 10


# ---------------------------------------------------------------------------
# Multi-process sharing


def _payload_for(key):
    """Deterministic per-key payload, bulky enough to make torn reads visible."""
    return {"key": key, "blob": key * 40, "n": int(key[:2], 16)}


def _stress_worker(cache_dir, keys, rounds):
    """Hammer one shared cache dir: probe, publish on miss, verify, repeat.

    Runs in a separate process.  Returns (stats dict, error strings) —
    assertions happen in the parent so failures surface as test failures,
    not opaque pool crashes.
    """
    cache = ResultCache(cache_dir)
    errors = []
    for _ in range(rounds):
        for key in keys:
            try:
                value = cache.get(key)
                if value is None:
                    cache.put(key, _payload_for(key))
                    value = cache.get(key)
                if value != _payload_for(key):
                    errors.append(f"torn or foreign payload under {key[:8]}")
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                errors.append(f"{type(exc).__name__}: {exc}")
    return cache.stats.as_dict(), errors


class TestCampaignProbes:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_run_probes_each_job_once(self, tmp_path, workers):
        """The parent's pre-dispatch probe is the only one a job gets."""
        config = dataclasses.replace(
            PAPER_CONFIG,
            core_counts=(16,),
            hpl_problem_size=2240,
            hpl_rounds=1,
            stream_target_seconds=2,
            iozone_target_seconds=2,
        )
        jobs = [
            CampaignJob(
                job_id=f"j{i}",
                cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
                core_counts=(16,),
                seed=i,
                config=config,
            )
            for i in range(2)
        ]
        cache = ResultCache(tmp_path / "cache")
        result = CampaignRunner(workers=workers, cache=cache).run(jobs)
        assert cache.stats.misses == len(jobs)
        assert cache.stats.puts == len(jobs)
        assert result.cache_stats["misses"] == len(jobs)


class TestSharedCacheStress:
    def test_eight_processes_same_keys_one_directory(self, tmp_path):
        """≥8 writers racing on the same keys: no tears, no lost puts."""
        num_workers = 8
        keys = [f"{i:02x}" * 32 for i in range(6)]
        with ProcessPoolExecutor(max_workers=num_workers) as pool:
            outcomes = list(
                pool.map(
                    _stress_worker,
                    [str(tmp_path)] * num_workers,
                    [keys] * num_workers,
                    [5] * num_workers,
                )
            )
        for stats, errors in outcomes:
            assert errors == []
            # a racing reader may only ever see miss-or-valid: any torn
            # read would have surfaced as an invalidation
            assert stats["invalidations"] == 0
            assert stats["hits"] + stats["misses"] > 0
        # every key ends durably present and valid, exactly once
        survivor = ResultCache(tmp_path)
        assert len(survivor) == len(keys)
        for key in keys:
            assert survivor.get(key) == _payload_for(key)
        # at least one worker published each key; duplicates are benign
        total_puts = sum(stats["puts"] for stats, _ in outcomes)
        assert total_puts >= len(keys)
        stray = [
            p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"
        ]
        assert stray == []  # all staging files were renamed or reaped

    def test_two_caches_one_directory_interleaved(self, tmp_path):
        """Same-process sharing: two handles on one dir see each other's puts."""
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        a.put(key, {"x": 1})
        assert b.get(key) == {"x": 1}
        assert b.stats.hits == 1
        assert a.stats.puts == 1
        assert key in a and key in b
