"""Result-cache tests: canonical keying, the hit/miss/invalidation books,
validation-aware membership, payload digests, and multi-process sharing.

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
import hashlib
import json
import re
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignJob,
    CampaignRunner,
    ClusterRef,
    ResultCache,
    cache_key,
    canonical_json,
    execute_job,
    fleet_jobs,
    manifest_core,
    paper_jobs,
)
from repro.campaign import cache as cache_module
from repro.campaign.cache import canonical_digest
from repro.exceptions import ReproError
from repro.experiments import PAPER_CONFIG
from repro.faults import FaultPlan
from repro.serialization import sweep_result_from_dict, sweep_result_to_dict

from .oracles import canonical_json_walk


@pytest.fixture
def job():
    return CampaignJob(job_id="j1", cluster=ClusterRef(kind="preset", name="fire"))


_TEXT = st.one_of(
    st.text(max_size=8), st.sampled_from(["Grün", "東京", "⚡💡", 'a"\\\n\x00'])
)
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, float("nan")]))

#: JSON-native values with string keys; tuples stand in for lists.
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)

_CLUSTER_REFS = st.one_of(
    st.builds(
        ClusterRef,
        kind=st.just("preset"),
        name=st.sampled_from(["fire", "system_g", "gpu_cluster", "modern_cluster"]),
        num_nodes=st.integers(0, 512),
    ),
    st.builds(
        ClusterRef,
        kind=st.just("generated"),
        name=_TEXT,
        era=st.sampled_from(["2008", "2011", "2015", "2021"]),
        seed=st.integers(0, 2**32),
    ),
)

_FAULT_PLANS = st.builds(
    FaultPlan,
    transient_failures=st.integers(0, 3),
    transient_probability=st.floats(0.0, 1.0),
    meter_dropout=st.floats(0.0, 0.99),
    node_crash_probability=st.floats(0.0, 1.0),
    containment=st.sampled_from(["job", "benchmark"]),
    seed=st.integers(0, 2**31),
)

_JOBS = st.builds(
    CampaignJob,
    job_id=st.text(min_size=1, max_size=8),
    cluster=_CLUSTER_REFS,
    core_counts=st.lists(st.integers(0, 4096), max_size=4).map(tuple),
    seed=st.integers(0, 2**63),
    reference_suite=st.booleans(),
    faults=st.none() | _FAULT_PLANS,
)


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

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_json_values_match_the_recursive_walk(self, value):
        assert canonical_json(value) == canonical_json_walk(value)

    @settings(max_examples=100, deadline=None)
    @given(_JOBS)
    def test_drawn_jobs_match_the_recursive_walk(self, drawn):
        assert canonical_json(drawn) == canonical_json_walk(drawn)

    @pytest.mark.parametrize(
        "campaign_job", paper_jobs() + fleet_jobs(50), ids=lambda j: j.job_id
    )
    def test_campaign_jobs_match_the_recursive_walk(self, campaign_job):
        assert canonical_json(campaign_job) == canonical_json_walk(campaign_job)

    def test_manifest_core_matches_the_recursive_walk(self):
        manifest = CampaignRunner().run(paper_jobs()).manifest
        text = canonical_json_walk(manifest_core(manifest))
        assert canonical_json(manifest_core(manifest)) == text
        assert manifest["fingerprint"] == hashlib.sha256(text.encode()).hexdigest()


class TestResultCache:
    def test_miss_then_put_then_hit(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = cache_key(job)
        assert cache.get(key) is None
        cache.put(key, *canonical_digest({"x": 1}))
        assert cache.get(key).payload == {"x": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_entry_path_is_content_addressed(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = cache_key(job)
        path = cache.put(key, *canonical_digest({"x": 1}))
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.exists()

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("ab" + "0" * 62, *canonical_digest({"x": 1}))
        cache.put("cd" + "0" * 62, *canonical_digest({"x": 2}))
        assert len(cache) == 2
        assert "ab" + "0" * 62 in cache
        assert "ef" + "0" * 62 not in cache

    def test_stale_code_version_is_invalidated(self, tmp_path):
        key = "ab" + "0" * 62
        ResultCache(tmp_path, code_version="0.9.0").put(key, *canonical_digest({"x": 1}))
        new = ResultCache(tmp_path, code_version="1.0.0")
        assert new.get(key) is None
        assert new.stats.invalidations == 1
        assert new.stats.hits == 0
        # the stale entry was dropped, so the rerun repopulates cleanly
        new.put(key, *canonical_digest({"x": 2}))
        assert new.get(key).payload == {"x": 2}

    def test_corrupt_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, *canonical_digest({"x": 1}))
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1
        assert not path.exists()

    def test_key_mismatch_inside_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = "ab" + "0" * 62
        key_b = "cd" + "0" * 62
        path_a = cache.put(key_a, *canonical_digest({"x": 1}))
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
        cache.put(key, *canonical_digest({"x": 1}))
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

    def test_hit_carries_the_digest_of_the_canonical_text(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        payload = {"b": [1, 2.5], "a": "Grün"}
        cache.put(key, *canonical_digest(payload))
        hit = cache.get(key)
        assert hit.payload == payload
        assert hit.payload_sha256 == cache_key(payload)
        # the entry is a header line, then the canonical text that was hashed
        header, body = cache.path_for(key).read_text(encoding="utf-8").split("\n")
        assert body == canonical_json(payload)
        assert json.loads(header)["payload_sha256"] == hit.payload_sha256


def _entry_version_1(cache, key):
    """An entry in the layout version 1 wrote: one JSON object, payload inline."""
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "entry_version": 1,
        "key": key,
        "code_version": cache.code_version,
        "payload": {"x": 1},
    }
    path.write_text(json.dumps(entry, sort_keys=True))
    return path


def _body_cut_midway(cache, key):
    """A current entry whose payload text was cut short on disk."""
    path = cache.put(key, *canonical_digest({"x": 1, "blob": "y" * 200}))
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + body[: len(body) // 2])
    return path


class TestEntryMigration:
    """Old-layout and damaged entries are invalidated once, then recomputed."""

    @pytest.mark.parametrize("write", [_entry_version_1, _body_cut_midway])
    def test_entry_is_invalidated_and_excluded(self, tmp_path, write):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = write(cache, key)
        assert key not in cache
        assert len(cache) == 0
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 0
        assert not path.exists()


class TestPayloadDigest:
    """Each payload is serialized and hashed once, where it is computed."""

    def test_edited_payload_is_recomputed_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        clean = CampaignRunner(cache=cache).run(paper_jobs())
        kept, edited = clean.outcomes
        path = cache.path_for(edited.key)
        text = path.read_text()
        # one measured number changes; the entry stays valid JSON
        tampered = re.sub(r'("performance":\s?)(\d)', r"\g<1>1\2", text, count=1)
        assert tampered != text
        path.write_text(tampered)
        assert edited.key not in cache
        assert kept.key in cache

        rerun = CampaignRunner(cache=ResultCache(tmp_path)).run(paper_jobs())
        outcome = rerun[edited.job.job_id]
        assert outcome.cache_status == "computed"
        assert rerun[kept.job.job_id].cache_status == "hit"
        assert rerun.manifest["cache_run"]["invalidations"] == 1
        assert outcome.payload == edited.payload
        assert [row["payload_sha256"] for row in rerun.manifest["jobs"]] == [
            row["payload_sha256"] for row in clean.manifest["jobs"]
        ]
        assert rerun.manifest["fingerprint"] == clean.manifest["fingerprint"]

    def test_warm_run_serializes_no_payload(self, tmp_path, monkeypatch):
        serialized = []
        canonical = cache_module.canonical_json

        def spy(obj):
            if isinstance(obj, dict) and "sweep" in obj:
                serialized.append(obj["job_id"])
            return canonical(obj)

        monkeypatch.setattr(cache_module, "canonical_json", spy)
        jobs = paper_jobs()
        cache = ResultCache(tmp_path)
        cold = CampaignRunner(cache=cache).run(jobs)
        assert sorted(serialized) == sorted(job.job_id for job in jobs)
        serialized.clear()
        warm = CampaignRunner(cache=cache).run(jobs)
        assert warm.cache_hits == len(jobs)
        assert serialized == []
        assert warm.manifest["fingerprint"] == cold.manifest["fingerprint"]


def _not_json_native(value, path="payload"):
    """Paths of every value whose type is not exactly a JSON one."""
    found = []
    if type(value) not in (dict, list, str, int, float, bool, type(None)):
        found.append(f"{path}: {type(value).__name__}")
    if isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str:
                found.append(f"{path} key {key!r}")
            found += _not_json_native(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            found += _not_json_native(item, f"{path}[{index}]")
    return found


class TestJsonNativePayloads:
    """An executed payload is plain JSON data, so its one serialization is
    the canonical dump: no normalizing round trip is needed for a computed
    payload to equal the one the cache serves back."""

    @pytest.mark.parametrize("job", paper_jobs() + fleet_jobs(1), ids=lambda job: job.job_id)
    def test_payload_holds_only_json_values(self, tmp_path, job):
        payload = execute_job(job)
        assert _not_json_native(payload) == []
        text, digest = canonical_digest(payload)
        assert json.loads(text) == payload
        cache = ResultCache(tmp_path)
        cache.put(cache_key(job), text, digest)
        hit = cache.get(cache_key(job))
        assert hit.payload == payload
        assert hit.payload_sha256 == digest

    def test_the_serializer_writes_json_values(self):
        job = paper_jobs()[1]
        payload = execute_job(job)
        # rebuilt objects, serialized again with no JSON pass in between
        sweep = sweep_result_from_dict(payload["sweep"], cluster=job.cluster.resolve())
        rewritten = sweep_result_to_dict(sweep)
        assert _not_json_native(rewritten) == []
        assert rewritten == payload["sweep"]


class TestValidationAwareMembership:
    """``in`` / ``len`` answer "is this entry usable?", not "does a file exist?"."""

    def test_corrupt_entry_is_not_a_member(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, *canonical_digest({"x": 1}))
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
        ResultCache(tmp_path, code_version="0.9.0").put(key, *canonical_digest({"x": 1}))
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
        path_a = cache.put(key_a, *canonical_digest({"x": 1}))
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
            cache.put(f"{i:02d}" + "0" * 62, *canonical_digest({"x": i}))
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
                    cache.put(key, *canonical_digest(_payload_for(key)))
                    value = cache.get(key)
                if value is None or value.payload != _payload_for(key):
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
            assert survivor.get(key).payload == _payload_for(key)
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
        a.put(key, *canonical_digest({"x": 1}))
        assert b.get(key).payload == {"x": 1}
        assert b.stats.hits == 1
        assert a.stats.puts == 1
        assert key in a and key in b
