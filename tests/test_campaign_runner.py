"""Campaign executor tests: jobs, determinism, manifests, caching.

The determinism tests are the contract the ISSUE demands: the same campaign
run serial vs. parallel, and cold vs. warm-cache, yields byte-identical
manifests modulo the volatile timing fields, and identical result payloads.
All campaigns here use a deliberately tiny config so the whole module costs
a few seconds.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignJob,
    CampaignRunner,
    ClusterRef,
    ResultCache,
    cache_key,
    execute_job,
    fleet_jobs,
    job_from_dict,
    job_to_dict,
    load_manifest,
    manifest_core,
    manifest_fingerprint,
    paper_jobs,
    payload_sweep,
)
from repro.cluster.generator import generate_fleet
from repro.core import ReferenceSet
from repro.exceptions import ReproError
from repro.experiments import PAPER_CONFIG, SharedContext

#: A cheap config: 2-point sweep, small HPL, short targets.
QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    core_counts=(16, 32),
    hpl_problem_size=4480,
    hpl_rounds=2,
    stream_target_seconds=5,
    iozone_target_seconds=5,
)


def quick_jobs():
    return paper_jobs(QUICK_CONFIG)


@pytest.fixture(scope="module")
def cold_run():
    """One serial, uncached campaign shared by the comparison tests."""
    return CampaignRunner(workers=1).run(quick_jobs())


class TestClusterRef:
    def test_preset_resolves(self):
        spec = ClusterRef(kind="preset", name="fire").resolve()
        assert spec.name == "Fire"
        assert spec.num_nodes == 8

    def test_preset_num_nodes_override(self):
        spec = ClusterRef(kind="preset", name="system_g", num_nodes=4).resolve()
        assert spec.num_nodes == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError):
            ClusterRef(kind="preset", name="cray1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            ClusterRef(kind="imaginary")

    def test_generated_ref_matches_fleet_member(self):
        fleet = generate_fleet(3, era="2011", seed=42)
        jobs = fleet_jobs(3, era="2011", fleet_seed=42)
        for cluster, job in zip(fleet, jobs):
            assert job.cluster.resolve() == cluster


class TestCampaignJob:
    def test_empty_id_rejected(self):
        with pytest.raises(ReproError):
            CampaignJob(job_id="")

    def test_negative_cores_rejected(self):
        with pytest.raises(ReproError):
            CampaignJob(job_id="j", core_counts=(-1,))

    def test_job_roundtrips_through_dict(self):
        job = quick_jobs()[1]
        assert job_from_dict(job_to_dict(job)) == job

    def test_roundtrip_preserves_cache_key(self):
        job = quick_jobs()[0]
        assert cache_key(job_from_dict(job_to_dict(job))) == cache_key(job)


class TestExecuteJob:
    def test_payload_rebuilds_sweep(self):
        job = CampaignJob(
            job_id="j",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
            core_counts=(8, 16),
            seed=7,
            config=QUICK_CONFIG,
        )
        payload = execute_job(job)
        assert payload["cluster_name"] == "Fire"
        sweep = payload_sweep(payload)
        assert sweep.cores == [8, 16]
        assert all(e > 0 for e in sweep.efficiency_series("HPL"))

    def test_empty_core_counts_means_full_machine(self):
        job = CampaignJob(
            job_id="j",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
            seed=7,
            config=QUICK_CONFIG,
        )
        sweep = payload_sweep(execute_job(job))
        assert sweep.cores == [32]  # 2 nodes x 16 cores

    def test_execution_is_deterministic(self):
        job = quick_jobs()[1]
        assert execute_job(job) == execute_job(job)

    def test_bad_payload_version_rejected(self):
        with pytest.raises(ReproError):
            payload_sweep({"payload_version": 99, "sweep": {}})


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ReproError):
            CampaignRunner(workers=0)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ReproError):
            CampaignRunner().run([])

    def test_duplicate_job_ids_rejected(self):
        job = quick_jobs()[0]
        with pytest.raises(ReproError):
            CampaignRunner().run([job, job])

    def test_unknown_job_id_lookup(self, cold_run):
        with pytest.raises(KeyError):
            cold_run["nope"]

    def test_suite_accessor_rejects_multi_point_jobs(self, cold_run):
        with pytest.raises(ReproError):
            cold_run.suite("fire-sweep")


class TestDeterminism:
    def test_serial_vs_parallel_payloads_identical(self, cold_run):
        parallel = CampaignRunner(workers=2).run(quick_jobs())
        assert [o.payload for o in parallel] == [o.payload for o in cold_run]

    def test_serial_vs_parallel_manifest_core_byte_identical(self, cold_run):
        parallel = CampaignRunner(workers=2).run(quick_jobs())
        serial_bytes = json.dumps(manifest_core(cold_run.manifest), sort_keys=True)
        parallel_bytes = json.dumps(manifest_core(parallel.manifest), sort_keys=True)
        assert serial_bytes == parallel_bytes
        assert manifest_fingerprint(cold_run.manifest) == manifest_fingerprint(
            parallel.manifest
        )

    def test_cold_vs_warm_cache_manifests_agree(self, tmp_path, cold_run):
        jobs = quick_jobs()
        cold = CampaignRunner(workers=1, cache=ResultCache(tmp_path)).run(jobs)
        warm = CampaignRunner(workers=1, cache=ResultCache(tmp_path)).run(jobs)
        assert warm.manifest["cache_run"]["hit_rate"] >= 0.9  # all hits, in fact
        assert [o.cache_status for o in warm] == ["hit", "hit"]
        assert [o.payload for o in warm] == [o.payload for o in cold]
        # byte-identical modulo volatile fields, and identical to uncached runs
        assert json.dumps(manifest_core(warm.manifest), sort_keys=True) == json.dumps(
            manifest_core(cold.manifest), sort_keys=True
        )
        assert manifest_fingerprint(warm.manifest) == manifest_fingerprint(
            cold_run.manifest
        )

    def test_rng_stream_isolation_between_jobs(self, cold_run):
        """Jobs seed fresh executors: running one job alone gives the same
        numbers as running it inside a larger campaign."""
        alone = execute_job(quick_jobs()[1])
        assert alone == cold_run["fire-sweep"].payload


class TestManifest:
    def test_schema_fields(self, cold_run):
        manifest = cold_run.manifest
        assert manifest["manifest_version"] == 1
        assert manifest["cache_enabled"] is False
        assert manifest["cache"] is None
        assert {"jobs", "attempts", "hits", "misses", "invalidations", "hit_rate"} == set(
            manifest["cache_run"]
        )
        assert manifest["telemetry"] is None  # no session active in tests
        assert len(manifest["jobs"]) == 2
        row = manifest["jobs"][1]
        assert row["job_id"] == "fire-sweep"
        assert len(row["key"]) == 64
        assert len(row["payload_sha256"]) == 64
        assert row["cluster_name"] == "Fire"
        assert row["cache_status"] == "uncached"
        assert row["wall_s"] >= 0
        assert job_from_dict(row["spec"]) == quick_jobs()[1]

    def test_fingerprint_is_recomputable(self, cold_run):
        manifest = cold_run.manifest
        assert manifest["fingerprint"] == manifest_fingerprint(manifest)

    def test_write_and_load_roundtrip(self, tmp_path, cold_run):
        path = tmp_path / "manifest.json"
        cold_run.write_manifest(path)
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(cold_run.manifest))  # via-JSON equality

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"manifest_version": 99}))
        with pytest.raises(ReproError):
            load_manifest(path)

    def test_cache_statuses_reported_when_caching(self, tmp_path):
        result = CampaignRunner(workers=1, cache=ResultCache(tmp_path)).run(quick_jobs())
        assert [j["cache_status"] for j in result.manifest["jobs"]] == [
            "computed",
            "computed",
        ]
        assert result.manifest["cache"]["puts"] == 2


class TestSharedContextIntegration:
    def test_campaign_backed_context_matches_serial(self, cold_run):
        """``tgi campaign`` and ``tgi run all`` describe the same numbers."""
        context = SharedContext(QUICK_CONFIG)
        campaign_sweep = cold_run.sweep("fire-sweep")
        for bench in ("HPL", "STREAM", "IOzone"):
            assert np.array_equal(
                context.sweep.efficiency_series(bench),
                campaign_sweep.efficiency_series(bench),
            )
        reference = ReferenceSet.from_suite_result(
            cold_run.suite("reference"),
            system_name=cold_run["reference"].payload["cluster_name"],
        )
        assert context.reference.as_dict() == reference.as_dict()
        assert context.reference.system_name == reference.system_name
