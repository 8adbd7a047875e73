"""FleetRankingPipeline: routing, fallback, diagnostics, journal, CLI."""

import dataclasses
import json

import pytest

from repro.campaign import ClusterRef, fleet_jobs
from repro.cluster.generator import generate_fleet
from repro.exceptions import FleetError, ReproError
from repro.experiments import PAPER_CONFIG
from repro.fleet import (
    FleetMember,
    FleetRankingPipeline,
    generated_fleet_members,
    parse_weight_spec,
)

QUICK = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2.0,
    iozone_target_seconds=2.0,
)


def quick_pipeline(**kwargs):
    return FleetRankingPipeline(config=QUICK, **kwargs)


class TestRouting:
    def test_generated_members_take_batched_path(self):
        members = generated_fleet_members(5, era="2011", fleet_seed=1)
        ranking = quick_pipeline().rank(members)
        assert ranking.stats["batched"] == 5
        assert ranking.stats["simulated"] == 0
        assert all(r.path == "batched" for r in ranking.rows)

    def test_accelerated_member_falls_back_to_simulation(self):
        members = generated_fleet_members(3, era="2011", fleet_seed=1)
        members.append(
            FleetMember(
                name="gpu-box",
                cluster=ClusterRef(kind="preset", name="gpu_cluster"),
                meter_seed=5,
            )
        )
        ranking = quick_pipeline().rank(members)
        assert ranking.stats["batched"] == 3
        assert ranking.stats["simulated"] == 1
        assert ranking.row("gpu-box").path == "simulated"

    def test_full_sim_forces_campaign_path(self):
        members = generated_fleet_members(3, era="2011", fleet_seed=1)
        ranking = quick_pipeline(full_sim=True, workers=1).rank(members)
        assert ranking.stats["batched"] == 0
        assert ranking.stats["simulated"] == 3
        assert all(r.path == "simulated" for r in ranking.rows)

    def test_raw_specs_rank_inline(self):
        fleet = generate_fleet(4, era="2015", seed=2)
        ranking = quick_pipeline().rank(fleet)
        assert len(ranking) == 4
        assert [r.tgi_rank for r in ranking.rows] == [1, 2, 3, 4]

    def test_raw_spec_needing_simulation_rejected(self):
        from repro.cluster import presets

        with pytest.raises(FleetError):
            quick_pipeline().rank([presets.gpu_cluster()])

    def test_batched_and_sim_agree_on_rank_values(self):
        """Same fleet through both legs: TGI within meter noise."""
        members = generated_fleet_members(4, era="2011", fleet_seed=1)
        fast = quick_pipeline().rank(members)
        slow = quick_pipeline(full_sim=True).rank(members)
        for name in (m.name for m in members):
            assert fast.row(name).tgi == pytest.approx(
                slow.row(name).tgi, rel=0.15
            )


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(FleetError):
            quick_pipeline().rank([])

    def test_duplicate_names_rejected(self):
        fleet = generate_fleet(2, era="2011", seed=3)
        with pytest.raises(FleetError):
            quick_pipeline().rank([fleet[0], fleet[0]])

    def test_reserved_reference_name_rejected(self):
        spec = generate_fleet(1, era="2011", seed=3)[0]
        clone = dataclasses.replace(spec, name="reference", topology=spec.topology)
        with pytest.raises(FleetError):
            quick_pipeline().rank([clone])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: quick_pipeline(chunk_size=0), "chunk_size must be >= 1"),
            (lambda: quick_pipeline(workers=0), "workers must be >= 1"),
            (lambda: fleet_jobs(-1), "fleet size must be >= 0"),
        ],
        ids=["chunk_size", "workers", "fleet_jobs"],
    )
    def test_bad_chunk_size_rejected(self, build, message):
        with pytest.raises(ReproError, match=message):
            build()

    def test_chunking_is_value_invariant(self):
        members = generated_fleet_members(7, era="2011", fleet_seed=9)
        whole = quick_pipeline().rank(members)
        chunked = quick_pipeline(chunk_size=2).rank(members)
        assert [r.name for r in whole.rows] == [r.name for r in chunked.rows]
        for a, b in zip(whole.rows, chunked.rows):
            assert a.tgi == b.tgi


class TestWeights:
    def test_parse_weight_spec_normalizes(self):
        weights = parse_weight_spec("HPL=2,STREAM=1,IOzone=1")
        assert weights["HPL"] == pytest.approx(0.5)
        assert sum(weights.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", ["", "HPL", "HPL=x", "HPL=-1,STREAM=0,IOzone=0"])
    def test_bad_weight_specs_rejected(self, bad):
        with pytest.raises(FleetError):
            parse_weight_spec(bad)

    def test_weights_change_the_ranking_inputs(self):
        members = generated_fleet_members(6, era="2011", fleet_seed=2)
        equal = quick_pipeline().rank(members)
        hpl_only = quick_pipeline(weights={"HPL": 1.0}).rank(members)
        # All weight on HPL makes TGI rank collapse onto the FLOPS/W rank.
        assert all(r.moved == 0 for r in hpl_only.rows)
        assert equal.weights["HPL"] == pytest.approx(1 / 3)
        assert hpl_only.weights == {"HPL": 1.0}

    def test_row_tgi_is_weighted_ree_sum(self):
        members = generated_fleet_members(3, era="2011", fleet_seed=2)
        ranking = quick_pipeline().rank(members)
        for row in ranking.rows:
            expected = sum(
                ranking.weights[b] * row.ree[b] for b in ranking.weights
            )
            assert row.tgi == pytest.approx(expected, rel=1e-12)


class TestDiagnostics:
    def test_healthy_fleet_has_full_diagnostics(self):
        members = generated_fleet_members(8, era="2011", fleet_seed=5)
        diag = quick_pipeline().rank(members).diagnostics
        assert diag.spearman_rho is not None
        assert -1.0 <= diag.spearman_rho <= 1.0
        assert diag.pearson_ci is not None
        assert diag.pearson_ci.low <= diag.pearson_r <= diag.pearson_ci.high
        assert diag.tgi_mean_ci is not None
        assert diag.notes == ()

    def test_clone_fleet_degrades_gracefully(self):
        """Memoized identical systems: constant scores must not NaN out."""
        spec = generate_fleet(1, era="2011", seed=4)[0]
        clones = [
            dataclasses.replace(spec, name=f"c{i}", topology=spec.topology)
            for i in range(4)
        ]
        ranking = quick_pipeline().rank(clones)
        diag = ranking.diagnostics
        # Ranks are still a deterministic permutation (name tie-break), so
        # Spearman survives; the value-space Pearson is degenerate and says so.
        assert diag.spearman_rho is not None
        assert diag.pearson_r is None
        assert any("pearson" in note for note in diag.notes)
        # The constant-TGI mean interval collapses to a point.
        assert diag.tgi_mean_ci is not None
        assert diag.tgi_mean_ci.low == diag.tgi_mean_ci.high

    def test_as_dict_is_json_compatible(self):
        members = generated_fleet_members(4, era="2011", fleet_seed=5)
        payload = quick_pipeline().rank(members).as_dict()
        parsed = json.loads(json.dumps(payload))
        assert len(parsed["rows"]) == 4
        assert parsed["rows"][0]["tgi_rank"] == 1
        assert set(parsed["weights"]) == {"HPL", "STREAM", "IOzone"}


class TestJournalIntegration:
    def test_fleet_ranked_event_emitted(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        members = generated_fleet_members(3, era="2011", fleet_seed=1)
        quick_pipeline(journal=journal).rank(members)
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        ranked = [e for e in events if e["event"] == "fleet.ranked"]
        assert len(ranked) == 1
        assert ranked[0]["systems"] == 3
        assert ranked[0]["batched"] == 3
        assert ranked[0]["simulated"] == 0
        assert ranked[0]["wall_s"] > 0
        # The pipeline finalized its own journal: summary sidecar exists.
        assert journal.with_name("fleet.jsonl.summary.json").exists()

    def test_campaign_leg_events_share_the_journal(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        members = generated_fleet_members(2, era="2011", fleet_seed=1)
        quick_pipeline(journal=journal, full_sim=True).rank(members)
        kinds = {
            json.loads(line)["event"]
            for line in journal.read_text().splitlines()
        }
        assert "fleet.ranked" in kinds
        assert "job.completed" in kinds

    def test_cache_reused_across_rankings(self, tmp_path):
        members = generated_fleet_members(2, era="2011", fleet_seed=1)
        pipe = quick_pipeline(full_sim=True, cache_dir=tmp_path / "cache")
        first = pipe.rank(members)
        second = pipe.rank(members)
        assert first.stats["cache_hits"] == 0
        assert second.stats["cache_hits"] == 3  # 2 systems + reference


class TestCLI:
    def test_fleet_rank_json_round_trip(self, capsys):
        from repro.cli import main

        code = main(
            ["--quiet", "fleet", "rank", "--count", "5", "--fleet-seed", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 5
        assert payload["stats"]["batched"] == 5
        assert payload["rows"][0]["tgi_rank"] == 1

    def test_fleet_rank_table_mode(self, capsys):
        from repro.cli import main

        code = main(["--quiet", "fleet", "rank", "--count", "4", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TGI rank" in out
        assert "MFLOPS/W" in out

    def test_weights_and_reference_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--quiet",
                "fleet",
                "rank",
                "--count",
                "3",
                "--weights",
                "HPL=1",
                "--reference",
                "fire",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == {"HPL": 1.0}
        assert payload["reference"] == "Fire"

    @pytest.mark.parametrize(
        "argv",
        [["--reference", "fire:zz"], ["--count", "5", "--top", "-1"]],
        ids=["reference", "top"],
    )
    def test_bad_reference_spec_errors_cleanly(self, argv, capsys):
        from repro.cli import main

        assert main(["--quiet", "fleet", "rank", *argv]) == 1
