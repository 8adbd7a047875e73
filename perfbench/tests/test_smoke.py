"""Smoke tests of the benchmark: one timed op per workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

Each workload's op must pass its check, a tampered output must count as a
failed op, and a traced op must record calls at every boundary the
workload is meant to move (and none in its idle layers).
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tamper_paper(output):
    output["table2"].matrix["HPL"]["arithmetic-mean"] = 0.5
    return output


def _tamper_fleet(output):
    return dataclasses.replace(output, rows=output.rows[::-1])


def _tamper_cold(output):
    output[0].manifest["cache"]["puts"] = 7
    return output


def _tamper_warm(output):
    output[0].manifest["fingerprint"] = "0" * 64
    return output


TAMPER = {
    "paper_repro": _tamper_paper,
    "fleet_rank": _tamper_fleet,
    "campaign_cold": _tamper_cold,
    "campaign_warm": _tamper_warm,
}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    """One set-up probe per run keeps a one-op smoke run short."""
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


def _one_op(name, workdir, **kwargs):
    return harness.measure(name, 3, 0, False, workdir, **kwargs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_passes_and_tampered_output_fails(name, tmp_path):
    clean = _one_op(name, tmp_path / "clean")["result"]
    assert clean["correct"], clean
    assert (clean["attempted"], clean["failed"]) == (2, 0)
    assert clean["metrics"]["op_s"]["value"] > 0
    assert clean["metrics"]["setup_s"]["value"] > 0

    bad = _one_op(name, tmp_path / "bad", tamper=TAMPER[name])["result"]
    assert not bad["correct"]
    assert (bad["attempted"], bad["failed"]) == (2, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_covers_its_layers(name, tmp_path):
    out = harness.measure(name, 3, 0, True, tmp_path / "run")
    assert out["result"]["correct"], out["diagnostics"]["errors"]
    metrics = out["result"]["metrics"]
    assert set(metrics) == set(tracing.PER_LAYER) | {
        "trace.op_s",
        "trace.overhead",
        "trace.spans",
    }


def test_wrappers_reach_every_import_by_name():
    for factory in WORKLOADS.values():
        factory().load()
    tracer = tracing.Tracer()
    expected = {
        "fleet.evaluate": "repro.fleet.pipeline.evaluate_fleet",
        "analysis.bootstrap": "repro.experiments.uncertainty.bootstrap_pearson_ci",
        "cluster.topology": "repro.cluster.presets.fat_tree_topology",
        "campaign.cache_key": "repro.campaign.runner.cache_key",
        "campaign.build_manifest": "repro.campaign.runner.build_manifest",
    }
    for boundary, site in expected.items():
        assert site in tracer.sites(boundary), (boundary, tracer.sites(boundary))
    assert "repro.fleet.pipeline.bootstrap_pearson_ci" in tracer.sites("analysis.bootstrap")
    assert "repro.cluster.cluster.star_topology" in tracer.sites("cluster.topology")


def test_coverage_flags_missing_and_unexpected_calls():
    totals = tracing.Totals(calls={"sim.execute": 3}, self_s={}, info={}, ops=1)
    errors = tracing.coverage_errors(totals, moves=["fleet.rank"], silent=["sim"])
    assert len(errors) == 2
    assert "fleet.rank recorded no calls" in errors[0]
    assert errors[1].startswith("sim should do no work")
