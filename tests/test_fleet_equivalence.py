"""Property-based equivalence: the vectorized fleet path vs the scalar
oracle in ``tests/oracles.py``, across all four eras (hypothesis).

This is the fleet layer's analogue of ``test_engine_equivalence.py``: the
scalar per-system path is the semantic definition, the batched path must
match it within 1e-9 relative on every score, energy, and the final rank
order (ties broken deterministically by name).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.generator import generate_fleet
from repro.experiments import PAPER_CONFIG
from repro.fleet import FLEET_BENCHMARKS, FleetRankingPipeline, evaluate_fleet

from .oracles import scalar_fleet

QUICK = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2.0,
    iozone_target_seconds=2.0,
)

_FIELDS = ("performance", "time_s", "power_w", "energy_j", "efficiency")

eras = st.sampled_from(("2008", "2011", "2015", "2021"))


class TestScoreEquivalence:
    @given(era=eras, count=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar(self, era, count, seed):
        fleet = generate_fleet(count, era=era, seed=seed)
        batched = evaluate_fleet(fleet, QUICK)
        scalar = scalar_fleet(fleet, QUICK)
        for b in FLEET_BENCHMARKS:
            for field in _FIELDS:
                got = getattr(batched.scores[b], field)
                want = getattr(scalar.scores[b], field)
                assert np.allclose(got, want, rtol=1e-9, atol=0.0), (b, field)

    @given(era=eras, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_capability_reference_sizing_matches(self, era, seed):
        fleet = generate_fleet(2, era=era, seed=seed)
        batched = evaluate_fleet(fleet, QUICK, reference=True)
        scalar = scalar_fleet(fleet, QUICK, reference=True)
        for b in FLEET_BENCHMARKS:
            assert np.allclose(
                batched.scores[b].efficiency,
                scalar.scores[b].efficiency,
                rtol=1e-9,
                atol=0.0,
            )


class TestRankEquivalence:
    @given(era=eras, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rank_order_identical(self, era, seed):
        """Same fleet, batched path vs the pipeline scoring through the
        scalar oracle: identical list, 1e-9 TGI."""
        fleet = generate_fleet(8, era=era, seed=seed)
        fast = FleetRankingPipeline(config=QUICK).rank(fleet)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.fleet.pipeline.evaluate_fleet", scalar_fleet)
            slow = FleetRankingPipeline(config=QUICK).rank(fleet)
        assert [r.name for r in fast.rows] == [r.name for r in slow.rows]
        for a, b in zip(fast.rows, slow.rows):
            assert a.tgi == pytest.approx(b.tgi, rel=1e-9)
            assert a.flops_rank == b.flops_rank
            assert a.weakest == b.weakest

    def test_clone_ties_break_by_name(self):
        """Identical systems: deterministic, name-ordered ranks."""
        spec = generate_fleet(1, era="2011", seed=4)[0]
        clones = [
            dataclasses.replace(spec, name=f"clone-{i}", topology=spec.topology)
            for i in (3, 0, 2, 1)
        ]
        ranking = FleetRankingPipeline(config=QUICK).rank(clones)
        assert [r.name for r in ranking.rows] == [
            "clone-0",
            "clone-1",
            "clone-2",
            "clone-3",
        ]
        assert len({r.tgi for r in ranking.rows}) == 1
        assert [r.tgi_rank for r in ranking.rows] == [1, 2, 3, 4]
