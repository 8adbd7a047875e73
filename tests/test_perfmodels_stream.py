"""STREAM performance-model tests."""

import pytest

from repro.exceptions import BenchmarkError
from repro.perfmodels import StreamModel
from repro.perfmodels.stream import ARRAY_ELEMENTS


@pytest.fixture
def model(fire):
    return StreamModel(cluster=fire)


class TestNodeBandwidth:
    def test_single_rank_gets_per_core_rate(self, model):
        assert model.node_bandwidth(1) == pytest.approx(model.per_core_bandwidth())

    def test_scales_linearly_below_saturation(self, model):
        bw2 = model.node_bandwidth(2)
        bw4 = model.node_bandwidth(4)
        assert bw4 == pytest.approx(2 * bw2)

    def test_saturates_at_node_limit(self, model, fire):
        full = model.node_bandwidth(fire.node.cores)
        assert full == pytest.approx(fire.node.sustained_memory_bandwidth)

    def test_never_exceeds_sustained(self, model, fire):
        for k in range(1, fire.node.cores + 1):
            assert model.node_bandwidth(k) <= fire.node.sustained_memory_bandwidth * (1 + 1e-9)

    def test_monotone_in_ranks(self, model, fire):
        rates = [model.node_bandwidth(k) for k in range(1, fire.node.cores + 1)]
        assert rates == sorted(rates)

    def test_ranks_spread_over_sockets(self, model, fire):
        """2 ranks on a 2-socket node use one core per socket, doubling
        the single-socket rate rather than contending."""
        assert model.node_bandwidth(2) == pytest.approx(2 * model.per_core_bandwidth())

    def test_overflow_rejected(self, model, fire):
        with pytest.raises(BenchmarkError):
            model.node_bandwidth(fire.node.cores + 1)


class TestPrediction:
    def test_aggregate_scales_with_ranks_below_saturation(self, model):
        p16 = model.predict(16)
        p32 = model.predict(32)
        assert p32.aggregate_bandwidth == pytest.approx(2 * p16.aggregate_bandwidth)

    def test_time_independent_of_rank_count_below_saturation(self, model):
        # each rank streams its own array at the same per-core rate
        t16 = model.predict(16).time_s
        t32 = model.predict(32).time_s
        assert t16 == pytest.approx(t32)

    def test_triad_traffic_accounting(self, model):
        pred = model.predict(16, iterations=10)
        bytes_per_rank = 10 * ARRAY_ELEMENTS * 24
        assert pred.time_s == pytest.approx(bytes_per_rank / pred.per_rank_bandwidth)

    def test_iterations_for_time(self, model):
        iters = model.iterations_for_time(45.0, 64)
        t = model.predict(64, iterations=iters).time_s
        assert t == pytest.approx(45.0, rel=0.1)

    def test_too_many_ranks_rejected(self, model, fire):
        with pytest.raises(BenchmarkError):
            model.predict(fire.total_cores + 1)

    def test_per_rank_bandwidth(self, model):
        pred = model.predict(32)
        assert pred.per_rank_bandwidth == pytest.approx(pred.aggregate_bandwidth / 32)
