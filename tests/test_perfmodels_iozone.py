"""IOzone performance-model tests."""

import pytest

from repro.exceptions import BenchmarkError
from repro.perfmodels import IOzoneModel
from repro.perfmodels.iozone import CACHE_BANDWIDTH


@pytest.fixture
def model(fire):
    return IOzoneModel(cluster=fire)


class TestDeviceRate:
    def test_below_raw_device(self, model, fire):
        assert model.device_rate() < fire.node.storage.seq_write_bandwidth

    def test_filesystem_efficiency_applied(self, model, fire):
        assert model.device_rate() == pytest.approx(
            fire.node.storage.seq_write_bandwidth * 0.92
        )


class TestCacheWindow:
    def test_default_window_quarter_of_ram(self, model, fire):
        assert model.effective_cache_window() == pytest.approx(
            0.25 * fire.node.memory_bytes
        )

    def test_small_file_inflated_rate(self, fire):
        """A file inside the cache window reports near-memory bandwidth —
        the classic IOzone artifact."""
        model = IOzoneModel(cluster=fire)
        pred = model.predict(1, file_bytes=4e9)
        assert pred.per_node_bandwidth == pytest.approx(CACHE_BANDWIDTH)

    def test_huge_file_approaches_device_rate(self, model):
        pred = model.predict(1, file_bytes=100 * model.effective_cache_window())
        assert pred.per_node_bandwidth == pytest.approx(model.device_rate(), rel=0.05)

    def test_measured_rate_between_device_and_cache(self, model):
        pred = model.predict(1, file_bytes=2 * model.effective_cache_window())
        assert model.device_rate() < pred.per_node_bandwidth < CACHE_BANDWIDTH


class TestPrediction:
    def test_aggregate_linear_in_nodes(self, model):
        p1 = model.predict(1, file_bytes=64e9)
        p8 = model.predict(8, file_bytes=64e9)
        assert p8.aggregate_bandwidth == pytest.approx(8 * p1.aggregate_bandwidth)

    def test_time_independent_of_node_count(self, model):
        t1 = model.predict(1, file_bytes=64e9).time_s
        t8 = model.predict(8, file_bytes=64e9).time_s
        assert t1 == pytest.approx(t8)

    def test_node_overflow_rejected(self, model):
        with pytest.raises(BenchmarkError):
            model.predict(9, file_bytes=1e9)

    def test_zero_file_rejected(self, model):
        with pytest.raises(BenchmarkError):
            model.predict(1, file_bytes=0)

    def test_file_size_for_time_roundtrip(self, model):
        size = model.file_size_for_time(45.0)
        pred = model.predict(1, file_bytes=size)
        assert pred.time_s == pytest.approx(45.0, rel=1e-6)

    def test_file_size_for_short_time_inside_window(self, fire):
        model = IOzoneModel(cluster=fire)
        size = model.file_size_for_time(1.0)  # 1 s at cache speed = 2 GB
        assert size == pytest.approx(2e9)

