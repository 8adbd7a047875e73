"""Real host-kernel tests (fast sizes)."""

import pytest

from repro.exceptions import BenchmarkError
from repro.kernels import (
    Timer,
    file_write_bandwidth,
    lu_solve_gflops,
    stream_kernels,
    triad_bandwidth,
)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(10000))
        assert t.elapsed_s > 0

    def test_unused_timer_raises(self):
        t = Timer()
        with pytest.raises(RuntimeError):
            _ = t.elapsed_s


class TestLinalgKernel:
    def test_solution_is_accurate(self):
        result = lu_solve_gflops(n=200, rng=0)
        # HPL's acceptance threshold is O(10); a healthy solve is O(0.01)
        assert result.residual < 16.0

    def test_reports_positive_gflops(self):
        result = lu_solve_gflops(n=200, rng=0)
        assert result.gflops > 0

    def test_flop_count_matches_hpl_formula(self):
        result = lu_solve_gflops(n=100, rng=0)
        assert result.flops == pytest.approx(2 / 3 * 100**3 + 2 * 100**2)

    def test_time_grows_superlinearly_with_n(self):
        # Best of three per size: one timing can catch a host stall.
        small = min(lu_solve_gflops(n=150, rng=0).time_s for _ in range(3))
        large = min(lu_solve_gflops(n=600, rng=0).time_s for _ in range(3))
        # 4x n -> 64x flops; even with overheads, time must grow clearly
        assert large > 2 * small

    def test_rejects_tiny_n(self):
        with pytest.raises(BenchmarkError):
            lu_solve_gflops(n=1)


class TestStreamKernels:
    def test_triad_bandwidth_positive(self):
        result = triad_bandwidth(array_elements=200_000, iterations=3)
        assert result.bandwidth > 1e8  # any machine does > 100 MB/s

    def test_traffic_accounting(self):
        result = triad_bandwidth(array_elements=100_000, iterations=5)
        assert result.bytes_moved == 5 * 3 * 8 * 100_000

    def test_all_four_kernels_present(self):
        results = stream_kernels(array_elements=100_000, iterations=2)
        assert set(results) == {"copy", "scale", "add", "triad"}

    def test_copy_counts_two_streams(self):
        results = stream_kernels(array_elements=100_000, iterations=2)
        assert results["copy"].bytes_moved == 2 * 2 * 8 * 100_000
        assert results["add"].bytes_moved == 2 * 3 * 8 * 100_000

    def test_rejects_bad_args(self):
        with pytest.raises(BenchmarkError):
            triad_bandwidth(array_elements=0)


class TestIOKernel:
    def test_writes_and_cleans_up(self, tmp_path):
        result = file_write_bandwidth(
            file_bytes=1024 * 1024, record_bytes=64 * 1024, directory=str(tmp_path)
        )
        assert result.bandwidth > 0
        assert list(tmp_path.iterdir()) == []  # temp file removed

    def test_fsync_flag_recorded(self, tmp_path):
        result = file_write_bandwidth(
            file_bytes=256 * 1024, fsync=False, directory=str(tmp_path)
        )
        assert result.fsynced is False

    def test_partial_tail_record(self, tmp_path):
        result = file_write_bandwidth(
            file_bytes=1000, record_bytes=300, directory=str(tmp_path)
        )
        assert result.file_bytes == 1000

    def test_record_larger_than_file_clamped(self, tmp_path):
        result = file_write_bandwidth(
            file_bytes=100, record_bytes=1000, directory=str(tmp_path)
        )
        assert result.record_bytes == 100

    def test_rejects_zero_bytes(self):
        with pytest.raises(BenchmarkError):
            file_write_bandwidth(file_bytes=0)
