"""Bootstrap / jackknife uncertainty tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bootstrap_mean_ci,
    bootstrap_pearson_ci,
    jackknife_pearson,
    pearson,
)
from repro.analysis import bootstrap as bootstrap_module
from repro.analysis.correlation import _pearson_rows
from repro.exceptions import MetricError


# The scalar Eq. 17 and the per-resample loops the row-wise kernel replaced,
# kept as the oracle the kernel must match bit for bit.
def oracle_pearson(x, y):
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    return max(-1.0, min(1.0, float(dx @ dy) / (sx * sy)))


def oracle_bootstrap_bounds(x, y, resamples, gen, confidence=0.95):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    stats, redraws = [], 0
    while len(stats) < resamples:
        idx = gen.integers(0, x.size, size=x.size)
        xs, ys = x[idx], y[idx]
        if np.ptp(xs) == 0 or np.ptp(ys) == 0:
            redraws += 1
            if redraws > bootstrap_module._MAX_REDRAWS:
                raise MetricError("too many degenerate bootstrap resamples")
            continue
        stats.append(oracle_pearson(xs, ys))
    alpha = (1.0 - confidence) / 2.0
    return tuple(np.quantile(stats, [alpha, 1.0 - alpha]).tolist())


def oracle_jackknife(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return [
        (i, oracle_pearson(np.delete(x, i), np.delete(y, i))) for i in range(x.size)
    ]


#: Finite values whose deviations, squares and cross products stay normal
#: floats, so the old formula neither underflows nor overflows.
_VALUES = st.floats(min_value=-1e6, max_value=1e6).map(
    lambda v: v if abs(v) >= 1e-6 else 0.0
)


@st.composite
def row_pairs(draw):
    rows, n = draw(st.integers(1, 6)), draw(st.integers(2, 24))
    cells = st.lists(_VALUES, min_size=rows * n, max_size=rows * n)
    return (
        np.array(draw(cells)).reshape(rows, n),
        np.array(draw(cells)).reshape(rows, n),
    )


@st.composite
def series_pairs(draw):
    n = draw(st.integers(3, 12))
    series = st.lists(_VALUES, min_size=n, max_size=n)
    return draw(series), draw(series)


class TestBootstrapCI:
    def test_interval_contains_estimate_for_clean_data(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 40)
        y = x + 0.05 * rng.standard_normal(40)
        ci = bootstrap_pearson_ci(x, y, rng=1)
        assert ci.low <= ci.estimate <= ci.high

    def test_deterministic_given_seed(self):
        x = [1, 2, 3, 4, 5, 6, 7, 8]
        y = [2, 1, 4, 3, 6, 5, 8, 7]
        a = bootstrap_pearson_ci(x, y, rng=5)
        b = bootstrap_pearson_ci(x, y, rng=5)
        assert (a.low, a.high) == (b.low, b.high)

    def test_tight_relationship_gives_narrow_interval(self):
        x = np.linspace(0, 1, 50)
        exact = bootstrap_pearson_ci(x, 3 * x + 1, rng=0)
        noisy_y = x + np.random.default_rng(0).standard_normal(50)
        noisy = bootstrap_pearson_ci(x, noisy_y, rng=0)
        assert exact.width < noisy.width

    def test_eight_point_interval_is_wide(self):
        """The honesty check on Table II: with only 8 scale points even a
        strong-looking r = 0.58 has a CI spanning tens of points."""
        x = list(range(8))
        y = [61.6, 84.5, 89.9, 90.9, 90.0, 88.2, 86.0, 83.7]  # Fig-2 shape
        ci = bootstrap_pearson_ci(x, y, rng=2)
        assert ci.width > 0.2

    def test_bounds_within_valid_range(self):
        x = [1, 2, 3, 4, 5, 6, 7, 8]
        y = [1, 3, 2, 5, 4, 7, 6, 8]
        ci = bootstrap_pearson_ci(x, y, rng=3)
        assert -1.0 <= ci.low <= ci.high <= 1.0

    def test_contains_helper(self):
        x = np.linspace(0, 1, 30)
        ci = bootstrap_pearson_ci(x, 2 * x, rng=0)
        assert ci.contains(1.0)
        assert not ci.contains(-1.0)

    def test_bad_confidence_rejected(self):
        with pytest.raises(MetricError):
            bootstrap_pearson_ci([1, 2, 3], [1, 2, 3], confidence=1.0)

    def test_too_few_resamples_rejected(self):
        with pytest.raises(MetricError):
            bootstrap_pearson_ci([1, 2, 3], [1, 2, 3], resamples=5)


class TestJackknife:
    def test_values_near_full_sample_for_smooth_data(self):
        x = np.linspace(0, 1, 20)
        y = x + 0.01 * np.sin(10 * x)
        full = pearson(x, y)
        for _, r in jackknife_pearson(x, y):
            assert r == pytest.approx(full, abs=0.02)

    def test_detects_influential_point(self):
        """One outlier manufactures the correlation; removing it collapses
        the coefficient — the jackknife flags this."""
        x = [0, 0.1, 0.05, 0.12, 0.03, 10.0]
        y = [0.02, 0.0, 0.11, 0.07, 0.05, 10.0]
        values = dict(jackknife_pearson(x, y))
        without_outlier = values[5]
        with_outlier = pearson(x, y)
        assert with_outlier > 0.99
        assert without_outlier < 0.7

    def test_entry_count(self):
        out = jackknife_pearson([1, 2, 3, 4], [4, 3, 2, 1])
        assert [i for i, _ in out] == [0, 1, 2, 3]

    def test_needs_three_points(self):
        with pytest.raises(MetricError):
            jackknife_pearson([1, 2], [2, 1])


class TestRowKernelMatchesTheOracle:
    @given(pair=row_pairs())
    @settings(max_examples=200, deadline=None)
    def test_kernel_rows_equal_the_scalar_formula(self, pair):
        xs, ys = pair
        live = (np.ptp(xs, axis=1) > 0) & (np.ptp(ys, axis=1) > 0)
        assume(live.any())
        want = [oracle_pearson(x, y) for x, y in zip(xs[live], ys[live])]
        assert _pearson_rows(xs[live], ys[live]).tolist() == want

    def test_zero_deviation_row_is_nan(self):
        rows = _pearson_rows(np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]]),
                             np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
        assert np.isnan(rows[0]) and rows[1] == pytest.approx(-0.5)

    @given(pair=series_pairs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bootstrap_bounds_and_generator_state_equal_the_loop(self, pair, seed):
        x, y = pair
        try:
            pearson(x, y)
        except MetricError:
            assume(False)
        gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = oracle_bootstrap_bounds(x, y, 50, oracle_gen)
        except MetricError:
            with pytest.raises(MetricError):
                bootstrap_pearson_ci(x, y, resamples=50, rng=gen)
            return
        ci = bootstrap_pearson_ci(x, y, resamples=50, rng=gen)
        assert (ci.low, ci.high) == want
        assert gen.bit_generator.state == oracle_gen.bit_generator.state

    @pytest.mark.parametrize("block_elements", [16, 1 << 16])
    @pytest.mark.parametrize(
        "x, y",
        [
            # Tie-heavy: about a third of the resamples are redrawn.
            ([1, 1, 1, 1, 1, 1, 2, 2], [1, 2, 3, 4, 5, 6, 7, 8]),
            ([1, 2, 3, 4, 5, 6, 7, 8], [2, 1, 4, 3, 6, 5, 8, 7]),
            (list(range(8)), [61.6, 84.5, 89.9, 90.9, 90.0, 88.2, 86.0, 83.7]),
        ],
    )
    def test_blocks_draw_exactly_the_loops_resamples(
        self, monkeypatch, block_elements, x, y
    ):
        # With 16 elements a block is two 8-point resamples, so redraws
        # cross block boundaries.
        monkeypatch.setattr(bootstrap_module, "_BLOCK_ELEMENTS", block_elements)
        gen, oracle_gen = np.random.default_rng(11), np.random.default_rng(11)
        ci = bootstrap_pearson_ci(x, y, resamples=500, rng=gen)
        assert (ci.low, ci.high) == oracle_bootstrap_bounds(x, y, 500, oracle_gen)
        assert gen.bit_generator.state == oracle_gen.bit_generator.state

    def test_too_many_redraws_still_raise(self):
        # One outlier each, at different positions: ~60% of resamples have
        # a constant series, so 2,000 good ones need ~3,000 redraws.
        x = [0.0] * 19 + [1.0]
        y = [1.0] + [0.0] * 19
        with pytest.raises(MetricError, match="degenerate"):
            oracle_bootstrap_bounds(x, y, 2000, np.random.default_rng(0))
        with pytest.raises(MetricError, match="degenerate"):
            bootstrap_pearson_ci(x, y, rng=0)

    @given(pair=series_pairs())
    @settings(max_examples=100, deadline=None)
    def test_jackknife_equals_the_loop(self, pair):
        x, y = pair
        for series in (x, y):
            assume(all(np.ptp(np.delete(series, i)) > 0 for i in range(len(series))))
        assert jackknife_pearson(x, y) == oracle_jackknife(x, y)

    def test_jackknife_raises_when_dropping_a_point_leaves_a_constant(self):
        with pytest.raises(MetricError, match="constant"):
            jackknife_pearson([1, 1, 1, 2], [1, 2, 3, 4])
        with pytest.raises(MetricError, match="constant"):
            jackknife_pearson([1, 2, 3, 4], [5, 7, 7, 7])


class TestBootstrapMemory:
    """Fleet-sized draws (n = 2,000 systems, 1,000 resamples) stay small."""

    @pytest.mark.parametrize(
        "bootstrap",
        [
            lambda x, y: bootstrap_pearson_ci(x, y, resamples=1000, rng=0),
            lambda x, y: bootstrap_mean_ci(x, resamples=1000, rng=0),
        ],
        ids=["pearson", "mean"],
    )
    def test_peak_allocation_under_8_mib(self, bootstrap):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000)
        y = 0.5 * x + rng.standard_normal(2000)
        tracemalloc.start()
        try:
            bootstrap(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
