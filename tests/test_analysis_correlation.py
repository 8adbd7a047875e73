"""Correlation tests (Eq. 17)."""

import math

import numpy as np
import pytest
import scipy.stats

from repro.analysis import correlation_matrix, pearson, spearman
from repro.exceptions import MetricError


class TestPearson:
    def test_perfect_positive(self):
        x = [1, 2, 3, 4]
        assert pearson(x, [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        y = 0.3 * x + rng.standard_normal(50)
        ours = pearson(x, y)
        theirs = scipy.stats.pearsonr(x, y).statistic
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_shift_and_scale_invariant(self):
        x = [1.0, 5.0, 2.0, 8.0]
        y = [0.2, 0.9, 0.4, 0.7]
        assert pearson(x, y) == pytest.approx(pearson([10 * v + 3 for v in x], y))

    def test_constant_series_rejected(self):
        with pytest.raises(MetricError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(MetricError):
            pearson([1], [2])

    def test_non_finite_rejected(self):
        with pytest.raises(MetricError):
            pearson([1, np.nan, 3], [1, 2, 3])

    def test_clamped_to_unit_interval(self):
        x = np.linspace(0, 1, 10)
        assert -1.0 <= pearson(x, x) <= 1.0

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_full_precision_at_any_spread(self, scale):
        # Squared deviations of 1e-160 underflow and of 1e160 overflow
        # float64; the coefficient must not notice.
        x = np.array([1.0, 2.0, 4.0, 3.0])
        y = [1.0, 2.0, 3.0, 4.0]
        expected = pearson(x, y)
        assert abs(pearson(scale * x, y) - expected) <= 4 * math.ulp(expected)


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = [1, 2, 3, 4, 5]
        y = [v**3 for v in x]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_matches_scipy_with_ties(self):
        x = [1, 2, 2, 3, 5, 5, 7]
        y = [2, 1, 4, 4, 6, 8, 8]
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_reversal_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


class TestCorrelationMatrix:
    def test_table_two_shape(self):
        series = {"IOzone": [1, 2, 3, 4], "HPL": [1, 3, 2, 1]}
        targets = {"am": [1, 2, 3, 4], "energy": [2, 3, 3, 2]}
        matrix = correlation_matrix(series, targets)
        assert set(matrix) == {"IOzone", "HPL"}
        assert set(matrix["IOzone"]) == {"am", "energy"}
        assert matrix["IOzone"]["am"] == pytest.approx(1.0)

    def test_spearman_method(self):
        series = {"a": [1, 2, 3]}
        targets = {"t": [1, 8, 27]}
        matrix = correlation_matrix(series, targets, method="spearman")
        assert matrix["a"]["t"] == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(MetricError):
            correlation_matrix({"a": [1, 2]}, {"b": [1, 2]}, method="kendall")


class TestTieHandling:
    """Midrank ties from memoized identical systems (fleet rankings)."""

    def test_heavy_ties_match_scipy(self):
        # Memoized fleets: long runs of identical scores.
        x = [1.0] * 40 + [2.0] * 40 + [3.0] * 20
        y = [5.0] * 30 + [4.0] * 50 + [6.0] * 20
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y).statistic
        assert np.isfinite(ours)
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_midranks_match_scipy_rankdata(self):
        from repro.analysis.correlation import _ranks

        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=200).astype(float)
        ours = _ranks(values)
        theirs = scipy.stats.rankdata(values, method="average")
        assert np.array_equal(ours, theirs)

    def test_single_tie_run_plus_one(self):
        from repro.analysis.correlation import _ranks

        # [7, 7, 7, 9]: the 7s share midrank 2, the 9 gets 4.
        assert _ranks(np.array([7.0, 7.0, 7.0, 9.0])).tolist() == [2, 2, 2, 4]

    def test_all_distinct_is_permutation(self):
        from repro.analysis.correlation import _ranks

        rng = np.random.default_rng(11)
        values = rng.permutation(50).astype(float)
        assert sorted(_ranks(values).tolist()) == list(range(1, 51))

    def test_constant_series_raises_not_nan(self):
        # A fully-memoized fleet (every score identical) has no rank order;
        # the statistic must refuse loudly instead of returning NaN.
        with pytest.raises(MetricError):
            spearman([4.0] * 10, list(range(10)))
        with pytest.raises(MetricError):
            spearman(list(range(10)), [4.0] * 10)

    def test_two_level_ties_still_defined(self):
        rho = spearman([1, 1, 2, 2], [2, 2, 1, 1])
        assert rho == pytest.approx(-1.0)
