"""Property-based tests on the metric layer (hypothesis)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import pearson
from repro.core import tgi_from_components, validate_weights
from repro.core.efficiency import energy_efficiency
from repro.core.ree import relative_efficiency
from repro.exceptions import MetricError

from .oracles import weighted_arithmetic_mean

positive = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)

BENCHES = ("HPL", "STREAM", "IOzone")


@st.composite
def ree_dicts(draw):
    return {name: draw(positive) for name in BENCHES}


@st.composite
def weight_dicts(draw):
    raw = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in BENCHES]
    total = sum(raw)
    if total == 0:
        raw = [1.0] * len(BENCHES)
        total = float(len(BENCHES))
    return {name: r / total for name, r in zip(BENCHES, raw)}


class TestTGIProperties:
    @given(ree=ree_dicts(), weights=weight_dicts())
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_ree_extremes(self, ree, weights):
        """A convex combination can never leave [min REE, max REE]
        (up to floating-point rounding of the weighted sum)."""
        tgi = tgi_from_components(ree, weights)
        lo, hi = min(ree.values()), max(ree.values())
        assert lo * (1 - 1e-9) - 1e-9 <= tgi <= hi * (1 + 1e-9) + 1e-9

    @given(ree=ree_dicts(), weights=weight_dicts(), scale=positive)
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_in_ree(self, ree, weights, scale):
        """TGI is linear: scaling all REEs scales TGI."""
        tgi = tgi_from_components(ree, weights)
        scaled = tgi_from_components({k: v * scale for k, v in ree.items()}, weights)
        assert scaled == pytest.approx(scale * tgi, rel=1e-9)

    @given(ree=ree_dicts(), w1=weight_dicts(), w2=weight_dicts())
    @settings(max_examples=100, deadline=None)
    def test_weight_mixture_interpolates(self, ree, w1, w2):
        """TGI under a 50/50 weight blend is the mean of the two TGIs."""
        mixed = {k: 0.5 * (w1[k] + w2[k]) for k in w1}
        left = tgi_from_components(ree, mixed)
        right = 0.5 * (tgi_from_components(ree, w1) + tgi_from_components(ree, w2))
        assert left == pytest.approx(right, rel=1e-9)

    @given(ree=ree_dicts())
    @settings(max_examples=100, deadline=None)
    def test_equal_ree_means_weights_irrelevant(self, ree):
        value = ree["HPL"]
        uniform_ree = {k: value for k in ree}
        for weights in ({"HPL": 1.0, "STREAM": 0.0, "IOzone": 0.0},
                        {"HPL": 1 / 3, "STREAM": 1 / 3, "IOzone": 1 / 3}):
            assert tgi_from_components(uniform_ree, weights) == pytest.approx(value)

    @given(ree=ree_dicts(), weights=weight_dicts())
    @settings(max_examples=100, deadline=None)
    def test_matches_weighted_arithmetic_mean(self, ree, weights):
        names = sorted(ree)
        expected = weighted_arithmetic_mean(
            [ree[n] for n in names], [weights[n] for n in names]
        )
        assert tgi_from_components(ree, weights) == pytest.approx(expected, rel=1e-9)


class TestEfficiencyProperties:
    @given(perf=positive, power=positive, k=positive)
    @settings(max_examples=100, deadline=None)
    def test_ee_inverse_in_power(self, perf, power, k):
        assert energy_efficiency(perf, power * k) == pytest.approx(
            energy_efficiency(perf, power) / k, rel=1e-9
        )

    @given(ee=positive, ref=positive)
    @settings(max_examples=100, deadline=None)
    def test_ree_reciprocity(self, ee, ref):
        """REE(a vs b) * REE(b vs a) == 1."""
        assert relative_efficiency(ee, ref) * relative_efficiency(ref, ee) == pytest.approx(
            1.0, rel=1e-9
        )


class TestWeightValidationProperties:
    @given(weights=weight_dicts())
    @settings(max_examples=100, deadline=None)
    def test_generated_weights_always_valid(self, weights):
        validate_weights(weights)

    @given(weights=weight_dicts(), epsilon=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_perturbed_weights_rejected(self, weights, epsilon):
        broken = dict(weights)
        broken["HPL"] = broken["HPL"] + epsilon
        with pytest.raises(MetricError):
            validate_weights(broken)


class TestPearsonProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=3,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, data):
        x = [a for a, _ in data]
        y = [b for _, b in data]
        try:
            r_xy = pearson(x, y)
            r_yx = pearson(y, x)
        except MetricError:
            return  # constant series: undefined, correctly rejected
        assert -1.0 <= r_xy <= 1.0
        assert r_xy == pytest.approx(r_yx, abs=1e-12)

    @given(
        x=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=3,
            max_size=30,
        ),
        a=st.floats(min_value=0.01, max_value=100),
        b=st.floats(min_value=-100, max_value=100),
    )
    @example(x=[1.42e-159, 0.0, 0.0], a=0.03125, b=0.0)
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_affine_maps(self, x, a, b):
        try:
            base = pearson(x, list(range(len(x))))
            # a*x + b can underflow to a constant when |x| << |b|/a; that
            # degenerate case is correctly rejected, not an invariance bug
            mapped = pearson([a * v + b for v in x], list(range(len(x))))
        except MetricError:
            return
        # When the spread of a*x is rounding noise next to the values of
        # a*x+b (e.g. x = [0, 0, 2e-16], b = 1), the mapped series carries
        # essentially no signal from x and the correlation is dominated by
        # 1-ulp rounding — invariance is numerically meaningless there.
        scale = max(abs(b), a * max(abs(v) for v in x))
        spread = a * (max(x) - min(x))
        if spread < 1e-6 * scale:
            return
        # float cancellation in a*x+b degrades precision for |x| << |b|
        assert mapped == pytest.approx(base, abs=1e-3)
