"""Property-based tests of the weighting laws (Section III, Eqs. 13-15).

The paper's central algebraic claim: with time weights (Eq. 10) the
weighted TGI keeps each benchmark's energy in the denominator (Eq. 13) and
so stays inversely proportional to energy consumed for a fixed amount of
work — while energy weights (Eq. 11 -> Eq. 14) and power weights
(Eq. 12 -> Eq. 15) *cancel* the per-benchmark energy, losing the property.

Instead of one measured suite, hypothesis draws whole synthetic suites —
arbitrary positive (performance, time, power) triples per benchmark and an
arbitrary positive reference — and checks the laws hold on every one of
them, not just at the paper's operating point.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import BenchmarkResult
from repro.core import (
    ArithmeticMeanWeights,
    EnergyWeights,
    PowerWeights,
    ReferenceSet,
    TGICalculator,
    TimeWeights,
    energy_weighted_identity,
    power_weighted_identity,
    time_weighted_identity,
)
from repro.benchmarks.suite import SuiteResult
from repro.power import PiecewisePower, PowerTrace
from repro.sim.executor import RunRecord

BENCHES = ("HPL", "STREAM", "IOzone")

#: Two decades either side of 1 — wide enough to be interesting, narrow
#: enough that products like t*p stay far from float trouble.
magnitude = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)
#: Multiplicative perturbations used for the scaling laws.
scale_factor = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def synthetic_result(name, performance, time_s, power_w):
    """A BenchmarkResult with exactly the (M, t, p) we asked for.

    The flat power curve makes the metered mean power exact, so
    ``energy_j == power_w * time_s`` with no integration error.
    """
    record = RunRecord(
        label=name,
        cluster=None,
        num_ranks=1,
        makespan_s=time_s,
        truth=PiecewisePower([(0.0, time_s, power_w)]),
        trace=PowerTrace([0.0, time_s], [power_w, power_w]),
    )
    return BenchmarkResult(
        benchmark=name, metric_label="unit/s", performance=performance, scale=1, record=record
    )


def make_suite(params):
    """params: name -> (performance, time_s, power_w)."""
    return SuiteResult(
        cores=1,
        results=tuple(synthetic_result(n, *params[n]) for n in BENCHES),
    )


@st.composite
def suite_params(draw):
    return {
        name: (draw(magnitude), draw(magnitude), draw(magnitude)) for name in BENCHES
    }


@st.composite
def references(draw):
    return ReferenceSet(
        {name: draw(magnitude) for name in BENCHES}, system_name="synthetic-ref"
    )


def tgi(suite, reference, weighting):
    return TGICalculator(reference, weighting=weighting).compute(suite).value


class TestIdentitiesOnRandomSuites:
    """Eqs. 13-15: pipeline output == closed form, for *any* suite."""

    @given(params=suite_params(), reference=references())
    @settings(max_examples=100, deadline=None)
    def test_eq13_time_identity(self, params, reference):
        left, right = time_weighted_identity(make_suite(params), reference)
        assert left == pytest.approx(right, rel=1e-9)

    @given(params=suite_params(), reference=references())
    @settings(max_examples=100, deadline=None)
    def test_eq14_energy_identity(self, params, reference):
        left, right = energy_weighted_identity(make_suite(params), reference)
        assert left == pytest.approx(right, rel=1e-9)

    @given(params=suite_params(), reference=references())
    @settings(max_examples=100, deadline=None)
    def test_eq15_power_identity(self, params, reference):
        left, right = power_weighted_identity(make_suite(params), reference)
        assert left == pytest.approx(right, rel=1e-9)


class TestTimeWeightsKeepTheProperty:
    """Eq. 13: per-benchmark energy survives in the denominator."""

    @given(params=suite_params(), reference=references(), k=scale_factor)
    @settings(max_examples=100, deadline=None)
    def test_uniform_energy_scaling_inverts_tgi(self, params, reference, k):
        """Fixed work and times, all energies scaled by k (via power):
        the time-weighted TGI scales by exactly 1/k — the paper's desired
        inverse-proportionality-to-energy property."""
        base = tgi(make_suite(params), reference, TimeWeights())
        scaled_params = {n: (m, t, p * k) for n, (m, t, p) in params.items()}
        scaled = tgi(make_suite(scaled_params), reference, TimeWeights())
        assert scaled == pytest.approx(base / k, rel=1e-9)

    @given(params=suite_params(), reference=references(), k=scale_factor)
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_mean_also_inverts(self, params, reference, k):
        """Eq. 8: equal weights keep the property too."""
        base = tgi(make_suite(params), reference, ArithmeticMeanWeights())
        scaled_params = {n: (m, t, p * k) for n, (m, t, p) in params.items()}
        scaled = tgi(make_suite(scaled_params), reference, ArithmeticMeanWeights())
        assert scaled == pytest.approx(base / k, rel=1e-9)

    @given(params=suite_params(), reference=references(), k=st.floats(min_value=1.5, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_single_benchmark_energy_raise_lowers_tgi(self, params, reference, k):
        """Strict monotonicity: raising ONE benchmark's energy (power up by
        k > 1, time and work fixed) strictly lowers the time-weighted TGI —
        Eq. 13 keeps every e_i in a denominator."""
        base = tgi(make_suite(params), reference, TimeWeights())
        for victim in BENCHES:
            worse = dict(params)
            m, t, p = worse[victim]
            worse[victim] = (m, t, p * k)
            assert tgi(make_suite(worse), reference, TimeWeights()) < base


class TestEnergyAndPowerWeightsLoseIt:
    """Eqs. 14-15: the per-benchmark energy/power term cancels."""

    @given(params=suite_params(), reference=references(), share=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=100, deadline=None)
    def test_energy_weighted_blind_to_redistribution(self, params, reference, share):
        """Eq. 14 depends only on SUM e_i: moving energy between benchmarks
        at fixed total (fixed M_i, t_i) leaves the energy-weighted TGI
        unchanged — the metric cannot see *which* benchmark wasted joules."""
        suite = make_suite(params)
        total_energy = sum(p * t for _, t, p in params.values())
        # redistribute: first benchmark takes `share` of the total, the rest
        # split the remainder evenly — times fixed, so powers absorb it all
        names = list(BENCHES)
        budgets = [share * total_energy] + [
            (1 - share) * total_energy / (len(names) - 1)
        ] * (len(names) - 1)
        moved = {
            n: (params[n][0], params[n][1], e / params[n][1])
            for n, e in zip(names, budgets)
        }
        base = tgi(suite, reference, EnergyWeights())
        redistributed = tgi(make_suite(moved), reference, EnergyWeights())
        assert redistributed == pytest.approx(base, rel=1e-9)

    @given(params=suite_params(), reference=references(), k=st.floats(min_value=1.5, max_value=10.0))
    # Draws on the curve where the two ratios meet (they differ by <1e-6).
    @example(
        params={"HPL": (1.0, 1.0, 1.0), "STREAM": (16.0, 14.0, 11.0), "IOzone": (1.0, 16.0, 24.0)},
        reference=ReferenceSet({"HPL": 26.0, "STREAM": 2.0, "IOzone": 4.0}, system_name="synthetic-ref"),
        k=2.0,
    )
    @example(
        params={"HPL": (1.0, 0.03125, 0.015625), "STREAM": (1.0, 3.0, 6.0), "IOzone": (19.0, 39.0, 0.015625)},
        reference=ReferenceSet({"HPL": 1.0, "STREAM": 1.0, "IOzone": 1.0}, system_name="synthetic-ref"),
        k=1.5,
    )
    @example(
        params={"HPL": (47.0, 0.0625, 5.25), "STREAM": (7.0, 42.0, 39.0), "IOzone": (1.0, 34.0, 49.0)},
        reference=ReferenceSet({"HPL": 3.0, "STREAM": 0.01, "IOzone": 1.0}, system_name="synthetic-ref"),
        k=2.5,
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_weighted_fails_inverse_proportionality(self, params, reference, k):
        """Scaling only ONE benchmark's energy by k does NOT scale the
        energy-weighted TGI by the Eq. 13 amount — the property the paper
        wants is genuinely absent, not just rescaled.

        Both ratios are closed forms in the victim's shares: Eq. 13 gives
        ``1 - (1 - 1/k) s_T`` with ``s_T`` its share of the time-weighted
        sum, Eq. 14 gives ``1 / (1 + (k - 1) s_E)`` with ``s_E`` its share of
        the energy.  They coincide near ``s_T = k s_E``, so the two ratios
        are compared with each other only off that curve.
        """
        time_based = TimeWeights()
        energy_based = EnergyWeights()
        victim = BENCHES[0]
        worse = dict(params)
        m, t, p = worse[victim]
        worse[victim] = (m, t, p * k)
        ratio_time = tgi(make_suite(worse), reference, time_based) / tgi(
            make_suite(params), reference, time_based
        )
        ratio_energy = tgi(make_suite(worse), reference, energy_based) / tgi(
            make_suite(params), reference, energy_based
        )
        # Eq. 13's per-benchmark term t^2 M / (e EE_ref) with e = p t
        time_terms = {n: t * m / (p * reference.efficiency(n)) for n, (m, t, p) in params.items()}
        energies = {n: p * t for n, (_, t, p) in params.items()}
        s_time = time_terms[victim] / sum(time_terms.values())
        s_energy = energies[victim] / sum(energies.values())
        predicted_time = 1 - (1 - 1 / k) * s_time
        predicted_energy = 1 / (1 + (k - 1) * s_energy)
        # time weights strictly punish the waste; energy weights punish it
        # by a different amount
        assert ratio_time < 1.0
        assert ratio_time == pytest.approx(predicted_time, rel=1e-9)
        assert ratio_energy == pytest.approx(predicted_energy, rel=1e-9)
        assume(abs(predicted_energy - predicted_time) > 1e-5 * predicted_time)
        assert ratio_energy != pytest.approx(ratio_time, rel=1e-6)

    @given(params=suite_params(), reference=references(), share=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=100, deadline=None)
    def test_power_weighted_blind_to_power_redistribution(self, params, reference, share):
        """Eq. 15 depends only on SUM p_i: with times held equal across
        benchmarks, moving power between benchmarks at fixed total leaves
        the power-weighted TGI unchanged."""
        common_time = 3.0
        equal_time = {n: (m, common_time, p) for n, (m, _, p) in params.items()}
        total_power = sum(p for _, _, p in equal_time.values())
        names = list(BENCHES)
        budgets = [share * total_power] + [
            (1 - share) * total_power / (len(names) - 1)
        ] * (len(names) - 1)
        moved = {
            n: (equal_time[n][0], common_time, p) for n, p in zip(names, budgets)
        }
        base = tgi(make_suite(equal_time), reference, PowerWeights())
        redistributed = tgi(make_suite(moved), reference, PowerWeights())
        assert redistributed == pytest.approx(base, rel=1e-9)
