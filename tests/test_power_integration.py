"""Vectorized sweep-line integration vs. the scalar reference oracle.

The executor's sweep-line power integrator (see ``repro/sim/executor.py``)
is pinned to the original midpoint-scan implementation, kept as
:func:`tests.oracles.integrate_midpoint`.  These tests pin the two to
each other —
energy, component attribution, and the power curve itself must agree to
within float-summation noise (<= 1e-9 relative) over randomized
placements, barrier-heavy programs, accelerator nodes, and both metering
boundaries — and exercise the batched struct-of-arrays power APIs and the
breakpoint-snapping guarantees directly.
"""

import time
from dataclasses import fields
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import presets
from repro.exceptions import PowerModelError
from repro.power import (
    NodePowerModel,
    NodeUtilization,
    NodeUtilizationArray,
    PiecewisePower,
    PSUModel,
)
from repro.power.meter import PERFECT_METER, WallPlugMeter
from repro.sim import (
    ClusterExecutor,
    RankProgram,
    RunRecord,
    SimulationEngine,
    barrier,
    breadth_first_placement,
    comm_phase,
    compute_phase,
    idle_phase,
    io_phase,
    memory_phase,
    packed_placement,
)
from repro.sim import executor as executor_module
from repro.sim.executor import _EPS, _snap_cuts

from .oracles import fold_add_at, integrate_midpoint, node_dc_power, snap_cuts_unique

# ---------------------------------------------------------------------------
# program generation
#
# Durations are drawn from a 1 ms grid: coarse enough that *distinct* logical
# breakpoints stay far apart, while float accumulation across phases still
# produces near-duplicate cuts within _EPS on different ranks — exactly the
# input the snapping logic exists for.

_DURATION = st.integers(min_value=1, max_value=3000).map(lambda n: n / 1000.0)
_FRACTION = st.integers(min_value=0, max_value=100).map(lambda n: n / 100.0)


@st.composite
def _phase(draw, accelerator=False):
    kind = draw(st.sampled_from(["compute", "memory", "io", "comm", "idle"]))
    d = draw(_DURATION)
    if kind == "compute":
        share = draw(_FRACTION) if accelerator else 0.0
        return compute_phase(d, memory=draw(_FRACTION) * 0.2, accelerator=share)
    if kind == "memory":
        return memory_phase(d, memory=draw(_FRACTION))
    if kind == "io":
        return io_phase(d, storage=draw(_FRACTION))
    if kind == "comm":
        return comm_phase(d, nic=draw(_FRACTION))
    return idle_phase(d)


@st.composite
def _programs(draw, max_ranks=24, accelerator=False):
    """Rank programs in barrier-separated rounds (equal barrier counts);
    with ``accelerator``, compute phases also offload to the cards."""
    num_ranks = draw(st.integers(min_value=1, max_value=max_ranks))
    rounds = draw(st.integers(min_value=1, max_value=3))
    programs = []
    for rank in range(num_ranks):
        phases = []
        for rd in range(rounds):
            phases.extend(draw(st.lists(_phase(accelerator), min_size=1, max_size=3)))
            if rd < rounds - 1:
                phases.append(barrier())
        programs.append(RankProgram(rank=rank, phases=phases))
    return programs


def _both_records(cluster, placement, programs, metering):
    """``integrate_power`` and the midpoint-scan oracle on the same engine
    run, each wrapped as the record ``execute`` would report."""
    executor = ClusterExecutor(
        cluster, meter=WallPlugMeter(PERFECT_METER, rng=0), metering=metering
    )
    arrays = SimulationEngine(programs).run_arrays()
    records = []
    for label, integrate in (
        ("vectorized", executor.integrate_power),
        ("reference", partial(integrate_midpoint, executor)),
    ):
        truth, breakdown, _ = integrate(placement, arrays, arrays.makespan)
        records.append(
            RunRecord(
                label=label,
                cluster=cluster,
                num_ranks=len(programs),
                makespan_s=arrays.makespan,
                truth=truth,
                trace=executor.meter.measure(truth),
                energy_breakdown=breakdown,
            )
        )
    return tuple(records)


def _assert_equivalent(vec, ref):
    assert vec.true_energy_j == pytest.approx(ref.true_energy_j, rel=1e-9)
    assert set(vec.energy_breakdown) == set(ref.energy_breakdown)
    for component, ref_joules in ref.energy_breakdown.items():
        assert vec.energy_breakdown[component] == pytest.approx(
            ref_joules, rel=1e-9, abs=1e-9
        ), component
    # The curves themselves: sample at the vectorized truth's segment
    # midpoints (skipping slivers where midpoint membership is itself
    # float-ambiguous) — both paths must report the same watts.
    mids = np.array(
        [(t0 + t1) / 2 for t0, t1, _ in vec.truth.segments if t1 - t0 > 1e-6]
    )
    if mids.size:
        np.testing.assert_allclose(
            vec.truth.power_at(mids),
            ref.truth.power_at(mids),
            rtol=1e-9,
            atol=1e-9,
        )


class TestEquivalence:
    """Property: the sweep-line pipeline equals the scalar oracle."""

    @given(programs=_programs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_fire_cluster(self, programs, data):
        cluster = presets.fire(4)
        place = data.draw(
            st.sampled_from([breadth_first_placement, packed_placement])
        )
        metering = data.draw(st.sampled_from(ClusterExecutor.METERING_MODES))
        placement = place(cluster, len(programs))
        vec, ref = _both_records(cluster, placement, programs, metering)
        _assert_equivalent(vec, ref)

    @given(programs=_programs(max_ranks=12))
    @settings(max_examples=15, deadline=None)
    def test_accelerator_cluster(self, programs):
        cluster = presets.gpu_cluster(2)
        placement = breadth_first_placement(cluster, len(programs))
        vec, ref = _both_records(cluster, placement, programs, "system")
        _assert_equivalent(vec, ref)
        assert "accelerators" in vec.energy_breakdown

    def test_barrier_heavy_program(self):
        """Barrier waits create many staggered sub-EPS-adjacent cuts."""
        cluster = presets.fire(4)
        programs = []
        for rank in range(32):
            phases = []
            for rd in range(5):
                # staggered per-rank durations -> dense distinct cuts
                phases.append(compute_phase(1.0 + rank * 0.001 + rd * 0.01))
                phases.append(barrier())
            phases.append(idle_phase(0.5))
            programs.append(RankProgram(rank=rank, phases=phases))
        placement = breadth_first_placement(cluster, 32)
        vec, ref = _both_records(cluster, placement, programs, "system")
        _assert_equivalent(vec, ref)

    def test_single_idle_rank(self):
        """busy == 0 everywhere: both paths must price a fully idle cluster."""
        cluster = presets.fire(2)
        programs = [RankProgram(rank=0, phases=[idle_phase(10.0)])]
        placement = breadth_first_placement(cluster, 1)
        vec, ref = _both_records(cluster, placement, programs, "system")
        _assert_equivalent(vec, ref)
        executor = ClusterExecutor(cluster, meter=WallPlugMeter(PERFECT_METER, rng=0))
        idle_wall = cluster.num_nodes * executor.node_power.idle_wall_power()
        assert vec.true_mean_power_w == pytest.approx(idle_wall, rel=1e-9)


class TestSpanStats:
    def test_integration_stats_reach_the_span(self):
        from repro import telemetry as tele

        cluster = presets.fire(2)
        programs = [RankProgram(rank=r, phases=[compute_phase(1.0 + r)]) for r in range(4)]
        placement = breadth_first_placement(cluster, 4)
        executor = ClusterExecutor(cluster, meter=WallPlugMeter(PERFECT_METER, rng=0))
        with tele.use() as session:
            executor.execute(placement, programs)
        spans = [s for s in session.spans if s.name == "sim.power.integrate"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["segments_in"] >= attrs["segments_out"] >= 1
        assert 0 < attrs["compaction_ratio"] <= 1.0


class TestSnapping:
    def test_near_duplicate_cuts_collapse(self):
        cuts = _snap_cuts(np.array([0.0, 1.0, 1.0 + _EPS / 4, 2.0]), 2.0)
        assert cuts.tolist() == [0.0, 1.0, 2.0]

    def test_span_endpoints_survive_exactly(self):
        makespan = 3.0
        cuts = _snap_cuts(np.array([0.0, makespan - _EPS / 10, makespan]), makespan)
        assert cuts[0] == 0.0
        assert cuts[-1] == makespan
        assert np.all(np.diff(cuts) > _EPS)

    def test_no_energy_leak_from_sliver_slices(self):
        """A breakpoint pair within _EPS must not drop its slice's joules.

        Before snapping, the reference path silently discarded sub-_EPS
        slices; both paths must now conserve the exact tiling energy.
        """
        cluster = presets.fire(1)
        # Two ranks whose phase boundaries land within _EPS of each other:
        # 0.1+0.2 != 0.3 by one ulp, so rank 1's boundary is a near-dup cut.
        programs = [
            RankProgram(rank=0, phases=[compute_phase(0.1), compute_phase(0.2), idle_phase(0.7)]),
            RankProgram(rank=1, phases=[compute_phase(0.3), idle_phase(0.7)]),
        ]
        placement = breadth_first_placement(cluster, 2)
        vec, ref = _both_records(cluster, placement, programs, "system")
        for record in (vec, ref):
            segs = record.truth.segments
            # exact tiling: no gaps, starts at 0, ends at makespan
            assert segs[0][0] == 0.0
            assert segs[-1][1] == record.makespan_s
            for (_, e0, _), (s1, _, _) in zip(segs, segs[1:]):
                assert e0 == s1
        _assert_equivalent(vec, ref)


class TestBatchedPowerAPIs:
    """A whole array of slices must price bitwise identically to mapping
    the same models over the slices one scalar utilization at a time."""

    @staticmethod
    def _random_utils(n=64, seed=0):
        rng = np.random.default_rng(seed)
        return NodeUtilizationArray(
            cpu_active_fraction=rng.random(n),
            cpu_intensity=rng.random(n),
            memory=rng.random(n),
            storage=rng.random(n),
            nic=rng.random(n),
            accelerator=rng.random(n),
        )

    @pytest.mark.parametrize("preset", [presets.fire, presets.gpu_cluster])
    def test_node_model_many_matches_scalar(self, preset):
        model = NodePowerModel(node=preset(1).node)
        utils = self._random_utils()
        wall_many = model.wall_power(utils)
        dc_many = model.dc_power(utils)
        parts_many = model.component_breakdown(utils)
        for i in range(len(utils)):
            u = NodeUtilization(
                **{f.name: float(getattr(utils, f.name)[i]) for f in fields(NodeUtilization)}
            )
            assert type(model.wall_power(u)) is float
            assert wall_many[i] == model.wall_power(u)
            assert dc_many[i] == model.dc_power(u)
            scalar_parts = model.component_breakdown(u)
            assert set(parts_many) == set(scalar_parts)
            for component, watts in scalar_parts.items():
                assert parts_many[component][i] == watts

    def test_psu_many_matches_scalar(self):
        psu = PSUModel(rated_watts=800.0)
        dc = np.linspace(0.0, 1000.0, 57)  # includes 0 and beyond-rated loads
        wall_many = psu.wall_watts(dc)
        eff_many = psu.efficiency(dc)
        for i, watts in enumerate(dc):
            assert type(psu.wall_watts(float(watts))) is float
            assert wall_many[i] == psu.wall_watts(float(watts))
            assert eff_many[i] == psu.efficiency(float(watts))
        # One supply per system: the same curve on per-element ratings.
        ratings = np.linspace(500.0, 1500.0, dc.size)
        per_system = PSUModel(rated_watts=ratings).wall_watts(dc)
        for i, watts in enumerate(dc):
            assert per_system[i] == PSUModel(rated_watts=float(ratings[i])).wall_watts(float(watts))

    def test_utilization_array_validates_shape(self):
        with pytest.raises(PowerModelError):
            NodeUtilizationArray(
                cpu_active_fraction=np.zeros(3),
                cpu_intensity=np.zeros(2),
                memory=np.zeros(3),
                storage=np.zeros(3),
                nic=np.zeros(3),
                accelerator=np.zeros(3),
            )


def _bits(values) -> list:
    """IEEE-754 bit patterns: equal only when every bit is, signed zeros included."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _add_at_fold(i_edge, phase_row, table, num_cuts):
    """:func:`fold_add_at` in :func:`repro.sim.executor._fold_levels`' shape."""
    return list(fold_add_at(i_edge, phase_row, table, num_cuts).T)


def _integration_bits(executor, placement, arrays):
    truth, breakdown, stats = executor.integrate_power(placement, arrays, arrays.makespan)
    return (
        _bits(truth.starts_array),
        _bits(truth.ends_array),
        _bits(truth.watts_array),
        {component: _bits(joules) for component, joules in breakdown.items()},
        stats,
    )


#: Demands the fold sees: exact binary fractions, ones that round, zeros of both signs.
_DEMAND = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, 0.2, 0.3, 0.04, 0.9, 1 / 3]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestBitwiseOracles:
    """The sweep line's fold, snapping and pricing are bit-identical to the
    formulations they replaced (``tests/oracles.py``).  Bit patterns are
    compared, so ``-0.0`` against ``+0.0`` counts as a difference."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_integration_is_unchanged_by_the_add_at_fold_and_unique_snap(self, data):
        accelerated = data.draw(st.booleans())
        cluster = presets.gpu_cluster(3) if accelerated else presets.fire(4)
        programs = data.draw(_programs(accelerator=accelerated))
        place = data.draw(st.sampled_from([breadth_first_placement, packed_placement]))
        metering = data.draw(st.sampled_from(ClusterExecutor.METERING_MODES))
        executor = ClusterExecutor(cluster, rng=0, metering=metering)
        placement = place(cluster, len(programs))
        arrays = SimulationEngine(programs).run_arrays()
        new = _integration_bits(executor, placement, arrays)
        with mock.patch.object(executor_module, "_fold_levels", _add_at_fold), mock.patch.object(
            executor_module, "_snap_cuts", snap_cuts_unique
        ):
            old = _integration_bits(executor, placement, arrays)
        assert new == old

    @pytest.mark.parametrize("metering", ClusterExecutor.METERING_MODES)
    @pytest.mark.parametrize("place", [breadth_first_placement, packed_placement])
    def test_staggered_barriers_on_accelerated_nodes(self, place, metering):
        """Barrier waits, every demand column and idle nodes, all at once."""
        cluster = presets.gpu_cluster(4)
        programs = [
            RankProgram(
                rank=rank,
                phases=[
                    compute_phase(1.0 + rank * 0.003, memory=0.1, accelerator=0.5),
                    barrier(),
                    io_phase(0.5 + rank * 0.01, storage=0.3),
                    barrier(),
                    comm_phase(0.25, nic=0.7),
                    memory_phase(0.1 * (rank % 3 + 1), memory=0.4),
                ],
            )
            for rank in range(18)
        ]
        executor = ClusterExecutor(cluster, rng=0, metering=metering)
        placement = place(cluster, len(programs))
        arrays = SimulationEngine(programs).run_arrays()
        assert any(phase.label == "barrier-wait" for phase in arrays.phases)
        new = _integration_bits(executor, placement, arrays)
        with mock.patch.object(executor_module, "_fold_levels", _add_at_fold), mock.patch.object(
            executor_module, "_snap_cuts", snap_cuts_unique
        ):
            old = _integration_bits(executor, placement, arrays)
        assert new == old
        assert new[3]["accelerators"] != _bits(0.0)

    @given(
        num_cuts=st.integers(min_value=1, max_value=40),
        rows=st.lists(st.lists(_DEMAND, min_size=6, max_size=6), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_matches_add_at(self, num_cuts, rows, data):
        table = np.array(rows, dtype=float)
        n = data.draw(st.integers(min_value=0, max_value=60))
        cut = st.integers(min_value=0, max_value=num_cuts - 1)
        i_edge = np.array(data.draw(st.lists(cut, min_size=2 * n, max_size=2 * n)), dtype=np.intp)
        row = st.integers(min_value=0, max_value=len(table) - 1)
        phase_row = np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.intp)
        new = executor_module._fold_levels(i_edge, phase_row, table, num_cuts)
        old = fold_add_at(i_edge, phase_row, table, num_cuts)
        assert len(new) == 6
        for column, level in enumerate(new):
            got = np.zeros(num_cuts) if level is None else level
            assert _bits(got) == _bits(old[:, column]), column

    @given(
        makespan=st.floats(min_value=1e-3, max_value=1e4),
        base=st.lists(st.floats(min_value=-1.0, max_value=2e4), max_size=30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_snap_matches_unique(self, makespan, base, data):
        # near-duplicates within and just beyond _EPS, both zeros, both ends
        offsets = data.draw(
            st.lists(st.integers(min_value=-8, max_value=8), min_size=len(base), max_size=len(base))
        )
        near = [t + k * _EPS / 4 for t, k in zip(base, offsets)]
        times = np.array(base + near + [0.0, -0.0, makespan, makespan - _EPS / 2])
        times = times[np.random.default_rng(len(base)).permutation(times.size)]
        assert _bits(_snap_cuts(times, makespan)) == _bits(snap_cuts_unique(times, makespan))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_pricing_adds_components_in_dc_power_order(self, seed, n):
        for preset in (presets.fire, presets.gpu_cluster):
            node = preset(1).node
            model = NodePowerModel(node=node)
            utils = TestBatchedPowerAPIs._random_utils(n=n, seed=seed)
            wall, parts = model.wall_power_and_breakdown(utils)
            assert _bits(wall) == _bits(model.psu.wall_watts(node_dc_power(node, utils)))
            assert _bits(wall) == _bits(model.wall_power(utils))
            assert _bits(model.dc_power(utils)) == _bits(node_dc_power(node, utils))
            assert parts.keys() == model.component_breakdown(utils).keys()
            for component, watts in model.component_breakdown(utils).items():
                assert _bits(parts[component]) == _bits(watts), component

    @pytest.mark.parametrize("preset", [presets.fire, presets.gpu_cluster])
    def test_idle_node_is_priced_once_and_exactly(self, preset):
        node = preset(1).node
        model = NodePowerModel(node=node)
        idle = NodeUtilization.idle()
        assert _bits(model.idle_wall_power()) == _bits(model.psu.wall_watts(node_dc_power(node, idle)))
        assert model.idle_component_breakdown() == model.component_breakdown(idle)
        # a fresh dict each time: callers may add to it
        model.idle_component_breakdown()["cpu"] = -1.0
        assert model.idle_component_breakdown() == model.component_breakdown(idle)


class TestFromArrays:
    def test_matches_validating_constructor(self):
        segs = [(0.0, 1.0, 100.0), (1.0, 2.5, 250.0), (2.5, 3.0, 50.0)]
        a = PiecewisePower(segs)
        b = PiecewisePower.from_arrays(
            np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 3.0]), np.array([100.0, 250.0, 50.0])
        )
        assert b.segments == a.segments
        assert b.energy() == a.energy()
        assert b.power_at(1.7) == a.power_at(1.7)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(PowerModelError):
            PiecewisePower.from_arrays(np.array([]), np.array([]), np.array([]))
        with pytest.raises(PowerModelError):
            PiecewisePower.from_arrays(np.array([0.0]), np.array([1.0, 2.0]), np.array([5.0]))


def _integration_state(num_nodes):
    cluster = presets.fire(num_nodes)
    num_ranks = num_nodes * cluster.node.cores
    executor = ClusterExecutor(cluster, rng=7)
    placement = breadth_first_placement(cluster, num_ranks)
    programs = [
        RankProgram(
            rank=r,
            phases=[
                compute_phase(10.0 + r * 0.001),
                barrier(),
                compute_phase(5.0 + (r % 32) * 0.01),
            ],
        )
        for r in range(num_ranks)
    ]
    intervals = SimulationEngine(programs).run_arrays()
    return executor, placement, intervals, intervals.makespan


@pytest.mark.slow
class TestOracleSpeed:
    def test_power_integration_vectorized_beats_reference(self):
        """Acceptance: the sweep-line path is >= 5x the scalar oracle at 1024 ranks."""
        executor, placement, intervals, makespan = _integration_state(64)

        t0 = time.perf_counter()
        truth_vec, breakdown_vec, _ = executor.integrate_power(placement, intervals, makespan)
        vec_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        truth_ref, breakdown_ref, _ = integrate_midpoint(executor, placement, intervals, makespan)
        ref_s = time.perf_counter() - t0

        # same physics ...
        assert truth_vec.energy() == pytest.approx(truth_ref.energy(), rel=1e-9)
        for component, joules in breakdown_ref.items():
            assert breakdown_vec[component] == pytest.approx(joules, rel=1e-9, abs=1e-9)
        # ... much faster
        assert ref_s / vec_s >= 5.0, f"speedup only {ref_s / vec_s:.1f}x ({ref_s:.2f}s vs {vec_s:.2f}s)"
