"""Sweep-engine vs event-heap-oracle equivalence (hypothesis).

The vectorized sweep engine must be indistinguishable from the event-heap
oracle in ``tests/oracles.py``.  Two strategies probe it:

* *Binary-fraction programs*: durations are multiples of 1/256, so every
  prefix sum both engines compute is exact in float64 and agreement must
  be **interval-exact** — identical counts, bounds, phase objects, and
  makespan, not merely close.
* *Arbitrary-float programs* (reusing the looser generator) check the
  ≤1e-9 contract from the issue on bounds, makespan, and downstream
  energy through the full executor pipeline.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import presets
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
)

from repro.sim import engine as engine_module
from repro.sim.engine import _compact_rows

from .oracles import (
    interval_arrays,
    interval_lists,
    list_makespan,
    remap_unique,
    run_event_heap,
)

#: Multiples of 1/256 are exact binary fractions: sums of them round-trip
#: through float64 without error, so interval bounds must match exactly.
binary_durations = st.integers(min_value=0, max_value=2048).map(lambda n: n / 256.0)
#: Resource fractions on a coarse exact grid.
fractions = st.integers(min_value=0, max_value=16).map(lambda n: n / 16.0)
#: (constructor index, duration, fraction) — mixed phase kinds incl. idle.
phase_specs = st.tuples(st.integers(min_value=0, max_value=4), binary_durations, fractions)


def _build_phase(spec, scale=1.0):
    kind, duration, fraction = spec
    duration *= scale
    if kind == 0:
        return compute_phase(duration, intensity=max(fraction, 1 / 16))
    if kind == 1:
        return memory_phase(duration, memory=fraction)
    if kind == 2:
        return io_phase(duration, storage=fraction)
    if kind == 3:
        return comm_phase(duration, nic=fraction)
    return idle_phase(duration)


def _draw_sequence(draw, num_barriers, scale=1.0):
    """One rank's phases: 0-3 random phases per segment, barrier-separated."""
    program = RankProgram(rank=0)
    for segment in range(num_barriers + 1):
        for spec in draw(st.lists(phase_specs, min_size=0, max_size=3)):
            program.append(_build_phase(spec, scale))
        if segment < num_barriers:
            program.append(barrier())
    return program.phases


@st.composite
def random_programs(draw):
    """Random rank programs: mixed phase kinds, zero-duration phases, a
    shared barrier count, and optionally one skewed straggler rank whose
    phases run 32x longer (scaling by 32 preserves binary exactness).
    Each other rank either reuses one of up to two template tuples by
    reference (as the benchmark builders do) or builds its own, so runs
    are shared, unshared or mixed."""
    num_ranks = draw(st.integers(min_value=1, max_value=8))
    num_barriers = draw(st.integers(min_value=0, max_value=4))
    straggler = draw(st.integers(min_value=-1, max_value=num_ranks - 1))
    templates = [
        _draw_sequence(draw, num_barriers)
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    # -1: the rank builds its own sequence; k >= 0: it shares template k.
    picks = draw(
        st.lists(
            st.integers(min_value=-1, max_value=len(templates) - 1),
            min_size=num_ranks,
            max_size=num_ranks,
        )
    )
    programs = []
    for rank, pick in enumerate(picks):
        if rank == straggler:
            phases = _draw_sequence(draw, num_barriers, scale=32.0)
        elif pick >= 0:
            phases = templates[pick]
        else:
            phases = _draw_sequence(draw, num_barriers)
        programs.append(RankProgram(rank=rank, phases=phases))
    return programs


def assert_engines_interval_exact(programs):
    """Both engines must emit identical interval structure."""
    arrays = SimulationEngine(programs).run_arrays()
    vectorized = interval_lists(arrays)
    reference = run_event_heap(programs)
    ref_makespan = list_makespan(reference)
    assert arrays.makespan == pytest.approx(ref_makespan, rel=1e-9, abs=1e-9)
    assert len(vectorized) == len(reference)
    for rank, (got, want) in enumerate(zip(vectorized, reference)):
        assert len(got) == len(want), f"rank {rank}: interval count differs"
        for iv_v, iv_r in zip(got, want):
            assert iv_v.t_start == pytest.approx(iv_r.t_start, rel=1e-9, abs=1e-9)
            assert iv_v.t_end == pytest.approx(iv_r.t_end, rel=1e-9, abs=1e-9)
            assert iv_v.phase is iv_r.phase, (
                f"rank {rank}: phase object identity lost ({iv_v.phase} vs {iv_r.phase})"
            )


class TestIntervalEquivalence:
    @given(programs=random_programs())
    @settings(max_examples=120, deadline=None)
    def test_interval_exact_agreement(self, programs):
        """Random mixed-kind programs: interval-exact agreement, including
        zero-duration phases (dropped identically) and straggler skew."""
        assert_engines_interval_exact(programs)

    @given(programs=random_programs())
    @settings(max_examples=60, deadline=None)
    def test_columnar_equals_object_view(self, programs):
        """The oracles' per-rank list view describes the same run as the
        engine's columns."""
        arrays = SimulationEngine(programs).run_arrays()
        lists = interval_lists(arrays)
        flat_from_arrays = [
            (r, t0, t1, id(arrays.phases[row]))
            for r, t0, t1, row in zip(
                arrays.rank.tolist(),
                arrays.t_start.tolist(),
                arrays.t_end.tolist(),
                arrays.phase_row.tolist(),
            )
        ]
        flat_from_lists = [
            (iv.rank, iv.t_start, iv.t_end, id(iv.phase))
            for per_rank in lists
            for iv in per_rank
        ]
        assert flat_from_arrays == flat_from_lists
        assert sum(len(per_rank) for per_rank in lists) == len(arrays)

    @given(programs=random_programs())
    @settings(max_examples=60, deadline=None)
    def test_makespan_consistency(self, programs):
        """The makespan agrees across engines and both interval forms."""
        arrays = SimulationEngine(programs).run_arrays()
        assert list_makespan(interval_lists(arrays)) == arrays.makespan
        assert arrays.makespan == pytest.approx(
            list_makespan(run_event_heap(programs)), rel=1e-9, abs=1e-9
        )


class TestRemapOracle:
    """The presence-mask compaction of the phase table is bit-identical to
    ``np.unique(return_inverse=True)`` (``tests/oracles.py``)."""

    @given(programs=random_programs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_run_is_unchanged_by_the_unique_remap(self, programs, data):
        # the engine orders ranks by id, whatever order the list is in
        shuffled = data.draw(st.permutations(programs))
        new = SimulationEngine(shuffled).run_arrays()
        with mock.patch.object(engine_module, "_compact_rows", remap_unique):
            old = SimulationEngine(programs).run_arrays()
        for column in ("rank", "t_start", "t_end", "phase_row"):
            got, want = getattr(new, column), getattr(old, column)
            assert got.dtype == want.dtype, column
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), column
        assert [id(phase) for phase in new.phases] == [id(phase) for phase in old.phases]
        assert np.float64(new.makespan).view(np.int64) == np.float64(old.makespan).view(np.int64)

    @given(
        size=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_compaction_matches_unique(self, size, data):
        row = st.integers(min_value=0, max_value=size - 1)
        rows = np.array(data.draw(st.lists(row, max_size=80)), dtype=np.intp)
        used, inverse = _compact_rows(rows, size)
        want_used, want_inverse = remap_unique(rows, size)
        assert used.tolist() == want_used.tolist()
        assert inverse.dtype == want_inverse.dtype == np.intp
        assert inverse.tolist() == want_inverse.tolist()


def _heap_record(executor, placement, programs):
    """What ``executor.execute`` reports when the event-heap oracle
    produces the intervals."""
    arrays = interval_arrays(run_event_heap(programs))
    truth, breakdown, _ = executor.integrate_power(placement, arrays, arrays.makespan)
    return RunRecord(
        label="reference",
        cluster=executor.cluster,
        num_ranks=len(programs),
        makespan_s=arrays.makespan,
        truth=truth,
        trace=executor.meter.measure(truth),
        energy_breakdown=breakdown,
    )


class TestDownstreamEnergyEquivalence:
    @given(programs=random_programs())
    @settings(max_examples=25, deadline=None)
    def test_energy_and_makespan_match_through_executor(self, programs):
        """The engines must be interchangeable under the full pipeline:
        same true energy (<=1e-9 relative), same makespan, same breakdown."""
        assume(any(p.busy_time > 0 for p in programs))
        cluster = presets.fire(num_nodes=2)
        placement = breadth_first_placement(cluster, len(programs))
        executor = ClusterExecutor(cluster, rng=7)
        vec = executor.execute(placement, programs, label="vectorized")
        ref = _heap_record(executor, placement, programs)
        assert vec.makespan_s == pytest.approx(ref.makespan_s, rel=1e-9, abs=1e-9)
        assert vec.true_energy_j == pytest.approx(ref.true_energy_j, rel=1e-9)
        assert set(vec.energy_breakdown) == set(ref.energy_breakdown)
        for component, joules in vec.energy_breakdown.items():
            assert joules == pytest.approx(
                ref.energy_breakdown[component], rel=1e-9, abs=1e-9
            )


def _engine_programs(num_ranks):
    return [
        RankProgram(
            rank=r,
            phases=[
                compute_phase(10.0 + (r % 7) * 0.1),
                barrier(),
                compute_phase(5.0 + (r % 32) * 0.01),
                barrier(),
                compute_phase(2.0 + (r % 5) * 0.05),
            ],
        )
        for r in range(num_ranks)
    ]


@pytest.mark.slow
class TestOracleSpeed:
    def test_engine_vectorized_beats_reference(self):
        """Acceptance: the sweep engine is >= 3x the event-heap oracle at 8192
        ranks while emitting the identical schedule."""
        programs = _engine_programs(8192)
        vectorized = SimulationEngine(programs)
        vectorized.run_arrays()  # warm numpy allocators outside the timed region

        t0 = time.perf_counter()
        arrays = vectorized.run_arrays()
        vec_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        ref_intervals = run_event_heap(programs)
        ref_s = time.perf_counter() - t0

        # same schedule ...
        assert len(arrays) == sum(len(per_rank) for per_rank in ref_intervals)
        assert arrays.makespan == pytest.approx(
            list_makespan(ref_intervals), rel=1e-9, abs=1e-9
        )
        # ... much faster
        assert ref_s / vec_s >= 3.0, f"speedup only {ref_s / vec_s:.1f}x ({ref_s:.2f}s vs {vec_s:.2f}s)"
