"""Workload (phase/program) tests."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import (
    Phase,
    PhaseKind,
    RankProgram,
    barrier,
    comm_phase,
    compute_phase,
    idle_phase,
    io_phase,
    memory_phase,
)


class TestPhase:
    def test_compute_phase_defaults(self):
        phase = compute_phase(10.0)
        assert phase.kind is PhaseKind.COMPUTE
        assert phase.cpu_intensity == 1.0
        assert phase.occupies_core

    def test_memory_phase(self):
        phase = memory_phase(5.0, memory=0.25)
        assert phase.kind is PhaseKind.MEMORY
        assert phase.memory == 0.25
        assert phase.cpu_intensity < 1.0

    def test_io_phase_mostly_blocked(self):
        phase = io_phase(5.0, storage=1.0)
        assert phase.storage == 1.0
        assert phase.cpu_intensity <= 0.2

    def test_comm_phase_uses_nic(self):
        phase = comm_phase(1.0)
        assert phase.nic > 0

    def test_idle_phase_frees_core(self):
        assert not idle_phase(1.0).occupies_core

    def test_barrier_zero_duration(self):
        assert barrier().duration_s == 0.0
        assert not barrier().occupies_core

    def test_barrier_with_duration_rejected(self):
        with pytest.raises(SimulationError):
            Phase(kind=PhaseKind.BARRIER, duration_s=1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            compute_phase(-1.0)

    def test_out_of_range_demand_rejected(self):
        with pytest.raises(SimulationError):
            Phase(kind=PhaseKind.MEMORY, duration_s=1.0, memory=1.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(SimulationError):
            Phase(kind="compute", duration_s=1.0)


class TestRankProgram:
    def test_append_chains(self):
        program = RankProgram(rank=0).append(compute_phase(1.0)).append(barrier())
        assert len(program.phases) == 2

    def test_extend(self):
        program = RankProgram(rank=0).extend([compute_phase(1.0), compute_phase(2.0)])
        assert program.busy_time == pytest.approx(3.0)

    def test_barrier_count(self):
        program = RankProgram(rank=0).extend(
            [compute_phase(1.0), barrier(), io_phase(1.0, storage=0.5), barrier()]
        )
        assert program.barrier_count == 2

    def test_negative_rank_rejected(self):
        with pytest.raises(SimulationError):
            RankProgram(rank=-1)

    def test_list_is_stored_as_tuple(self):
        phases = [compute_phase(1.0), barrier()]
        template = RankProgram(rank=0, phases=phases).phases
        assert isinstance(template, tuple) and list(template) == phases
        assert RankProgram(rank=1, phases=template).phases is template

    @pytest.mark.parametrize(
        "grow",
        [
            lambda program: program.append(compute_phase(2.0)),
            lambda program: program.extend([idle_phase(1.0), barrier()]),
        ],
        ids=["append", "extend"],
    )
    def test_growing_one_sharer_leaves_the_other_on_the_template(self, grow):
        template = (compute_phase(1.0), barrier())
        grown, other = (RankProgram(rank=r, phases=template) for r in (0, 1))
        grow(grown)
        assert other.phases is template and len(template) == 2
        assert grown.phases[:2] == template and len(grown.phases) > 2

    def test_barrier_is_interned(self):
        assert barrier() is barrier()
