"""Communication cost-model tests."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.sim import CommunicationModel


@pytest.fixture
def comm(fire):
    return CommunicationModel(cluster=fire)


class TestPointToPoint:
    def test_intra_node_cheaper_than_inter(self, comm):
        intra = comm.p2p_time(1e6, 0, 0)
        inter = comm.p2p_time(1e6, 0, 1)
        assert intra < inter

    def test_alpha_beta_structure(self, comm, fire):
        nic = fire.node.nic
        hops = fire.topology.hops(0, 1)
        expected = hops * nic.latency_s + 1e6 / nic.bandwidth
        assert comm.p2p_time(1e6, 0, 1) == pytest.approx(expected)

    def test_zero_bytes_is_pure_latency(self, comm, fire):
        t = comm.p2p_time(0, 0, 1)
        assert t == pytest.approx(fire.topology.hops(0, 1) * fire.node.nic.latency_s)

    def test_negative_bytes_rejected(self, comm):
        with pytest.raises(SimulationError):
            comm.p2p_time(-1, 0, 1)


class TestCollectives:
    def test_all_zero_for_single_rank(self, comm):
        assert comm.broadcast_time(1e6, 1) == 0.0
        assert comm.allreduce_time(1e6, 1) == 0.0
        assert comm.allgather_time(1e6, 1) == 0.0
        assert comm.alltoall_time(1e6, 1) == 0.0
        assert comm.barrier_time(1) == 0.0

    def test_broadcast_log_rounds(self, comm):
        t8 = comm.broadcast_time(1e6, 8)
        t64 = comm.broadcast_time(1e6, 64)
        assert t64 == pytest.approx(2 * t8)  # log2 64 = 2 * log2 8

    def test_allreduce_grows_with_ranks(self, comm):
        times = [comm.allreduce_time(1e6, p) for p in (2, 4, 16, 64)]
        assert times == sorted(times)

    def test_allreduce_bandwidth_term_bounded(self, comm, fire):
        """The 2m(p-1)/(p beta) term approaches 2m/beta from below."""
        m = 1e8
        bound = 2 * m / fire.node.nic.bandwidth
        t = comm.allreduce_time(m, 1024 if fire.total_cores >= 1024 else 128)
        latency = 2 * math.log2(128) * comm.effective_latency()
        assert t - latency < bound

    def test_alltoall_linear_in_ranks(self, comm):
        t4 = comm.alltoall_time(1e5, 4)
        t16 = comm.alltoall_time(1e5, 16)
        assert t16 == pytest.approx(5 * t4)  # (16-1)/(4-1)

    def test_allgather_total_volume(self, comm, fire):
        p = 8
        per_rank = 1e6
        t = comm.allgather_time(per_rank, p)
        volume_time = (p - 1) / p * per_rank * p / fire.node.nic.bandwidth
        assert t == pytest.approx((p - 1) * comm.effective_latency() + volume_time)

    def test_barrier_log_scaling(self, comm):
        assert comm.barrier_time(128) == pytest.approx(
            7 * comm.effective_latency()
        )

    def test_single_node_cluster_latency(self, fire):
        single = fire.with_nodes(1)
        comm = CommunicationModel(cluster=single)
        assert comm.effective_latency() < 1e-6  # shared-memory latency

