"""Cluster-generator tests."""

from functools import lru_cache

import numpy as np
import pytest

from repro.cluster import ERAS, generate_cluster, generate_fleet
from repro.cluster.generator import _pick, _uniform, fleet_seeds
from repro.exceptions import SpecError
from repro.units import GIB, gbps, mbps

from .oracles import generate_cluster_numpy


@lru_cache(maxsize=len(ERAS))
def _era_sample(era):
    """Forty generated machines of ``era`` (seeds 0-39), shared by the
    per-field template checks."""
    return tuple(generate_cluster(seed, era=era) for seed in range(40))


def _tier(seed, template):
    """The "budget tier" draw of ``generate_cluster(seed)``, replayed with
    NumPy's own methods: it follows the clock, core-count and TDP draws."""
    rng = np.random.default_rng(seed)
    rng.uniform(*template.clock_ghz)
    rng.choice(template.cores_per_socket)
    rng.uniform(0.85, 1.2)
    return rng.uniform(0.0, 1.0)


def _within(value, lo, hi):
    return lo <= value <= hi


def _clock(t, c, seed):
    return _within(c.node.cpu.base_clock_hz / 1e9, *t.clock_ghz)


def _cores(t, c, seed):
    return c.node.cpu.cores in t.cores_per_socket


def _node_count(t, c, seed):
    return c.num_nodes in t.node_counts


def _channels(t, c, seed):
    memory = c.node.memory
    return memory.channels in t.channels and memory.dimms == memory.channels


def _memory_per_core(t, c, seed):
    per_core, rest = divmod(c.node.memory.capacity_bytes, c.node.cpu.cores * GIB)
    return rest == 0 and per_core in t.mem_per_core_gib


def _stream_efficiency(t, c, seed):
    return _within(c.node.memory.stream_efficiency, *t.stream_efficiency)


def _cores_to_saturate(t, c, seed):
    cores = c.node.cpu.cores
    return _within(
        c.node.memory.cores_to_saturate,
        max(1, round(cores * 0.3)),
        min(cores, round(cores * 0.9)),
    )


def _disk_rate(t, c, seed):
    storage = c.node.storage
    lo, hi = t.disk_mbps
    return (
        storage.kind is t.disk_kind
        and _within(storage.seq_write_bandwidth, mbps(lo), mbps(hi))
        and _within(storage.seq_read_bandwidth, mbps(lo * 1.2), mbps(hi * 1.2))
    )


def _cpu_watts(t, c, seed):
    cpu = c.node.cpu
    scale = cpu.cores * t.tdp_per_core_w
    return (
        _within(cpu.tdp_watts, scale * 0.85, scale * 1.2)
        and cpu.idle_watts == t.idle_fraction * cpu.tdp_watts
    )


def _dimm_watts(t, c, seed):
    memory = c.node.memory
    return _within(memory.dimm_idle_watts, 1.0, 3.0) and _within(
        memory.dimm_active_watts, 3.5, 6.0
    )


def _disk_watts(t, c, seed):
    storage = c.node.storage
    return _within(storage.idle_watts, 1.0, 6.0) and _within(
        storage.active_watts, 6.0, 11.0
    )


def _nic_watts(t, c, seed):
    nic = c.node.nic
    return _within(nic.idle_watts, 2.0, 10.0) and _within(
        nic.active_watts, 10.0, 18.0
    )


def _base_watts(t, c, seed):
    return _within(c.node.base_watts, *t.base_watts)


def _nic_tier(t, c, seed):
    name, gbs, latency_us = t.nic_tiers[1 if _tier(seed, t) > 0.5 else 0]
    nic = c.node.nic
    return (
        nic.name == name
        and nic.bandwidth == gbps(gbs)
        and nic.latency_s == latency_us * 1e-6
    )


#: One check per drawn field: ``check(template, cluster, seed) -> bool``.
TEMPLATE_CHECKS = {
    check.__name__.lstrip("_"): check
    for check in (
        _clock,
        _cores,
        _node_count,
        _channels,
        _memory_per_core,
        _stream_efficiency,
        _cores_to_saturate,
        _disk_rate,
        _cpu_watts,
        _dimm_watts,
        _disk_watts,
        _nic_watts,
        _base_watts,
        _nic_tier,
    )
}

#: Every ``(lo, hi)`` that ``generate_cluster`` hands to ``_uniform``: the
#: era templates' ranges plus the fixed perturbation and watt ranges.
UNIFORM_BOUNDS = sorted(
    {bounds for t in ERAS.values() for bounds in (t.clock_ghz, t.base_watts)}
    | {
        (0.85, 1.2),
        (0.0, 1.0),
        (-0.15, 0.15),
        (0.3, 0.9),
        (1.0, 3.0),
        (3.5, 6.0),
        (-0.2, 0.2),
        (1.0, 6.0),
        (6.0, 11.0),
        (2.0, 10.0),
        (10.0, 18.0),
    }
)

#: Every tuple that ``generate_cluster`` hands to ``_pick``.
PICK_SEQUENCES = sorted(
    {
        seq
        for t in ERAS.values()
        for seq in (t.cores_per_socket, t.channels, t.mem_per_core_gib, t.node_counts)
    }
)


class TestGenerateCluster:
    def test_deterministic(self):
        a = generate_cluster(42, era="2011")
        b = generate_cluster(42, era="2011")
        assert a == b

    def test_distinct_seeds_differ(self):
        a = generate_cluster(1, era="2011")
        b = generate_cluster(2, era="2011")
        assert (a.num_nodes, a.node) != (b.num_nodes, b.node)

    def test_unknown_era_rejected(self):
        with pytest.raises(SpecError):
            generate_cluster(0, era="1999")

    def test_name_override(self):
        cluster = generate_cluster(0, era="2011", name="custom")
        assert cluster.name == "custom"

    @pytest.mark.parametrize("era", sorted(ERAS))
    def test_all_eras_produce_valid_specs(self, era):
        """Spec validation runs at construction: 20 seeds per era must all
        produce internally consistent machines."""
        for seed in range(20):
            cluster = generate_cluster(seed, era=era)
            node = cluster.node
            assert node.nominal_idle_watts < node.nominal_max_watts
            assert cluster.total_cores >= 8
            assert node.memory.cores_to_saturate <= node.cpu.cores

    @pytest.mark.parametrize("field", sorted(TEMPLATE_CHECKS))
    @pytest.mark.parametrize("era", sorted(ERAS))
    def test_era_parameters_within_template(self, era, field):
        template, check = ERAS[era], TEMPLATE_CHECKS[field]
        for seed, cluster in enumerate(_era_sample(era)):
            assert check(template, cluster, seed), (era, field, seed)

    @pytest.mark.parametrize("era", sorted(ERAS))
    def test_both_nic_tiers_appear(self, era):
        """The tier check above is vacuous unless both tiers are drawn."""
        names = {cluster.node.nic.name for cluster in _era_sample(era)}
        assert names == {tier[0] for tier in ERAS[era].nic_tiers}

    def test_later_eras_are_denser(self):
        """A 2021 machine's peak per node dwarfs a 2008 one's (sanity on
        the era templates, which the ranking examples rely on)."""
        old = max(generate_cluster(s, era="2008").node.peak_flops for s in range(10))
        new = min(generate_cluster(s, era="2021").node.peak_flops for s in range(10))
        assert new > 5 * old


class TestGenerateFleet:
    def test_unique_names(self):
        fleet = generate_fleet(8, era="2011", seed=0)
        names = [c.name for c in fleet]
        assert len(set(names)) == 8

    def test_deterministic(self):
        a = generate_fleet(4, era="2015", seed=3)
        b = generate_fleet(4, era="2015", seed=3)
        assert [(c.name, c.num_nodes, c.node) for c in a] == [
            (c.name, c.num_nodes, c.node) for c in b
        ]

    def test_variety_within_fleet(self):
        fleet = generate_fleet(10, era="2011", seed=7)
        node_counts = {c.num_nodes for c in fleet}
        nics = {c.node.nic.name for c in fleet}
        assert len(node_counts) > 1
        assert len(nics) > 1  # both budget and premium fabric tiers appear

    def test_zero_count_rejected(self):
        with pytest.raises(SpecError):
            generate_fleet(0)

    def test_fleet_runs_through_pipeline(self, quick_suite):
        """A generated machine is a full citizen: the suite runs on it."""
        from repro.sim import ClusterExecutor

        cluster = generate_fleet(3, era="2011", seed=5)[0]
        executor = ClusterExecutor(cluster, rng=1)
        result = quick_suite.run(executor, min(32, cluster.total_cores))
        assert all(r.performance > 0 for r in result)


class TestFleetSeedIndependence:
    """Member seeds are a pure function of (fleet seed, index)."""

    def test_fleet_prefix_stable_across_sizes(self):
        """Growing a fleet never changes the machines already in it."""
        small = generate_fleet(4, era="2011", seed=99)
        large = generate_fleet(9, era="2011", seed=99)
        assert [(c.name, c.num_nodes, c.node) for c in small] == [
            (c.name, c.num_nodes, c.node) for c in large[:4]
        ]

    def test_seed_lists_prefix_stable(self):
        from repro.cluster.generator import fleet_seeds

        assert fleet_seeds(3, 7) == fleet_seeds(10, 7)[:3]
        assert fleet_seeds(1) == fleet_seeds(64)[:1]  # default seed too

    def test_member_seed_matches_list(self):
        from repro.cluster.generator import fleet_member_seed, fleet_seeds

        seeds = fleet_seeds(8, 123)
        assert [fleet_member_seed(i, 123) for i in range(8)] == seeds

    def test_members_are_independent(self):
        """Distinct indices draw from unrelated streams, not one sequence."""
        from repro.cluster.generator import fleet_seeds

        seeds = fleet_seeds(32, 5)
        assert len(set(seeds)) == 32

    def test_negative_index_rejected(self):
        from repro.cluster.generator import fleet_member_seed

        with pytest.raises(SpecError):
            fleet_member_seed(-1, 0)


class TestDrawsMatchTheNumpyOracle:
    """``generate_cluster`` draws the same stream as the oracle, which
    calls ``Generator.choice`` and ``Generator.uniform`` directly."""

    #: Per era, seeds 0-249; plus the 2,000 members of the default
    #: ``tgi fleet rank`` fleet, which is a 2011 fleet.
    SEED_SETS = {
        **{era: (era, range(250)) for era in sorted(ERAS)},
        "fleet-2000": ("2011", fleet_seeds(2000, 20110615)),
    }

    @pytest.mark.parametrize("name", ["", "named"], ids=["unnamed", "named"])
    @pytest.mark.parametrize("seed_set", sorted(SEED_SETS))
    def test_specs_and_end_state_are_bit_identical(self, seed_set, name):
        era, seeds = self.SEED_SETS[seed_set]
        for seed in seeds:
            spec = generate_cluster(seed, era=era, name=name)
            oracle = generate_cluster_numpy(seed, era=era, name=name)
            assert spec == oracle, (era, seed)
            # repr round-trips every float, so equal text means equal bits
            assert repr(spec) == repr(oracle), (era, seed)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            generate_cluster(rng, era=era, name=name)
            generate_cluster_numpy(oracle_rng, era=era, name=name)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, (era, seed)

    @pytest.mark.parametrize("seq", PICK_SEQUENCES, ids=lambda seq: "-".join(map(str, seq)))
    def test_pick_is_choice(self, seq):
        rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            value = _pick(rng, seq)
            assert type(value) is int
            assert value == int(oracle_rng.choice(seq))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("bounds", UNIFORM_BOUNDS, ids=lambda b: f"{b[0]}..{b[1]}")
    def test_uniform_is_uniform(self, bounds):
        rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            value = _uniform(rng, *bounds)
            assert type(value) is float
            assert repr(value) == repr(oracle_rng.uniform(*bounds))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
