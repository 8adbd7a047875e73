"""Cluster-generator tests."""

import pytest

from repro.cluster import ERAS, generate_cluster, generate_fleet
from repro.exceptions import SpecError


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

    def test_era_parameters_within_template(self):
        template = ERAS["2011"]
        for seed in range(20):
            cluster = generate_cluster(seed, era="2011")
            clock = cluster.node.cpu.base_clock_hz / 1e9
            assert template.clock_ghz[0] <= clock <= template.clock_ghz[1]
            assert cluster.node.cpu.cores in template.cores_per_socket
            assert cluster.num_nodes in template.node_counts

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
