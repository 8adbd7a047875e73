"""Interconnect-topology tests.

The closed forms in :mod:`repro.cluster.topology` are checked against a
breadth-first search over the explicit switch graph each fabric kind
describes: compute nodes are ``0..n-1``, switches are strings.
"""

import os
import subprocess
import sys
from collections import deque
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.cluster.topology import (
    Topology,
    fat_tree_topology,
    ring_topology,
    star_topology,
)
from repro.exceptions import SpecError


def switch_graph(topo):
    """Adjacency sets of the fabric ``topo`` stands for."""
    n, r = topo.num_nodes, topo.leaf_radix
    adj = {i: set() for i in range(n)}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for i in range(n):
        if topo.kind == "star":
            link(i, "hub")
        elif topo.kind == "ring":
            link(i, (i + 1) % n)
        else:
            link(i, f"leaf{i // r}")
            if n > r:
                link(f"leaf{i // r}", "spine")
    return adj


def bfs(adj, source):
    """Hop distance from ``source`` to every reachable vertex."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


RADICES = (1, 2, 3, 4, 5, 7, 8, 16)
FABRICS = {
    "star": star_topology,
    "ring": ring_topology,
    **{f"fat-tree-r{r}": partial(fat_tree_topology, leaf_radix=r) for r in RADICES},
}


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_closed_forms_match_bfs(build):
    """Every pair's hops, the diameter and the mean (bitwise) for n = 1..40."""
    for n in range(1, 41):
        topo = build(n)
        adj = switch_graph(topo)
        total = worst = 0
        for a in range(n):
            dist = bfs(adj, a)
            for b in range(n):
                assert topo.hops(a, b) == dist[b], (topo.name, a, b)
                if b > a:
                    total += dist[b]
                    worst = max(worst, dist[b])
        pairs = n * (n - 1) // 2
        assert topo.max_hops() == worst, topo.name
        assert topo.mean_hops() == (total / pairs if pairs else 0.0), topo.name


@pytest.mark.parametrize(
    "n,radix,links",
    [
        (8, 16, 4), (32, 16, 8), (40, 16, 12), (64, 16, 16), (128, 16, 32),
        (324, 16, 82), (7, 3, 1), (10, 4, 3), (17, 5, 5),
    ],
)
def test_fat_tree_bisection_matches_max_flow(n, radix, links):
    """Pinned to an exact max-flow over the switch graph with each leaf's
    uplink bundle as one edge of capacity ``max(1, radix // 2)``."""
    assert fat_tree_topology(n, leaf_radix=radix).bisection_links() == links


@pytest.mark.parametrize("n,links", [(1, 0), (2, 1), (3, 2), (8, 2), (9, 2)])
def test_ring_bisection(n, links):
    assert ring_topology(n).bisection_links() == links


@pytest.mark.parametrize("n,links", [(1, 0), (2, 1), (8, 4), (9, 4)])
def test_star_bisection(n, links):
    assert star_topology(n).bisection_links() == links


class TestStar:
    def test_pairwise_hops(self):
        star = star_topology(8)
        assert star.hops(0, 7) == 2

    def test_self_hops_zero(self):
        assert star_topology(8).hops(3, 3) == 0

    def test_single_node(self):
        assert star_topology(1).hops(0, 0) == 0

    def test_max_hops(self):
        assert star_topology(8).max_hops() == 2

    def test_mean_hops(self):
        assert star_topology(8).mean_hops() == pytest.approx(2.0)

    def test_bisection(self):
        # every pair of halves is separated by the 4 links of one half
        assert star_topology(8).bisection_links() == 4

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(SpecError):
            star_topology(4).hops(0, 4)


class TestRing:
    def test_adjacent(self):
        assert ring_topology(8).hops(0, 1) == 1

    def test_wraparound(self):
        assert ring_topology(8).hops(0, 7) == 1

    def test_diameter(self):
        assert ring_topology(8).max_hops() == 4

    def test_two_nodes(self):
        assert ring_topology(2).hops(0, 1) == 1

    def test_bisection_is_two(self):
        assert ring_topology(8).bisection_links() == 2


class TestFatTree:
    def test_same_leaf_two_hops(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.hops(0, 15) == 2

    def test_cross_leaf_four_hops(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.hops(0, 16) == 4

    def test_mean_hops_between_two_and_four(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert 2 < ft.mean_hops() < 4

    def test_single_leaf_degenerate(self):
        ft = fat_tree_topology(8, leaf_radix=16)
        assert ft.max_hops() == 2

    def test_bisection_counts_uplink_multiplicity(self):
        # two leaves of radix 16 -> 8 uplinks each; the cut is one leaf's
        # uplink bundle
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.bisection_links() == 8


class TestTopologyValidation:
    def test_zero_nodes_rejected(self):
        with pytest.raises(SpecError, match="num_nodes"):
            Topology("star", 0)

    def test_zero_leaf_radix_rejected(self):
        with pytest.raises(SpecError, match="leaf_radix"):
            fat_tree_topology(32, leaf_radix=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            Topology("hypercube", 8)

    def test_leaf_radix_only_for_fat_trees(self):
        with pytest.raises(SpecError, match="leaf_radix"):
            Topology("star", 8, 16)


class TestTopologyValue:
    def test_same_parameters_equal(self):
        a = fat_tree_topology(32, leaf_radix=16)
        b = fat_tree_topology(32, leaf_radix=16)
        assert a == b and hash(a) == hash(b)
        assert star_topology(8) == Topology("star", 8)

    def test_different_radix_unequal(self):
        assert fat_tree_topology(32, leaf_radix=16) != fat_tree_topology(32, leaf_radix=8)

    def test_names(self):
        assert star_topology(8).name == "star(8)"
        assert fat_tree_topology(32).name == "fat-tree(32,radix=16)"
        assert ring_topology(8).name == "ring(8)"


#: Distributions ``import repro`` may load: pyproject's dependencies, plus
#: the package itself when installed.
DECLARED = {"numpy", "scipy", "repro"}


def test_import_loads_only_declared_dependencies():
    """No module of the package loads a module from an undeclared
    distribution; fabrics are closed forms, so no graph library.

    The package roots are lazy, so ``import repro`` loads little; the probe
    imports every module instead, bar ``__main__`` (it runs the CLI) and the
    host kernels, which no verb imports and whose ``scipy.linalg`` lets
    ``numpy.f2py`` pick up ``charset_normalizer`` when it is installed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib, pkgutil, sys\n"
        "from importlib.metadata import packages_distributions\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__' and not info.name.startswith('repro.kernels.'):\n"
        "        importlib.import_module(info.name)\n"
        "owners = packages_distributions()\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted({d for m in loaded for d in owners.get(m, ())})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert set(proc.stdout.split()) <= DECLARED
