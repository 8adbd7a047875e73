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
    """The mean over every pair's hops (bitwise) for n = 1..40."""
    for n in range(1, 41):
        topo = build(n)
        adj = switch_graph(topo)
        total = 0
        for a in range(n):
            dist = bfs(adj, a)
            total += sum(dist[b] for b in range(a + 1, n))
        pairs = n * (n - 1) // 2
        assert topo.mean_hops() == (total / pairs if pairs else 0.0), topo


class TestStar:
    def test_mean_hops(self):
        assert star_topology(8).mean_hops() == pytest.approx(2.0)


class TestFatTree:
    def test_mean_hops_between_two_and_four(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert 2 < ft.mean_hops() < 4


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


#: Distributions ``import repro`` may load: pyproject's dependencies, plus
#: the package itself when installed.
DECLARED = {"numpy", "repro"}


def test_import_loads_only_declared_dependencies():
    """No module of the package loads a module from an undeclared
    distribution: fabrics are closed forms, so no graph library, and SciPy
    serves only the tests.

    The package roots are lazy, so ``import repro`` loads little; the probe
    imports every module instead, bar ``__main__`` (it runs the CLI)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib, pkgutil, sys\n"
        "from importlib.metadata import packages_distributions\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        "owners = packages_distributions()\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted({d for m in loaded for d in owners.get(m, ())})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert set(proc.stdout.split()) <= DECLARED
