"""Interconnect topologies.

A :class:`Topology` is a frozen value — fabric kind, compute-endpoint count
and (for fat trees) leaf radix — that answers what the b_eff network model
(:mod:`repro.perfmodels.network`) needs: the mean hop count between compute
nodes (integers ``0..n-1``).  The answer is a closed form, exact for the
switch graph each kind describes.

Three constructors cover the systems modelled:

* :func:`star_topology` — every node one hop from a single crossbar switch
  (an adequate model of a small cluster on one InfiniBand switch, like Fire);
* :func:`fat_tree_topology` — two-level fat tree (SystemG-scale machines);
* :func:`ring_topology` — 1-D torus, included for ablation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import SpecError
from ..validation import check_positive_int

__all__ = ["Topology", "star_topology", "fat_tree_topology", "ring_topology"]

_KINDS = ("star", "fat-tree", "ring")


@dataclass(frozen=True)
class Topology:
    """An interconnect fabric over ``num_nodes`` compute endpoints.

    ``kind`` is ``"star"``, ``"fat-tree"`` or ``"ring"``.  ``leaf_radix`` is
    the number of consecutive compute nodes per fat-tree leaf switch and is
    ``None`` for the other kinds.  Equality and hash are by these fields, so
    two independently built fabrics with the same parameters compare equal.
    """

    kind: str
    num_nodes: int
    leaf_radix: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SpecError(f"topology kind must be one of {_KINDS}, got {self.kind!r}")
        check_positive_int(self.num_nodes, "num_nodes", exc=SpecError)
        if self.kind == "fat-tree":
            check_positive_int(self.leaf_radix, "leaf_radix", exc=SpecError)
        elif self.leaf_radix is not None:
            raise SpecError(f"leaf_radix applies only to fat trees, not {self.kind}")

    def mean_hops(self) -> float:
        """Mean pairwise hop count over distinct compute endpoints.

        Each mean is a ratio of integers divided last, so the float is the
        correctly rounded mean: the same bits as summing every pair's hops.
        """
        n = self.num_nodes
        if n == 1:
            return 0.0
        if self.kind == "star":
            return 2.0
        if self.kind == "ring":
            # every node's distances to the others sum to floor(n^2 / 4)
            return (n * n // 4) / (n - 1)
        r = self.leaf_radix
        same_leaf = (n // r) * (r * (r - 1) // 2) + (n % r) * (n % r - 1) // 2
        pairs = n * (n - 1) // 2
        return (2 * same_leaf + 4 * (pairs - same_leaf)) / pairs


def star_topology(num_nodes: int) -> Topology:
    """All compute nodes attached to one crossbar switch (2 hops pairwise)."""
    return Topology("star", num_nodes)


def fat_tree_topology(num_nodes: int, *, leaf_radix: int = 16) -> Topology:
    """Two-level fat tree: leaf switches of ``leaf_radix`` nodes + one spine.

    Nodes on the same leaf are 2 hops apart; across leaves, 4 hops.
    """
    return Topology("fat-tree", num_nodes, leaf_radix)


def ring_topology(num_nodes: int) -> Topology:
    """1-D torus: node ``i`` linked to ``(i +/- 1) mod n``."""
    return Topology("ring", num_nodes)
