"""The deterministic shard plan behind campaign execution.

Each pending job is assigned to a shard by :func:`shard_of` — a pure
function of the job's content-addressed cache key — so shard membership is
stable across runs, resumes, and hosts; no coordinator state needs to
survive a crash for the plan to be reconstructible.  Shards are a
*locality* hint, not a partition wall: :class:`~repro.campaign.runner.CampaignRunner`
keeps each worker slot on a home shard and lets it steal from the deepest
remaining backlog once its home runs dry.

This module is deliberately pure (no execution, no I/O) so the runner can
import it without a cycle.  See ``docs/distributed_campaigns.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..exceptions import ReproError

__all__ = ["shard_of", "ShardPlan", "plan_shards"]


def shard_of(key: str, num_shards: int) -> int:
    """The shard a cache key belongs to (pure, content-driven).

    Uses the key's leading 64 bits, so shard membership depends only on
    the job's canonical serialization — every run, resume, or host that
    agrees on the job agrees on its shard without shared state.
    """
    if num_shards < 1:
        raise ReproError(f"num_shards must be >= 1, got {num_shards}")
    return int(key[:16], 16) % num_shards


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of job positions into shards.

    ``assignments[s]`` holds the positions (into the planned key list)
    that landed in shard ``s``, in submission order.  Shards may be empty
    — content-driven assignment balances only in expectation; skew is
    what work stealing absorbs at run time.
    """

    num_shards: int
    assignments: Tuple[Tuple[int, ...], ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(shard) for shard in self.assignments)

    @property
    def jobs(self) -> int:
        return sum(self.sizes)


def plan_shards(keys: Sequence[str], num_shards: int) -> ShardPlan:
    """Partition keyed jobs into ``num_shards`` deterministic shards."""
    if num_shards < 1:
        raise ReproError(f"num_shards must be >= 1, got {num_shards}")
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for position, key in enumerate(keys):
        buckets[shard_of(key, num_shards)].append(position)
    return ShardPlan(
        num_shards=num_shards,
        assignments=tuple(tuple(bucket) for bucket in buckets),
    )
