"""Batched cross-system fleet evaluation and Green500-style ranking.

The sub-modules split along the data flow:

* :mod:`repro.fleet.columns` — struct-of-arrays packing of ``ClusterSpec``
  fleets (one column per subsystem knob, one row per system);
* :mod:`repro.fleet.evaluate` — the vectorized full-machine suite scorer
  and its content-keyed memoizer;
* :mod:`repro.fleet.pipeline` — chunked ranking pipeline: batchable
  systems take the analytic path inline, the rest fall back to the
  campaign executor; output is a Green500-style TGI list.
"""

from .columns import FleetColumns, is_batchable, require_batchable
from .evaluate import (
    FLEET_BENCHMARKS,
    FleetEvaluation,
    FleetScores,
    evaluate_fleet,
)
from .pipeline import (
    FleetDiagnostics,
    FleetMember,
    FleetRanking,
    FleetRankingPipeline,
    FleetRankingRow,
    generated_fleet_members,
    parse_weight_spec,
)

__all__ = [
    "FLEET_BENCHMARKS",
    "FleetColumns",
    "FleetDiagnostics",
    "FleetEvaluation",
    "FleetMember",
    "FleetRanking",
    "FleetRankingPipeline",
    "FleetRankingRow",
    "FleetScores",
    "evaluate_fleet",
    "generated_fleet_members",
    "is_batchable",
    "parse_weight_spec",
    "require_batchable",
]
