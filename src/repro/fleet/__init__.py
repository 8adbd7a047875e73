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

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "columns": ("FleetColumns", "is_batchable", "require_batchable"),
        "evaluate": (
            "FLEET_BENCHMARKS",
            "FleetEvaluation",
            "FleetScores",
            "evaluate_fleet",
        ),
        "pipeline": (
            "FleetDiagnostics",
            "FleetMember",
            "FleetRanking",
            "FleetRankingPipeline",
            "FleetRankingRow",
            "generated_fleet_members",
            "parse_weight_spec",
        ),
    },
)
