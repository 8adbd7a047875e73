#!/usr/bin/env python
"""A simulated Green500-style list: FLOPS/W ranking vs TGI ranking.

The paper's core criticism of the Green500 is that FLOPS/W sees only the
CPU subsystem.  Here we generate a fleet of plausible machines, score the
full suite on each, and build two lists:

* the classic list, ranked by HPL MFLOPS/W;
* the TGI list, ranked against a common reference with configurable
  weights (equal by default).

The two lists disagree — machines with strong compute but weak disks or
starved memory channels fall when the whole system is scored — and the
example reports exactly who moved and why.

The fleet is ranked through :class:`repro.fleet.FleetRankingPipeline`.  By
default every system takes the batched analytic path (one vectorized pass
over the whole fleet — thousands of systems rank in seconds); pass
``--full-sim`` to push each machine through the campaign executors
instead (one simulated, metered job per system — the pre-batched
behaviour of this example, noise included).

Knobs (flags override the environment):

* ``--fleet-size`` / ``REPRO_FLEET_SIZE`` — number of machines (default 10)
* ``--era`` / ``REPRO_FLEET_ERA`` — era template (default 2011)
* ``--weights`` / ``REPRO_FLEET_WEIGHTS`` — e.g. ``HPL=2,STREAM=1,IOzone=1``
* ``--full-sim``, ``REPRO_WORKERS``, ``REPRO_CAMPAIGN_CACHE`` — simulation
  leg: force it, set its pool width, cache its job results

Run:  python examples/green500_style_list.py
"""

import argparse
import dataclasses
import os

from repro.analysis import ParetoPoint, dominated_by
from repro.experiments import PAPER_CONFIG
from repro.fleet import (
    FleetRankingPipeline,
    generated_fleet_members,
    parse_weight_spec,
)

#: The quick suite this example measures everywhere (small HPL, short runs).
LIST_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=20160,
    hpl_rounds=2,
    stream_target_seconds=15,
    iozone_target_seconds=15,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fleet-size",
        type=int,
        default=int(os.environ.get("REPRO_FLEET_SIZE", "10")),
        help="number of generated machines (env REPRO_FLEET_SIZE)",
    )
    parser.add_argument(
        "--era",
        choices=("2008", "2011", "2015", "2021"),
        default=os.environ.get("REPRO_FLEET_ERA", "2011"),
        help="era template (env REPRO_FLEET_ERA)",
    )
    parser.add_argument(
        "--weights",
        default=os.environ.get("REPRO_FLEET_WEIGHTS"),
        metavar="SPEC",
        help='TGI weights, e.g. "HPL=2,STREAM=1,IOzone=1" '
        "(normalized; env REPRO_FLEET_WEIGHTS; default equal)",
    )
    parser.add_argument(
        "--fleet-seed", type=int, default=20110615, help="fleet generation seed"
    )
    parser.add_argument(
        "--full-sim",
        action="store_true",
        help="score through the campaign executors (simulated meter) "
        "instead of the batched analytic path",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    weights = parse_weight_spec(args.weights) if args.weights else None
    pipeline = FleetRankingPipeline(
        config=LIST_CONFIG,
        weights=weights,
        full_sim=args.full_sim,
        workers=int(os.environ.get("REPRO_WORKERS", "4")),
        cache_dir=os.environ.get("REPRO_CAMPAIGN_CACHE"),
    )
    members = generated_fleet_members(
        args.fleet_size, era=args.era, fleet_seed=args.fleet_seed
    )
    mode = (
        "the campaign executors" if args.full_sim else "the batched analytic path"
    )
    print(
        f"scoring a fleet of {args.fleet_size} machines (era {args.era}) "
        f"through {mode}..."
    )
    ranking = pipeline.rank(members, label="green500-style-list")
    stats = ranking.stats
    print(
        f"ranking done in {stats['wall_s']:.2f} s "
        f"({stats['batched']} batched, {stats['simulated']} simulated, "
        f"{stats['cache_hits']} cache hits)"
    )

    print()
    print(ranking.format_table(title="Green500-style list, rescored with TGI"))

    rho = ranking.diagnostics.spearman_rho
    if rho is not None:
        print(
            f"\nSpearman rank agreement between the two lists: {rho:.2f} — "
            "systems with unbalanced subsystems move several places when the "
            "whole system is scored, which is precisely TGI's pitch."
        )
    for note in ranking.diagnostics.notes:
        print(f"note: {note}")

    # --- the two-objective view neither list shows ----------------------
    points = [
        ParetoPoint(
            name=row.name,
            performance=row.performances["HPL"],
            power_w=row.powers_w["HPL"],
        )
        for row in ranking
    ]
    dom = dominated_by(points)
    frontier = [name for name, dominators in dom.items() if not dominators]
    print(
        f"\nPareto frontier in raw (HPL performance, power) space: "
        f"{', '.join(sorted(frontier))}"
    )
    off_frontier_leader = next((row.name for row in ranking if dom[row.name]), None)
    if off_frontier_leader:
        print(
            f"note: {off_frontier_leader} ranks highly on TGI while being "
            f"Pareto-dominated by {', '.join(dom[off_frontier_leader])} — "
            "single numbers always hide part of the trade space."
        )


if __name__ == "__main__":
    main()
