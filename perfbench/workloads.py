"""The four benchmark workloads: one op each, its inputs, and its output checks.

Each workload mirrors a ``tgi`` verb a user runs:

* ``paper_repro``   -- ``tgi run all``: every registered experiment over the
  calibrated paper configuration, with per-op meter seeds.
* ``fleet_rank``    -- ``tgi fleet rank`` at Top500 list scale: a fresh
  2,000-system generated fleet per op, spec materialization included.
* ``campaign_cold`` -- ``tgi campaign --fleet 6`` on an empty cache: the
  write path (payload serialization, cache puts, journal events).
* ``campaign_warm`` -- the same eight jobs over a filled cache: the read
  path (key hashing, cache reads, manifest, journal).

Op index 0 is the warm-up op.  It uses the paper's meter seeds and the
default fleet seed (20110615) and is checked against values pinned at the
seed commit.  Timed ops (index >= 1) derive their own seeds from the
workload seed, so no op can reuse another op's result while the simulated
work stays the same size.

This module imports ``repro`` lazily (inside :meth:`Workload.load`), so a
set-up probe that imports it pays for the program's imports where they are
measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Table II's arithmetic-mean column (paper prose; EXPERIMENTS.md).
TABLE2_AM = {"IOzone": 0.991, "STREAM": 0.992, "HPL": 0.581}

#: Default fleet seed of ``generated_fleet_members`` / ``fleet_jobs``.
DEFAULT_FLEET_SEED = 20110615

#: Systems per ``fleet_rank`` op (Top500 list scale).
FLEET_SIZE = 2000

#: Generated members per campaign op (``tgi campaign --fleet 6``).
CAMPAIGN_FLEET = 6

#: Digest of the default 2,000-system ranking (fleet seed 20110615),
#: recorded at the seed commit.  See :func:`ranking_digest`.
PINNED_RANKING_DIGEST = "11f375eac69e73b2614fc42799d7de4fb4f1fa2d5c98f69b94edd541e456f7bd"

#: Digest of the default eight-job campaign's payloads (paper seeds plus
#: ``fleet_jobs(6)``), recorded at the seed commit.  See
#: :func:`payload_digest`.
PINNED_PAYLOAD_DIGEST = "302b46774d7ba21e5f5d0a287af78be6d662ee75e21b201cbbe6efa0941dcedf"


def derive_seed(*parts: object) -> int:
    """A 31-bit seed from any parts, identical in every process."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") & 0x7FFFFFFF


def ranking_digest(ranking) -> str:
    """SHA-256 over each row's ranks, name and TGI (9 significant digits)."""
    lines = "\n".join(
        f"{r.tgi_rank} {r.flops_rank} {r.name} {r.tgi:.9g}" for r in ranking.rows
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def payload_digest(manifest: Dict) -> str:
    """SHA-256 over each job's id and payload digest, in submission order."""
    lines = "\n".join(f"{j['job_id']} {j['payload_sha256']}" for j in manifest["jobs"])
    return hashlib.sha256(lines.encode()).hexdigest()


@dataclass
class OpInputs:
    """Everything one op needs, built untimed before the op starts."""

    index: int
    args: Dict[str, object]
    scratch: List[Path] = field(default_factory=list)  # removed after the op


class Workload:
    """One benchmark workload.

    Subclasses set :attr:`name`, and implement :meth:`load` (the program's
    imports), :meth:`inputs`, :meth:`op` and :meth:`check`.
    """

    name = ""
    #: Boundaries (see ``tracer.BOUNDARIES``) that must record calls in a
    #: traced run: the layers this workload is meant to move.
    moves: Sequence[str] = ()
    #: Layers that do no work on this workload and must record no calls.
    silent: Sequence[str] = ()

    def load(self) -> None:
        """Import what the op needs."""
        raise NotImplementedError

    def fixture(self, workdir: Path) -> None:
        """Untimed state every op shares (none by default)."""

    def inputs(self, seed: int, index: int, workdir: Path) -> OpInputs:
        raise NotImplementedError

    def op(self, inputs: OpInputs):
        raise NotImplementedError

    def check(self, output) -> Optional[str]:
        """``None`` when a timed op's output is right, else the reason."""
        raise NotImplementedError

    def check_pinned(self, output) -> Optional[str]:
        """The warm-up op's check against values pinned at the seed commit."""
        raise NotImplementedError

    def cleanup(self, inputs: OpInputs) -> None:
        """Drop the op's files so later ops never see a growing directory."""
        for path in inputs.scratch:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)


# -- paper_repro ---------------------------------------------------------

class PaperRepro(Workload):
    name = "paper_repro"
    moves = (
        "benchmarks.build",
        "sim.execute",
        "sim.engine",
        "power.integrate",
        "power.meter",
        "core.tgi",
        "analysis.corr",
        "analysis.bootstrap",
        "experiments.run",
    )
    silent = ("fleet", "campaign", "serialization", "journal")

    def load(self) -> None:
        from repro.experiments.config import PAPER_CONFIG
        from repro.experiments.runner import run_all
        import repro.experiments.registry  # noqa: F401  (run_all imports it lazily)

        self.paper_config, self.run_all = PAPER_CONFIG, run_all

    def inputs(self, seed, index, workdir):
        return OpInputs(index, {"config": _paper_config(self, seed, index)})

    def op(self, inputs):
        return self.run_all(inputs.args["config"])

    @staticmethod
    def _am_column(output) -> Dict[str, float]:
        table = output["table2"]
        return {b: table.pcc(b, "arithmetic-mean") for b in TABLE2_AM}

    def check(self, output):
        # HPL's AM coefficient sits at 0.5805-0.5806, on the rounding edge
        # of the third decimal, so a meter seed may tip it to .580: timed
        # ops allow one unit in the third decimal.
        am = self._am_column(output)
        if any(abs(am[b] - TABLE2_AM[b]) > 0.001 for b in TABLE2_AM):
            return f"Table II AM column {am} is not within 0.001 of {TABLE2_AM}"
        return None

    def check_pinned(self, output):
        am = {b: round(v, 3) for b, v in self._am_column(output).items()}
        if am != TABLE2_AM:
            return f"Table II AM column {am} != {TABLE2_AM}"
        return None


# -- fleet_rank ----------------------------------------------------------

class FleetRank(Workload):
    name = "fleet_rank"
    moves = (
        "cluster.resolve",
        "cluster.generate",
        "cluster.topology",
        "analysis.corr",
        "analysis.bootstrap",
        "fleet.pack",
        "fleet.evaluate",
        "fleet.rank",
    )
    silent = (
        "benchmarks",
        "sim",
        "power",
        "core",
        "experiments",
        "campaign",
        "serialization",
        "journal",
    )

    def load(self) -> None:
        from repro.fleet.pipeline import FleetRankingPipeline, generated_fleet_members

        self.pipeline, self.members = FleetRankingPipeline, generated_fleet_members

    def inputs(self, seed, index, workdir):
        fleet_seed = (
            DEFAULT_FLEET_SEED if index == 0 else derive_seed(self.name, seed, index)
        )
        return OpInputs(index, {"fleet": self.members(FLEET_SIZE, fleet_seed=fleet_seed)})

    def op(self, inputs):
        return self.pipeline().rank(inputs.args["fleet"])

    def check(self, output):
        rows = output.rows
        if len(rows) != FLEET_SIZE:
            return f"{len(rows)} rows, expected {FLEET_SIZE}"
        if any(r.path != "batched" for r in rows):
            return "not every system took the batched path"
        expected = list(range(1, FLEET_SIZE + 1))
        if [r.tgi_rank for r in rows] != expected:
            return "TGI ranks are not 1..N in row order"
        if sorted(r.flops_rank for r in rows) != expected:
            return "FLOPS/W ranks are not a permutation of 1..N"
        return None

    def check_pinned(self, output):
        reason = self.check(output)
        if reason is None and ranking_digest(output) != PINNED_RANKING_DIGEST:
            reason = f"ranking digest {ranking_digest(output)} != pinned"
        return reason


# -- campaign_cold / campaign_warm ---------------------------------------

class _Campaign(Workload):
    def load(self) -> None:
        from repro.campaign.cache import ResultCache
        from repro.campaign.jobs import fleet_jobs, paper_jobs
        from repro.campaign.runner import CampaignRunner
        from repro.experiments.config import PAPER_CONFIG

        self.paper_config = PAPER_CONFIG
        self.runner, self.cache = CampaignRunner, ResultCache
        self.paper_jobs, self.fleet_jobs = paper_jobs, fleet_jobs

    def jobs(self, seed: int, index: int):
        """The eight jobs; index 0 (and ``campaign_warm``) use the default seeds."""
        config = _paper_config(self, seed, index)
        if index == 0:
            return self.paper_jobs(config) + self.fleet_jobs(CAMPAIGN_FLEET)
        meters = [
            derive_seed(self.name, seed, index, "fleet", k) for k in range(CAMPAIGN_FLEET)
        ]
        return self.paper_jobs(config) + self.fleet_jobs(
            CAMPAIGN_FLEET, executor_seeds=meters
        )

    def op(self, inputs):
        """One ``tgi campaign`` invocation: run, then read every job's sweep back."""
        a = inputs.args
        runner = self.runner(cache=self.cache(a["cache_dir"]), journal=a["journal"])
        result = runner.run(a["jobs"])
        return result, [outcome.sweep for outcome in result]

    def check_pinned(self, output):
        reason = self.check(output)
        digest = payload_digest(output[0].manifest)
        if reason is None and digest != PINNED_PAYLOAD_DIGEST:
            reason = f"payload digest {digest} != pinned"
        return reason


class CampaignCold(_Campaign):
    name = "campaign_cold"
    moves = (
        "cluster.resolve",
        "benchmarks.build",
        "sim.execute",
        "sim.engine",
        "power.integrate",
        "power.meter",
        "campaign.run",
        "campaign.execute_job",
        "campaign.cache_get",
        "campaign.cache_put",
        "campaign.cache_key",
        "campaign.build_manifest",
        "serialization.to_dict",
        "serialization.from_dict",
        "journal.emit",
        "journal.finalize",
    )
    silent = ("fleet", "experiments", "core", "analysis")

    def inputs(self, seed, index, workdir):
        cache_dir = workdir / f"cold-{index}"
        journal = workdir / f"cold-{index}.jsonl"
        summary = workdir / f"cold-{index}.jsonl.summary.json"
        jobs = self.jobs(seed, index)
        return OpInputs(
            index,
            {"cache_dir": cache_dir, "journal": journal, "jobs": jobs},
            scratch=[cache_dir, journal, summary],
        )

    def check(self, output):
        result, sweeps = output
        stats = result.cache_stats
        puts = result.manifest["cache"]["puts"]
        if not result.ok:
            return "campaign not ok"
        if (stats["misses"], stats["hits"], puts) != (8, 0, 8):
            return f"expected 8 misses / 0 hits / 8 puts, got {stats} puts={puts}"
        if len(sweeps) != 8:
            return f"{len(sweeps)} sweeps read back, expected 8"
        return None


class CampaignWarm(_Campaign):
    name = "campaign_warm"
    moves = (
        "campaign.run",
        "campaign.cache_get",
        "campaign.cache_key",
        "campaign.build_manifest",
        "serialization.from_dict",
        "journal.emit",
        "journal.finalize",
    )
    silent = (
        "cluster",
        "benchmarks",
        "sim",
        "power",
        "core",
        "analysis",
        "experiments",
        "fleet",
        "campaign.execute_job",
        "campaign.cache_put",
        "serialization.to_dict",
    )

    def __init__(self) -> None:
        self.fill_fingerprint: Optional[str] = None

    def fixture(self, workdir):
        """Fill the shared cache once, in a child process.

        The fill is a fixture, not set-up: its cost is what
        ``campaign_cold`` measures.  Running it out of process keeps the
        run's peak RSS about the read path.
        """
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), "fill", str(workdir)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        ).stdout
        self.fill_fingerprint = json.loads(out.strip().splitlines()[-1])["fingerprint"]

    def inputs(self, seed, index, workdir):
        journal = workdir / f"warm-{index}.jsonl"
        summary = workdir / f"warm-{index}.jsonl.summary.json"
        return OpInputs(
            index,
            {
                "cache_dir": workdir / "warm-cache",
                "journal": journal,
                "jobs": self.jobs(seed, 0),
            },
            scratch=[journal, summary],
        )

    def check(self, output):
        result, sweeps = output
        stats = result.cache_stats
        if not result.ok:
            return "campaign not ok"
        if (stats["hits"], stats["misses"]) != (8, 0):
            return f"expected 8 hits / 0 misses, got {stats}"
        if result.manifest["fingerprint"] != self.fill_fingerprint:
            return "manifest fingerprint differs from the fill's"
        if len(sweeps) != 8:
            return f"{len(sweeps)} sweeps read back, expected 8"
        return None


def fill_cache(workdir: Path) -> str:
    """Run the default eight jobs into ``<workdir>/warm-cache``; returns the fingerprint."""
    workload = CampaignWarm()
    workload.load()
    inputs = workload.inputs(0, 0, workdir)
    try:
        result, _ = workload.op(inputs)
    finally:
        workload.cleanup(inputs)
    if not result.ok or result.cache_stats["misses"] != 8:
        raise RuntimeError(f"cache fill failed: {result.cache_stats}")
    return result.manifest["fingerprint"]


def _paper_config(workload: Workload, seed: int, index: int):
    """The paper config; timed ops get their own meter seeds."""
    if index == 0:
        return workload.paper_config
    return dataclasses.replace(
        workload.paper_config,
        fire_seed=derive_seed(workload.name, seed, index, "fire"),
        reference_seed=derive_seed(workload.name, seed, index, "reference"),
    )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "paper_repro": PaperRepro,
    "fleet_rank": FleetRank,
    "campaign_cold": CampaignCold,
    "campaign_warm": CampaignWarm,
}
