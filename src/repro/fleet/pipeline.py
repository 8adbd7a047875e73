"""Chunked Green500-style fleet ranking over mixed evaluation paths.

:class:`FleetRankingPipeline` takes a fleet — generated members, presets,
or raw specs — and produces one TGI-ranked list.  Systems the analytic
batched path covers (CPU-only nodes) are scored inline, chunk by chunk,
through :func:`repro.fleet.evaluate.evaluate_fleet`; everything else
(accelerated nodes, or ``full_sim=True``) falls back to the campaign
executor, :class:`~repro.campaign.runner.CampaignRunner`, with its full
worker/cache/retry/journal/timeline surface.  Both legs land in the same
row schema, so the output list is indifferent to which path scored a
system.

The ranking mirrors ``examples/green500_style_list.py``: MFLOPS/W rank vs
TGI rank, movers, the weakest subsystem per machine, Spearman/Pearson rank
agreement, and bootstrap uncertainty bands from :mod:`repro.analysis`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import journal as jrnl
from .. import telemetry as tele
from ..analysis.bootstrap import BootstrapCI, bootstrap_mean_ci, bootstrap_pearson_ci
from ..analysis.correlation import pearson, spearman
from ..analysis.tables import render_table
from ..campaign.cache import ResultCache
from ..campaign.jobs import CampaignJob, ClusterRef
from ..cluster.cluster import ClusterSpec
from ..cluster.generator import fleet_seeds
from ..core.weights import validate_weights
from ..exceptions import FleetError, MetricError
from ..experiments.config import PAPER_CONFIG, ExperimentConfig
from ..rng import ensure_rng
from .columns import is_batchable
from .evaluate import FLEET_BENCHMARKS, evaluate_fleet

if TYPE_CHECKING:  # annotation only: a batched fleet never loads the executor
    from ..campaign.runner import CampaignRunner

__all__ = [
    "FleetMember",
    "generated_fleet_members",
    "parse_weight_spec",
    "FleetRankingRow",
    "FleetDiagnostics",
    "FleetRanking",
    "FleetRankingPipeline",
]

#: job_id/name reserved for the reference machine's run.
_REFERENCE_ID = "reference"

#: Default reference: the example's SystemG-16 (paper Table I machine).
_DEFAULT_REFERENCE = ClusterRef(kind="preset", name="system_g", num_nodes=16)


@dataclass(frozen=True)
class FleetMember:
    """One rankable system: a spec *reference* plus its meter seed.

    Referencing by :class:`~repro.campaign.jobs.ClusterRef` (not live spec)
    keeps members tiny and lets the campaign fallback ship them to worker
    processes unchanged.  ``meter_seed`` only matters on the simulation
    path — the analytic path has no meter.
    """

    name: str
    cluster: ClusterRef
    meter_seed: int = 0


def generated_fleet_members(
    count: int,
    *,
    era: str = "2011",
    fleet_seed: int = 20110615,
) -> List[FleetMember]:
    """The standard generated fleet as rankable members.

    Names, spec seeds, and meter seeds (``100 + i``) match
    :func:`repro.campaign.jobs.fleet_jobs`, so a batched ranking and a
    campaign ranking of the same fleet score the same machines.
    """
    members = []
    for i, sub_seed in enumerate(fleet_seeds(count, fleet_seed)):
        name = f"{era}-sys-{i:02d}"
        members.append(
            FleetMember(
                name=name,
                cluster=ClusterRef(kind="generated", name=name, era=era, seed=sub_seed),
                meter_seed=100 + i,
            )
        )
    return members


def parse_weight_spec(spec: str) -> Dict[str, float]:
    """Parse ``"HPL=0.5,STREAM=0.25,IOzone=0.25"`` into a weight mapping.

    Values are normalized to sum to one, so ratios like ``HPL=2,STREAM=1,
    IOzone=1`` work too.
    """
    weights: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise FleetError(f"weight {part!r} is not NAME=VALUE")
        try:
            weights[name.strip()] = float(value)
        except ValueError:
            raise FleetError(f"weight value {value!r} is not a number") from None
    if not weights:
        raise FleetError(f"no weights in spec {spec!r}")
    return _normalized_weights(weights)


def _normalized_weights(weights: Mapping[str, float]) -> Dict[str, float]:
    total = sum(weights.values())
    if total <= 0:
        raise FleetError(f"weights must sum to a positive value, got {total}")
    return validate_weights({k: v / total for k, v in weights.items()})


@dataclass(frozen=True)
class FleetRankingRow:
    """One system's line of the ranked list (plus its ingredients)."""

    tgi_rank: int
    name: str
    tgi: float
    flops_per_watt: float
    flops_rank: int
    moved: int  # flops_rank - tgi_rank: positive = climbed under TGI
    weakest: str  # benchmark with the smallest REE
    path: str  # "batched" | "simulated"
    ree: Dict[str, float]
    efficiencies: Dict[str, float]
    performances: Dict[str, float]
    powers_w: Dict[str, float]

    def as_dict(self) -> Dict:
        return {
            "tgi_rank": self.tgi_rank,
            "name": self.name,
            "tgi": self.tgi,
            "flops_per_watt": self.flops_per_watt,
            "flops_rank": self.flops_rank,
            "moved": self.moved,
            "weakest": self.weakest,
            "path": self.path,
            "ree": dict(self.ree),
            "efficiencies": dict(self.efficiencies),
            "performances": dict(self.performances),
            "powers_w": dict(self.powers_w),
        }


@dataclass(frozen=True)
class FleetDiagnostics:
    """Rank-agreement and uncertainty diagnostics of one ranking.

    Degenerate inputs (constant TGI across a fleet of memoized clones,
    fleets too small to resample) don't fail the ranking — the affected
    statistic is ``None`` and ``notes`` says why.
    """

    spearman_rho: Optional[float]
    pearson_r: Optional[float]
    pearson_ci: Optional[BootstrapCI]
    tgi_mean_ci: Optional[BootstrapCI]
    notes: Tuple[str, ...] = ()

    def as_dict(self) -> Dict:
        def ci(value: Optional[BootstrapCI]):
            if value is None:
                return None
            return {
                "estimate": value.estimate,
                "low": value.low,
                "high": value.high,
                "confidence": value.confidence,
            }

        return {
            "spearman_rho": self.spearman_rho,
            "pearson_r": self.pearson_r,
            "pearson_ci": ci(self.pearson_ci),
            "tgi_mean_ci": ci(self.tgi_mean_ci),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class FleetRanking:
    """A ranked fleet: rows in TGI order plus run accounting."""

    rows: Tuple[FleetRankingRow, ...]
    reference_name: str
    reference_efficiencies: Dict[str, float]
    weights: Dict[str, float]
    diagnostics: FleetDiagnostics
    stats: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def row(self, name: str) -> FleetRankingRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def format_table(self, *, title: str, top: int = 0) -> str:
        """The Green500-style list: TGI rank vs MFLOPS/W rank, places moved
        and weakest subsystem per system; the first ``top`` rows (0 = all)."""
        rows = []
        for row in self.rows[: top or None]:
            rows.append(
                [
                    row.tgi_rank,
                    row.name,
                    f"{row.tgi:.3f}",
                    f"{row.flops_per_watt / 1e6:.0f}",
                    row.flops_rank,
                    f"{row.moved:+d}" if row.moved else "=",
                    row.weakest,
                ]
            )
        return render_table(
            ["TGI rank", "System", "TGI", "MFLOPS/W", "FLOPS/W rank", "moved", "weakest"],
            rows,
            title=title,
            align_right_from=2,
        )

    def as_dict(self) -> Dict:
        return {
            "reference": self.reference_name,
            "reference_efficiencies": dict(self.reference_efficiencies),
            "weights": dict(self.weights),
            "rows": [row.as_dict() for row in self.rows],
            "diagnostics": self.diagnostics.as_dict(),
            "stats": dict(self.stats),
        }


class FleetRankingPipeline:
    """Route, score, and rank a fleet end to end.

    Parameters
    ----------
    config:
        Suite configuration every system (and the reference) runs.
    reference:
        The reference machine (Eq. 3 denominator) as a
        :class:`~repro.campaign.jobs.ClusterRef`; defaults to the
        SystemG-16 preset of the Green500-style example.
    reference_suite:
        ``True`` sizes the reference's HPL from memory (the paper's
        capability-run semantics); ``False`` (default) scores the
        reference with the same fixed-``N`` suite as the fleet, matching
        the example.
    reference_seed:
        Meter seed of the reference job on the simulation path.
    weights:
        Benchmark weight mapping (normalized to sum to one); default is
        the paper's arithmetic mean over the suite.
    full_sim:
        Force *every* system through the campaign executor (the
        pre-batched behaviour; meter noise included).
    chunk_size:
        Systems per vectorized evaluation chunk (bounds peak memory).
    workers / cache_dir / retries / keep_going:
        Campaign-leg execution policy.  All idle when everything batches.
    journal:
        Flight-recorder path or caller-owned writer.  The campaign leg
        logs its usual events into it; the pipeline appends one
        ``fleet.ranked`` summary event.
    timeline:
        Power-timeline artifact directory for the campaign leg.
    bootstrap_resamples / bootstrap_seed / confidence:
        Uncertainty-band policy for the diagnostics.
    """

    def __init__(
        self,
        *,
        config: ExperimentConfig = PAPER_CONFIG,
        reference: ClusterRef = _DEFAULT_REFERENCE,
        reference_suite: bool = False,
        reference_seed: int = 1,
        weights: Optional[Mapping[str, float]] = None,
        full_sim: bool = False,
        chunk_size: int = 1024,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        retries: int = 0,
        keep_going: bool = False,
        journal: Optional[Union[str, Path, jrnl.JournalWriter]] = None,
        timeline: Optional[Union[str, Path]] = None,
        bootstrap_resamples: int = 1000,
        bootstrap_seed: int = 0,
        confidence: float = 0.95,
    ):
        if chunk_size < 1:
            raise FleetError(f"chunk_size must be >= 1, got {chunk_size}")
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        self.config = config
        self.reference = reference
        self.reference_suite = reference_suite
        self.reference_seed = reference_seed
        self.weights = _normalized_weights(
            weights or {b: 1.0 for b in FLEET_BENCHMARKS}
        )
        unknown = sorted(set(self.weights) - set(FLEET_BENCHMARKS))
        if unknown:
            raise FleetError(
                f"weights name unknown benchmarks {unknown}; the fleet suite "
                f"is {list(FLEET_BENCHMARKS)}"
            )
        self.full_sim = full_sim
        self.chunk_size = chunk_size
        self.workers = workers
        self.cache_dir = cache_dir
        self.retries = retries
        self.keep_going = keep_going
        self.journal = journal
        self.timeline = timeline
        self.bootstrap_resamples = bootstrap_resamples
        self.bootstrap_seed = bootstrap_seed
        self.confidence = confidence

    # ------------------------------------------------------------------
    def _journal_writer(
        self, label: str
    ) -> Tuple[Optional[jrnl.JournalWriter], bool]:
        if self.journal is None:
            return None, False
        if isinstance(self.journal, jrnl.JournalWriter):
            return self.journal, False
        return jrnl.JournalWriter(Path(self.journal), label=label), True

    def _campaign_executor(self, writer: Optional[jrnl.JournalWriter]) -> CampaignRunner:
        from ..campaign.runner import CampaignRunner

        return CampaignRunner(
            workers=self.workers,
            cache=ResultCache(self.cache_dir) if self.cache_dir else None,
            retries=self.retries,
            keep_going=self.keep_going,
            journal=writer,
            timeline=self.timeline,
        )

    @staticmethod
    def _as_member(system: Union[FleetMember, ClusterSpec], index: int) -> Tuple[
        str, Optional[ClusterSpec], Optional[FleetMember]
    ]:
        if isinstance(system, FleetMember):
            return system.name, None, system
        if isinstance(system, ClusterSpec):
            return system.name, system, None
        raise FleetError(
            f"fleet entry {index} must be a FleetMember or ClusterSpec, "
            f"got {type(system).__name__}"
        )

    # ------------------------------------------------------------------
    def rank(
        self,
        fleet: Sequence[Union[FleetMember, ClusterSpec]],
        *,
        label: str = "fleet-rank",
    ) -> FleetRanking:
        """Score every system and return the TGI-ranked list."""
        if not fleet:
            raise FleetError("cannot rank an empty fleet")
        started = time.perf_counter()
        writer, owns_journal = self._journal_writer(label)
        try:
            with tele.span("fleet.rank", systems=len(fleet), label=label):
                ranking = self._rank(fleet, label, writer, started)
            if writer is not None:
                stats = ranking.stats
                writer.emit(
                    "fleet.ranked",
                    systems=int(stats["systems"]),
                    batched=int(stats["batched"]),
                    simulated=int(stats["simulated"]),
                    wall_s=float(stats["wall_s"]),
                )
                if owns_journal:
                    writer.finalize(
                        status="ok",
                        total_wall_s=float(stats["wall_s"]),
                    )
            return ranking
        finally:
            if writer is not None and owns_journal and not writer.closed:
                writer.close()

    # ------------------------------------------------------------------
    def _rank(
        self,
        fleet: Sequence[Union[FleetMember, ClusterSpec]],
        label: str,
        writer: Optional[jrnl.JournalWriter],
        started: float,
    ) -> FleetRanking:
        names: List[str] = []
        seen: Set[str] = set()
        batched: List[Tuple[int, ClusterSpec]] = []  # (fleet index, spec)
        simulated: List[Tuple[int, FleetMember]] = []
        with tele.span("fleet.pack", systems=len(fleet)):
            for i, system in enumerate(fleet):
                name, spec, member = self._as_member(system, i)
                if name == _REFERENCE_ID:
                    raise FleetError(
                        f"system name {_REFERENCE_ID!r} is reserved for the "
                        "reference machine"
                    )
                if name in seen:
                    raise FleetError(f"duplicate system name {name!r}")
                seen.add(name)
                names.append(name)
                if spec is None:
                    spec = member.cluster.resolve()
                if not self.full_sim and is_batchable(spec):
                    batched.append((i, spec))
                elif member is None:
                    raise FleetError(
                        f"system {name!r} needs the simulation path (full_sim "
                        "or accelerators) — pass it as a FleetMember so the "
                        "campaign executors can reference it"
                    )
                else:
                    simulated.append((i, member))

        n = len(names)
        efficiencies = {b: np.zeros(n) for b in FLEET_BENCHMARKS}
        performances = {b: np.zeros(n) for b in FLEET_BENCHMARKS}
        powers = {b: np.zeros(n) for b in FLEET_BENCHMARKS}
        memo_unique = {b: 0 for b in FLEET_BENCHMARKS}
        row_path = ["batched"] * n

        # --- analytic leg (chunked, vectorized) ------------------------
        with tele.span("fleet.evaluate", systems=len(batched)):
            for start in range(0, len(batched), self.chunk_size):
                chunk = batched[start : start + self.chunk_size]
                idx = np.array([i for i, _ in chunk])
                evaluation = evaluate_fleet([spec for _, spec in chunk], self.config)
                for b in FLEET_BENCHMARKS:
                    scores = evaluation.scores[b]
                    efficiencies[b][idx] = scores.efficiency
                    performances[b][idx] = scores.performance
                    powers[b][idx] = scores.power_w
                    memo_unique[b] += evaluation.memo_unique[b]

        # --- simulation leg (campaign executors) -----------------------
        cache_hits = 0
        ref_efficiencies: Optional[Dict[str, float]] = None
        jobs = [
            CampaignJob(
                job_id=member.name,
                cluster=member.cluster,
                core_counts=(),
                seed=member.meter_seed,
                config=self.config,
            )
            for _, member in simulated
        ]
        reference_spec = self.reference.resolve()
        reference_inline = not self.full_sim and is_batchable(reference_spec)
        if not reference_inline:
            jobs.append(
                CampaignJob(
                    job_id=_REFERENCE_ID,
                    cluster=self.reference,
                    core_counts=(),
                    seed=self.reference_seed,
                    config=self.config,
                    reference_suite=self.reference_suite,
                )
            )
        if jobs:
            executor = self._campaign_executor(writer)
            result = executor.run(jobs, label=label)
            cache_hits = result.cache_hits
            for i, member in simulated:
                suite = result.suite(member.name)
                row_path[i] = "simulated"
                for b in FLEET_BENCHMARKS:
                    try:
                        r = suite[b]
                    except KeyError:
                        raise FleetError(
                            f"simulated system {member.name!r} did not report "
                            f"benchmark {b!r}"
                        ) from None
                    efficiencies[b][i] = r.energy_efficiency
                    performances[b][i] = r.performance
                    powers[b][i] = r.power_w
            if not reference_inline:
                ref_suite = result.suite(_REFERENCE_ID)
                ref_efficiencies = {
                    b: ref_suite[b].energy_efficiency for b in FLEET_BENCHMARKS
                }
        if reference_inline:
            ref_rows = evaluate_fleet(
                [reference_spec], self.config, reference=self.reference_suite
            )
            ref_efficiencies = {
                b: float(ref_rows.scores[b].efficiency[0]) for b in FLEET_BENCHMARKS
            }
        assert ref_efficiencies is not None

        # --- Eq. 3 / Eq. 4 over the whole fleet at once ----------------
        ree = {
            b: efficiencies[b] / ref_efficiencies[b] for b in FLEET_BENCHMARKS
        }
        # Unnamed benchmarks carry zero weight (weights are normalized over
        # the named subset, e.g. "HPL=1" reproduces the pure FLOPS/W list).
        weight_vec = np.array([self.weights.get(b, 0.0) for b in FLEET_BENCHMARKS])
        ree_matrix = np.column_stack([ree[b] for b in FLEET_BENCHMARKS])
        tgi = ree_matrix @ weight_vec

        names_arr = np.array(names)
        flops_per_watt = efficiencies["HPL"]
        tgi_rank = np.empty(n, dtype=int)
        tgi_rank[np.lexsort((names_arr, -tgi))] = np.arange(1, n + 1)
        flops_rank = np.empty(n, dtype=int)
        flops_rank[np.lexsort((names_arr, -flops_per_watt))] = np.arange(1, n + 1)
        weakest = np.argmin(ree_matrix, axis=1)

        rows = []
        for i in np.argsort(tgi_rank):
            rows.append(
                FleetRankingRow(
                    tgi_rank=int(tgi_rank[i]),
                    name=names[i],
                    tgi=float(tgi[i]),
                    flops_per_watt=float(flops_per_watt[i]),
                    flops_rank=int(flops_rank[i]),
                    moved=int(flops_rank[i] - tgi_rank[i]),
                    weakest=FLEET_BENCHMARKS[int(weakest[i])],
                    path=row_path[i],
                    ree={b: float(ree[b][i]) for b in FLEET_BENCHMARKS},
                    efficiencies={
                        b: float(efficiencies[b][i]) for b in FLEET_BENCHMARKS
                    },
                    performances={
                        b: float(performances[b][i]) for b in FLEET_BENCHMARKS
                    },
                    powers_w={b: float(powers[b][i]) for b in FLEET_BENCHMARKS},
                )
            )

        diagnostics = self._diagnostics(tgi, flops_per_watt, tgi_rank, flops_rank)
        wall_s = time.perf_counter() - started
        stats = {
            "systems": n,
            "batched": len(batched),
            "simulated": len(simulated),
            "memo_unique": dict(memo_unique),
            "cache_hits": int(cache_hits),
            "wall_s": wall_s,
        }
        return FleetRanking(
            rows=tuple(rows),
            reference_name=reference_spec.name,
            reference_efficiencies=ref_efficiencies,
            weights=dict(self.weights),
            diagnostics=diagnostics,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _diagnostics(
        self,
        tgi: np.ndarray,
        flops_per_watt: np.ndarray,
        tgi_rank: np.ndarray,
        flops_rank: np.ndarray,
    ) -> FleetDiagnostics:
        notes: List[str] = []
        rho = r = pearson_ci = mean_ci = None
        try:
            rho = spearman(tgi_rank, flops_rank)
        except MetricError as exc:
            notes.append(f"spearman degenerate: {exc}")
        try:
            r = pearson(tgi, flops_per_watt)
        except MetricError as exc:
            notes.append(f"pearson degenerate: {exc}")
        try:
            pearson_ci = bootstrap_pearson_ci(
                tgi,
                flops_per_watt,
                confidence=self.confidence,
                resamples=self.bootstrap_resamples,
                rng=ensure_rng(self.bootstrap_seed),
            )
        except MetricError as exc:
            notes.append(f"pearson CI degenerate: {exc}")
        try:
            mean_ci = bootstrap_mean_ci(
                tgi,
                confidence=self.confidence,
                resamples=self.bootstrap_resamples,
                rng=ensure_rng(self.bootstrap_seed),
            )
        except MetricError as exc:
            notes.append(f"TGI mean CI degenerate: {exc}")
        return FleetDiagnostics(
            spearman_rho=rho,
            pearson_r=r,
            pearson_ci=pearson_ci,
            tgi_mean_ci=mean_ci,
            notes=tuple(notes),
        )
