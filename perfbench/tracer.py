"""Outside-in layer tracer: spans at the program's layer boundaries.

The tracer wraps public functions and methods of ``repro`` from the
benchmark's own files; nothing under ``src/`` knows it exists.  A function
imported by name into other modules (``from .x import f``) is rebound in
every ``repro`` module that holds it, so calls through any import path are
seen.  Wrappers are installed around one op and removed after it, which is
how a traced run alternates traced and untraced ops to measure its own
overhead.

Each span records its boundary, start, end, parent span and op index.
Spans stay in memory; :meth:`Tracer.dump` writes them out when the run
ends.  A span's *self time* is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Measure = Callable[[tuple, dict, object], Dict[str, float]]


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _one(key: str, value: Callable[[tuple, dict, object], float]) -> Measure:
    """A measure that records one quantity under ``key``."""
    return lambda args, kwargs, result: {key: value(args, kwargs, result)}


def _bootstrap_resamples(args, kwargs, result) -> Dict[str, float]:
    # bootstrap_*_ci return a BootstrapCI; jackknife_pearson a list of
    # leave-one-out estimates.
    resamples = getattr(result, "resamples", None)
    return {"analysis.resamples": resamples if resamples is not None else len(result)}


def _integrate_stats(args, kwargs, result) -> Dict[str, float]:
    stats = result[2]
    return {
        "power.segments_in": stats["segments_in"],
        "power.segments_out": stats["segments_out"],
    }


def _evaluate_stats(args, kwargs, result) -> Dict[str, float]:
    return {
        "fleet.memo_unique": sum(result.memo_unique.values()),
        "fleet.evaluated": len(result) * len(result.memo_unique),
    }


_NODES = _one("cluster.nodes", lambda a, k, spec: spec.num_nodes)
_RANKS = _one("benchmarks.ranks", lambda a, k, built: built.placement.num_ranks)
_INTERVALS = _one("sim.intervals", lambda a, k, intervals: len(intervals))
_SAMPLES = _one("power.meter_samples", lambda a, k, trace: len(trace))
_SYSTEMS = _one("fleet.systems", lambda a, k, r: len(_arg(a, k, 1, "fleet")))
_JOBS = _one("campaign.jobs", lambda a, k, r: len(_arg(a, k, 1, "jobs")))
_HIT = _one("campaign.cache_hits", lambda a, k, payload: payload is not None)
_WRITTEN = _one("campaign.bytes_written", lambda a, k, path: path.stat().st_size)
_JOURNAL_BYTES = _one("journal.bytes", lambda a, k, r: a[0].path.stat().st_size)

#: (boundary, target, measure).  A target is ``module:function`` or
#: ``module:Class.method``; experiments are wrapped through the registry.
BOUNDARIES: Tuple[Tuple[str, str, Optional[Measure]], ...] = (
    ("cluster.resolve", "repro.campaign.jobs:ClusterRef.resolve", None),
    ("cluster.preset", "repro.cluster.presets:fire", _NODES),
    ("cluster.preset", "repro.cluster.presets:system_g", _NODES),
    ("cluster.generate", "repro.cluster.generator:generate_cluster", _NODES),
    ("cluster.topology", "repro.cluster.topology:star_topology", None),
    ("cluster.topology", "repro.cluster.topology:fat_tree_topology", None),
    ("cluster.topology", "repro.cluster.topology:ring_topology", None),
    ("benchmarks.build", "repro.benchmarks.hpl:HPLBenchmark.build", _RANKS),
    ("benchmarks.build", "repro.benchmarks.stream:StreamBenchmark.build", _RANKS),
    ("benchmarks.build", "repro.benchmarks.iozone:IOzoneBenchmark.build", _RANKS),
    ("sim.engine", "repro.sim.engine:SimulationEngine.run_arrays", _INTERVALS),
    ("sim.execute", "repro.sim.executor:ClusterExecutor.execute", None),
    ("power.integrate", "repro.sim.executor:ClusterExecutor.integrate_power", _integrate_stats),
    ("power.meter", "repro.power.meter:WallPlugMeter.measure", _SAMPLES),
    ("core.tgi", "repro.core.tgi:TGICalculator.compute", None),
    ("core.tgi", "repro.core.tgi:TGICalculator.compute_series", None),
    ("analysis.corr", "repro.analysis.correlation:pearson", None),
    ("analysis.corr", "repro.analysis.correlation:spearman", None),
    ("analysis.bootstrap", "repro.analysis.bootstrap:bootstrap_pearson_ci", _bootstrap_resamples),
    ("analysis.bootstrap", "repro.analysis.bootstrap:bootstrap_mean_ci", _bootstrap_resamples),
    ("analysis.bootstrap", "repro.analysis.bootstrap:jackknife_pearson", _bootstrap_resamples),
    ("experiments.run", "repro.experiments.registry:EXPERIMENTS", None),
    ("fleet.pack", "repro.fleet.columns:FleetColumns.pack", None),
    ("fleet.evaluate", "repro.fleet.evaluate:evaluate_fleet", _evaluate_stats),
    ("fleet.rank", "repro.fleet.pipeline:FleetRankingPipeline.rank", _SYSTEMS),
    ("campaign.run", "repro.campaign.runner:CampaignRunner.run", _JOBS),
    ("campaign.execute_job", "repro.campaign.jobs:execute_job", None),
    ("campaign.cache_get", "repro.campaign.cache:ResultCache.get", _HIT),
    ("campaign.cache_put", "repro.campaign.cache:ResultCache.put", _WRITTEN),
    ("campaign.cache_key", "repro.campaign.cache:cache_key", None),
    ("campaign.build_manifest", "repro.campaign.runner:build_manifest", None),
    ("serialization.to_dict", "repro.serialization:sweep_result_to_dict", None),
    ("serialization.from_dict", "repro.serialization:sweep_result_from_dict", None),
    ("journal.emit", "repro.journal.writer:JournalWriter.emit", None),
    ("journal.finalize", "repro.journal.writer:JournalWriter.finalize", _JOURNAL_BYTES),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclasses.dataclass
class Totals:
    """Boundary totals over the traced ops of one run."""

    calls: Dict[str, int]
    self_s: Dict[str, float]
    info: Dict[str, float]
    ops: int

    def c(self, *boundaries: str) -> float:
        return sum(self.calls.get(b, 0) for b in boundaries) / self.ops

    def s(self, *boundaries: str) -> float:
        return sum(self.self_s.get(b, 0.0) for b in boundaries) / self.ops

    def i(self, key: str) -> float:
        return self.info.get(key, 0.0) / self.ops


#: Per-layer metrics: name -> (unit, value per traced op from the run's
#: boundary totals).  ``c``/``s`` read boundary call counts and self times;
#: ``i`` sums a quantity measured at the boundary.
PER_LAYER: Dict[str, Tuple[str, Callable[[Totals], float]]] = {
    "cluster.specs": ("count", lambda t: t.c("cluster.preset", "cluster.generate")),
    "cluster.nodes": ("count", lambda t: t.i("cluster.nodes")),
    "cluster.self_s": ("s", lambda t: t.s("cluster.resolve", "cluster.preset", "cluster.generate")),
    "cluster.topology_s": ("s", lambda t: t.s("cluster.topology")),
    "benchmarks.builds": ("count", lambda t: t.c("benchmarks.build")),
    "benchmarks.ranks": ("count", lambda t: t.i("benchmarks.ranks")),
    "benchmarks.build_s": ("s", lambda t: t.s("benchmarks.build")),
    "sim.runs": ("count", lambda t: t.c("sim.execute")),
    "sim.intervals": ("count", lambda t: t.i("sim.intervals")),
    "sim.engine_s": ("s", lambda t: t.s("sim.engine")),
    "sim.execute_self_s": ("s", lambda t: t.s("sim.execute")),
    "power.integrate_s": ("s", lambda t: t.s("power.integrate")),
    "power.segments_in": ("count", lambda t: t.i("power.segments_in")),
    "power.segments_out": ("count", lambda t: t.i("power.segments_out")),
    "power.compaction_ratio": (
        "ratio",
        lambda t: _ratio(t.i("power.segments_out"), t.i("power.segments_in")),
    ),
    "power.meter_s": ("s", lambda t: t.s("power.meter")),
    "power.meter_samples": ("count", lambda t: t.i("power.meter_samples")),
    "core.tgi_calls": ("count", lambda t: t.c("core.tgi")),
    "core.tgi_s": ("s", lambda t: t.s("core.tgi")),
    "analysis.corr_calls": ("count", lambda t: t.c("analysis.corr")),
    "analysis.corr_s": ("s", lambda t: t.s("analysis.corr")),
    "analysis.resamples": ("count", lambda t: t.i("analysis.resamples")),
    "analysis.bootstrap_s": ("s", lambda t: t.s("analysis.bootstrap")),
    "experiments.self_s": ("s", lambda t: t.s("experiments.run")),
    "fleet.systems": ("count", lambda t: t.i("fleet.systems")),
    "fleet.pack_s": ("s", lambda t: t.s("fleet.pack")),
    "fleet.evaluate_s": ("s", lambda t: t.s("fleet.evaluate")),
    "fleet.memo_unique": ("count", lambda t: t.i("fleet.memo_unique")),
    "fleet.memo_ratio": (
        "ratio",
        lambda t: _ratio(t.i("fleet.memo_unique"), t.i("fleet.evaluated")),
    ),
    "fleet.rank_self_s": ("s", lambda t: t.s("fleet.rank")),
    "campaign.jobs": ("count", lambda t: t.i("campaign.jobs")),
    "campaign.cache_gets": ("count", lambda t: t.c("campaign.cache_get")),
    "campaign.cache_hits": ("count", lambda t: t.i("campaign.cache_hits")),
    "campaign.hit_ratio": (
        "ratio",
        lambda t: _ratio(t.i("campaign.cache_hits"), t.c("campaign.cache_get")),
    ),
    "campaign.cache_get_s": ("s", lambda t: t.s("campaign.cache_get")),
    "campaign.cache_puts": ("count", lambda t: t.c("campaign.cache_put")),
    "campaign.cache_put_s": ("s", lambda t: t.s("campaign.cache_put")),
    "campaign.bytes_written": ("B", lambda t: t.i("campaign.bytes_written")),
    "campaign.key_s": ("s", lambda t: t.s("campaign.cache_key")),
    "campaign.manifest_s": ("s", lambda t: t.s("campaign.build_manifest")),
    "campaign.run_self_s": ("s", lambda t: t.s("campaign.run")),
    "campaign.execute_self_s": ("s", lambda t: t.s("campaign.execute_job")),
    "serialization.to_dict_s": ("s", lambda t: t.s("serialization.to_dict")),
    "serialization.from_dict_s": ("s", lambda t: t.s("serialization.from_dict")),
    "journal.events": ("count", lambda t: t.c("journal.emit")),
    "journal.emit_s": ("s", lambda t: t.s("journal.emit")),
    "journal.finalize_s": ("s", lambda t: t.s("journal.finalize")),
    "journal.bytes": ("B", lambda t: t.i("journal.bytes")),
}


@dataclasses.dataclass
class _Site:
    """One binding a wrapper replaces: ``owner[key]`` or ``owner.key``."""

    boundary: str
    owner: object
    key: str
    original: object
    wrapper: object

    def bind(self, value) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


class Tracer:
    """Records spans at every boundary of :data:`BOUNDARIES`.

    Create it after the workload's imports and warm-up op, so every module
    that imports a boundary by name is already loaded.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []  # [boundary index, t0, t1, parent, op, info]
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._sites: List[_Site] = []
        for boundary, target, measure in BOUNDARIES:
            self._add_sites(boundary, target, measure)

    # -- installation ----------------------------------------------------
    def _wrap(self, boundary: str, fn, measure: Optional[Measure]):
        if boundary not in self.names:
            self.names.append(boundary)
        index = self.names.index(boundary)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if measure is not None:
                record[5] = measure(args, kwargs, result)
            return result

        return wrapper

    def _add_sites(self, boundary: str, target: str, measure: Optional[Measure]) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if qualname == "EXPERIMENTS":
            registry = module.EXPERIMENTS
            for key, entry in registry.items():
                wrapped = dataclasses.replace(entry, run=self._wrap(boundary, entry.run, measure))
                self._sites.append(_Site(boundary, registry, key, entry, wrapped))
            return
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(boundary, original.__func__, measure))
            else:
                wrapper = self._wrap(boundary, original, measure)
            self._sites.append(_Site(boundary, cls, attr, original, wrapper))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(boundary, original, measure)
        # Rebind in every repro module that imported the function by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._sites.append(_Site(boundary, mod, key, original, wrapper))

    def install(self, op: int) -> None:
        """Arm every boundary for op ``op``."""
        for site in self._sites:
            site.bind(site.wrapper)
        self.op = op

    def uninstall(self) -> None:
        """Restore every original binding."""
        self.op = None
        for site in self._sites:
            site.bind(site.original)

    def sites(self, boundary: str) -> List[str]:
        """Where ``boundary`` is bound, as ``owner.name`` strings."""
        return [
            f"{getattr(site.owner, '__name__', 'EXPERIMENTS')}.{site.key}"
            for site in self._sites
            if site.boundary == boundary
        ]

    # -- results -----------------------------------------------------------
    def totals(self, ops: int) -> Totals:
        """Boundary call counts, self times and measured sums over ``ops`` ops."""
        child_s = defaultdict(float)
        for boundary, t0, t1, parent, op, info in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        info_sum: Dict[str, float] = defaultdict(float)
        for idx, (boundary, t0, t1, parent, op, info) in enumerate(self.spans):
            name = self.names[boundary]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s.get(idx, 0.0)
            if info:
                for key, value in info.items():
                    info_sum[key] += value
        return Totals(dict(calls), dict(self_s), dict(info_sum), max(ops, 1))

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (boundary, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": self.names[boundary],
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "op": op,
                            **({"info": info} if info else {}),
                        }
                    )
                    + "\n"
                )


def per_layer_metrics(totals: Totals) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, per traced op."""
    return {
        name: {"value": float(fn(totals)), "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }


def coverage_errors(
    totals: Totals, moves: Sequence[str], silent: Sequence[str]
) -> List[str]:
    """Boundaries that should move but saw no calls, and silent layers that did."""
    errors = []
    for boundary in moves:
        if not totals.calls.get(boundary):
            errors.append(f"{boundary} recorded no calls")
    for layer in silent:
        seen = {
            b: n
            for b, n in totals.calls.items()
            if n and (b == layer or b.startswith(layer + "."))
        }
        if seen:
            errors.append(f"{layer} should do no work but recorded {seen}")
    return errors
