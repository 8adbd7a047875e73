"""Telemetry subsystem: spans, metrics, sessions, attribution, invariance.

The load-bearing guarantees:

* span nesting/ordering is exact and thread-aware;
* histogram bucketing is deterministic (fixed boundaries, ``le`` semantics);
* the Prometheus text exposition is stable (golden test);
* pool workers ship spans/metrics back and the parent absorbs them;
* telemetry NEVER perturbs results — payloads and manifest fingerprints
  are identical with a session active or not.
"""

import dataclasses
import json
import threading

import pytest

from repro import telemetry as tele
from repro.exceptions import ReproError
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS_S,
    MetricsRegistry,
    Span,
    TelemetrySession,
    Tracer,
    attribution_to_dicts,
    campaign_attribution,
    render_span_tree,
    slowest_spans,
    span_from_dict,
    span_to_dict,
    suite_attribution,
)


@pytest.fixture(autouse=True)
def no_ambient_session():
    """Every test starts and ends with telemetry disabled."""
    tele.deactivate()
    yield
    tele.deactivate()


class TestSpans:
    def test_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id
        assert first.span_id < second.span_id  # allocation order

    def test_spans_record_monotonic_times(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.t_end is not None and b.t_end is not None
        assert a.t_start <= a.t_end <= b.t_start <= b.t_end
        assert a.duration_s >= 0

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", cores=8) as span:
            span.set(result="ok")
        assert span.attrs == {"cores": 8, "result": "ok"}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.t_end is not None  # closed despite the raise
        assert span.attrs["error"] == "ValueError"

    def test_threads_nest_independently(self):
        tracer = Tracer()
        seen = {}

        def worker(tag):
            with tracer.span(f"outer-{tag}") as outer:
                with tracer.span(f"inner-{tag}") as inner:
                    seen[tag] = (outer.span_id, inner.parent_id)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # each thread's inner span parents to its own outer span
        for outer_id, inner_parent in seen.values():
            assert inner_parent == outer_id
        assert len(tracer.spans) == 8

    def test_dict_round_trip(self):
        span = Span(
            span_id=3, parent_id=1, name="x", t_start=0.5, t_end=0.75,
            process="worker-9", thread="T1", attrs={"k": "v"},
        )
        assert span_from_dict(span_to_dict(span)) == span

    def test_absorb_remaps_reparents_and_shifts(self):
        parent = Tracer()
        with parent.span("pool") as pool:
            pass
        worker = Tracer(process="worker-1")
        with worker.span("job"):
            with worker.span("step"):
                pass
        before = len(parent.spans)
        parent.absorb(worker.as_dicts(), parent_id=pool.span_id, offset_s=10.0)
        absorbed = parent.spans[before:]
        job = next(s for s in absorbed if s.name == "job")
        step = next(s for s in absorbed if s.name == "step")
        assert job.parent_id == pool.span_id  # roots re-parented
        assert step.parent_id == job.span_id  # internal links preserved
        all_ids = [s.span_id for s in parent.spans]
        assert len(set(all_ids)) == len(all_ids)  # re-identified, no clashes
        assert job.t_start >= 10.0  # clock shifted
        assert job.process == "worker-1"

    def test_null_tracer_records_nothing(self):
        with tele.NULL_TRACER.span("anything", k=1) as span:
            span.set(more=2)
        assert tele.NULL_TRACER.spans == []
        assert not tele.NULL_TRACER.enabled


class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Total hits.")
        c.inc()
        c.inc(2, kind="a")
        c.inc(3, kind="a")
        data = reg.as_dict()["hits_total"]["samples"]
        assert {"labels": {}, "value": 1.0} in data
        assert {"labels": {"kind": "a"}, "value": 5.0} in data

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.counter("c", "h").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("temp", "Temperature.")
        g.set(1.0, site="x")
        g.set(7.0, site="x")
        (sample,) = reg.as_dict()["temp"]["samples"]
        assert sample["value"] == 7.0

    def test_histogram_bucketing_is_deterministic(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # le semantics: a value equal to a boundary lands in that bucket
        assert h.cumulative_buckets(()) == [
            ("0.1", 2),
            ("1", 4),
            ("10", 5),
            ("+Inf", 6),
        ]
        assert h.count() == 6
        assert h.sum() == pytest.approx(106.65)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("h", "x", buckets=(2.0, 1.0))

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing", "x")
        with pytest.raises(ReproError):
            reg.gauge("thing", "x")

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c", "x") is reg.counter("c")

    def test_prometheus_golden(self):
        reg = MetricsRegistry()
        reg.counter("tgi_runs_total", "Total runs.").inc(3, benchmark="HPL")
        reg.gauge("tgi_power_watts", "Watts.").set(450.5, cluster="Fire")
        h = reg.histogram("tgi_wait_seconds", "Wait time.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(2.0)
        expected = (
            "# HELP tgi_power_watts Watts.\n"
            "# TYPE tgi_power_watts gauge\n"
            'tgi_power_watts{cluster="Fire"} 450.5\n'
            "# HELP tgi_runs_total Total runs.\n"
            "# TYPE tgi_runs_total counter\n"
            'tgi_runs_total{benchmark="HPL"} 3\n'
            "# HELP tgi_wait_seconds Wait time.\n"
            "# TYPE tgi_wait_seconds histogram\n"
            'tgi_wait_seconds_bucket{le="0.1"} 1\n'
            'tgi_wait_seconds_bucket{le="1"} 2\n'
            'tgi_wait_seconds_bucket{le="+Inf"} 3\n'
            "tgi_wait_seconds_sum 2.55\n"
            "tgi_wait_seconds_count 3\n"
        )
        assert reg.to_prometheus() == expected

    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("c", "x").inc(n)
            reg.histogram("h", "x", buckets=(1.0,)).observe(0.5)
            reg.gauge("g", "x").set(float(n))
        a.merge(b.state())
        (c_sample,) = a.as_dict()["c"]["samples"]
        assert c_sample["value"] == 3.0
        (h_sample,) = a.as_dict()["h"]["samples"]
        assert h_sample["count"] == 2
        (g_sample,) = a.as_dict()["g"]["samples"]
        assert g_sample["value"] == 2.0  # gauges: incoming wins

    def test_as_dict_is_json_serializable_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z_total", "x").inc()
        reg.counter("a_total", "x").inc()
        data = reg.as_dict()
        assert list(data) == sorted(data)
        json.dumps(data)  # must not raise


class TestSession:
    def test_ambient_helpers_collect_when_active(self):
        with tele.use(TelemetrySession(label="t")) as session:
            with tele.span("phase", step=1):
                tele.count("tgi_benchmark_runs_total", benchmark="HPL")
                tele.gauge("tgi_benchmark_power_watts", 450.0, benchmark="HPL")
        assert [s.name for s in session.spans] == ["phase"]
        families = session.metrics.as_dict()
        assert families["tgi_benchmark_runs_total"]["samples"]

    def test_helpers_are_noops_when_disabled(self):
        handle = tele.span("ignored")
        with handle as span:
            span.set(k=1)
        tele.count("tgi_cache_puts_total")
        tele.gauge("tgi_benchmark_power_watts", 1.0)
        tele.observe("tgi_span_duration_seconds", 0.1)
        assert tele.current() is None

    def test_span_durations_feed_histogram(self):
        with tele.use(TelemetrySession()) as session:
            with tele.span("timed"):
                pass
        hist = session.metrics.as_dict()["tgi_span_duration_seconds"]
        (sample,) = hist["samples"]
        assert sample["count"] == 1
        assert sample["labels"] == {"name": "timed"}

    def test_double_activation_rejected(self):
        with tele.use(TelemetrySession()):
            with pytest.raises(ReproError):
                tele.activate(TelemetrySession())

    def test_traced_decorator(self):
        @tele.traced(name="my.op", flavor="test")
        def compute(x):
            return x * 2

        with tele.use(TelemetrySession()) as session:
            assert compute(21) == 42
        (span,) = session.spans
        assert span.name == "my.op"
        assert span.attrs["flavor"] == "test"
        assert compute(1) == 2  # still works with telemetry off

    def test_export_is_json_round_trippable(self):
        with tele.use(TelemetrySession(label="exp")) as session:
            with tele.span("s"):
                pass
        export = json.loads(json.dumps(session.export()))
        assert export["telemetry_version"] == tele.TELEMETRY_VERSION
        assert export["label"] == "exp"
        assert [s["name"] for s in export["spans"]] == ["s"]

    def test_default_buckets_are_fixed(self):
        # bucket boundaries are part of the exposition contract; changing
        # them silently breaks dashboards and the golden tests
        assert DEFAULT_TIME_BUCKETS_S[0] == 0.0001
        assert DEFAULT_TIME_BUCKETS_S[-1] == 60.0
        assert list(DEFAULT_TIME_BUCKETS_S) == sorted(DEFAULT_TIME_BUCKETS_S)


class TestClockEpochs:
    def test_export_carries_absolute_utc_epoch(self):
        import time

        before = time.time()
        with tele.use(TelemetrySession(label="epoch")) as session:
            pass
        after = time.time()
        export = session.export()
        assert before <= export["epoch_unix"] <= after
        assert export["epoch_utc"].endswith("Z") and "T" in export["epoch_utc"]
        assert json.dumps(export)  # both epochs are JSON-serializable

    def test_epochs_are_captured_together(self):
        tracer = Tracer()
        # perf epoch and unix epoch are read back to back at construction;
        # a span started immediately after sits within a second of both
        with tracer.span("s"):
            pass
        (span,) = tracer.spans
        assert 0 <= span.t_start < 1.0
        assert tracer.epoch_unix > 0


class TestProfilingHooks:
    def test_profile_disabled_by_default(self):
        with tele.use(TelemetrySession()) as session:
            with tele.span("outer"):
                with tele.span("inner"):
                    pass
        assert all("profile" not in s.attrs for s in session.spans)

    def test_profile_attaches_hotspots_to_outermost_span_only(self):
        with tele.use(TelemetrySession(profile=True, profile_top=4)) as session:
            with tele.span("outer"):
                with tele.span("inner"):
                    sum(i * i for i in range(5000))
        spans = {s.name: s for s in session.spans}
        assert "profile" in spans["outer"].attrs
        assert "profile" not in spans["inner"].attrs
        rows = spans["outer"].attrs["profile"]
        assert 1 <= len(rows) <= 4
        assert set(rows[0]) == {"func", "calls", "tottime_s", "cumtime_s"}
        # cumulative-time ordering, descending
        cum = [row["cumtime_s"] for row in rows]
        assert cum == sorted(cum, reverse=True)

    def test_sibling_top_level_spans_each_get_a_profile(self):
        with tele.use(TelemetrySession(profile=True)) as session:
            with tele.span("first"):
                pass
            with tele.span("second"):
                pass
        assert all("profile" in s.attrs for s in session.spans)

    def test_profiled_export_is_json_round_trippable(self):
        with tele.use(TelemetrySession(profile=True)) as session:
            with tele.span("s"):
                sum(range(1000))
        export = json.loads(json.dumps(session.export()))
        (span,) = export["spans"]
        assert isinstance(span["attrs"]["profile"], list)

    def test_profile_callable_helper(self):
        from repro.telemetry import profile_callable

        result, hotspots = profile_callable(lambda n: sum(range(n)), 10_000)
        assert result == sum(range(10_000))
        assert hotspots and all("cumtime_s" in row for row in hotspots)


QUICK_CONFIG = None


def _quick_config():
    global QUICK_CONFIG
    if QUICK_CONFIG is None:
        from repro.experiments import PAPER_CONFIG

        QUICK_CONFIG = dataclasses.replace(
            PAPER_CONFIG,
            core_counts=(16, 32),
            hpl_problem_size=4480,
            hpl_rounds=2,
            stream_target_seconds=5,
            iozone_target_seconds=5,
        )
    return QUICK_CONFIG


def _run_campaign(workers=1, session=None):
    from repro.campaign import CampaignRunner
    from repro.campaign.jobs import paper_jobs

    runner = CampaignRunner(workers=workers)
    jobs = paper_jobs(_quick_config())
    if session is None:
        return runner.run(jobs, label="t")
    with tele.use(session):
        return runner.run(jobs, label="t")


class TestCampaignIntegration:
    def test_serial_campaign_traces_every_job_phase(self):
        session = TelemetrySession()
        result = _run_campaign(workers=1, session=session)
        names = {s.name for s in session.spans}
        assert {
            "campaign.run",
            "job.serialize",
            "job.cache_probe",
            "job.execute",
            "job.store",
            "sweep.point",
            "suite.run",
            "benchmark.run",
            "sim.engine.run",
        } <= names
        statuses = session.metrics.as_dict()["tgi_campaign_jobs_total"]["samples"]
        assert sum(s["value"] for s in statuses) == len(result)

    def test_pool_workers_ship_spans_back(self):
        session = TelemetrySession()
        _run_campaign(workers=2, session=session)
        pool = next(s for s in session.spans if s.name == "campaign.pool")
        worker_spans = [
            s for s in session.spans if s.process.startswith("worker-")
        ]
        assert worker_spans, "no worker spans absorbed"
        roots = [
            s
            for s in worker_spans
            if s.parent_id == pool.span_id and s.name == "job.execute"
        ]
        assert len(roots) == 2  # one job.execute root per job
        # worker metrics merged: benchmark runs counted from both workers
        runs = session.metrics.as_dict()["tgi_benchmark_runs_total"]["samples"]
        assert sum(s["value"] for s in runs) == 9  # 3 benchs x (1 ref + 2 points)

    def test_fingerprints_invariant_under_telemetry(self):
        plain = _run_campaign(workers=1)
        traced = _run_campaign(workers=1, session=TelemetrySession())
        assert (
            plain.manifest["fingerprint"] == traced.manifest["fingerprint"]
        )
        plain_payloads = json.dumps(
            [o.payload for o in plain], sort_keys=True
        )
        traced_payloads = json.dumps(
            [o.payload for o in traced], sort_keys=True
        )
        assert plain_payloads == traced_payloads

    def test_manifest_telemetry_block_is_volatile(self):
        from repro.campaign.manifest import manifest_core

        traced = _run_campaign(workers=1, session=TelemetrySession())
        assert traced.manifest["telemetry"]["span_count"] > 0
        assert "telemetry" not in manifest_core(traced.manifest)

    def test_cache_stats_unified_across_result_and_cache(self, tmp_path):
        from repro.campaign import CampaignRunner, ResultCache
        from repro.campaign.jobs import paper_jobs

        cache = ResultCache(tmp_path / "cache")
        jobs = paper_jobs(_quick_config())
        CampaignRunner(cache=cache).run(jobs, label="cold")
        warm = CampaignRunner(cache=cache).run(jobs, label="warm")
        assert warm.cache_stats == {
            "jobs": 2,
            "attempts": 2,
            "hits": 2,
            "misses": 0,
            "invalidations": 0,
            "hit_rate": 1.0,
        }
        assert warm.cache_hits == 2
        assert warm.hit_rate == 1.0
        # the cache's own lifetime accounting stays consistent
        assert cache.cache_stats["hits"] == 2
        assert cache.cache_stats["misses"] == 2  # from the cold run
        assert warm.manifest["cache_run"] == warm.cache_stats


class TestAttribution:
    def test_weights_sum_to_one_per_family(self):
        session = TelemetrySession()
        result = _run_campaign(workers=1, session=session)
        rows = campaign_attribution(result)
        assert rows
        by_run = {}
        for row in rows:
            by_run.setdefault((row.job_id, row.cores), []).append(row)
        for run_rows in by_run.values():
            assert sum(r.time_weight for r in run_rows) == pytest.approx(1.0)
            assert sum(r.energy_weight for r in run_rows) == pytest.approx(1.0)
            assert sum(r.power_weight for r in run_rows) == pytest.approx(1.0)

    def test_attribution_matches_core_weights(self):
        from repro.core.weights import EnergyWeights, PowerWeights, TimeWeights

        result = _run_campaign(workers=1)
        suite_result = result.suite("reference")
        rows = suite_attribution(suite_result, job_id="reference", cluster="SystemG")
        w_time = TimeWeights().weights(suite_result)
        w_energy = EnergyWeights().weights(suite_result)
        w_power = PowerWeights().weights(suite_result)
        for row in rows:
            assert row.time_weight == w_time[row.benchmark]
            assert row.energy_weight == w_energy[row.benchmark]
            assert row.power_weight == w_power[row.benchmark]

    def test_attribution_dicts_are_json_ready(self):
        result = _run_campaign(workers=1)
        rows = attribution_to_dicts(campaign_attribution(result))
        json.dumps(rows)
        assert rows[0]["job_id"] == "reference"


class TestRendering:
    def test_tree_renders_nesting(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                pass
            with tracer.span("child-b"):
                pass
        tree = render_span_tree(tracer.spans)
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert "├─ child-a" in lines[1]
        assert "└─ child-b" in lines[2]

    def test_tree_accepts_dict_spans(self):
        tracer = Tracer()
        with tracer.span("solo"):
            pass
        assert "solo" in render_span_tree(tracer.as_dicts())

    def test_slowest_spans_sorted_desc(self):
        spans = [
            Span(span_id=i, parent_id=None, name=f"s{i}", t_start=0.0, t_end=end)
            for i, end in enumerate((0.3, 0.1, 0.2))
        ]
        assert [s.name for s in slowest_spans(spans, top=2)] == ["s0", "s2"]
