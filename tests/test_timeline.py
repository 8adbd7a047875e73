"""Power-timeline capture, audit, downsampling, lenses, and artifacts.

The heart of the file is the hypothesis property test: for random rank
programs under **both** metering boundaries, the captured columnar
timeline must conserve energy — the timeline integral
matches ``PiecewisePower.energy()`` and the reported TGI inputs within
1e-9 relative (the audit's tolerance), and the per-component /
per-node decompositions close against the total.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timeline as tline
from repro.cluster import presets
from repro.exceptions import TimelineError
from repro.sim import (
    ClusterExecutor,
    RankProgram,
    barrier,
    breadth_first_placement,
    compute_phase,
    io_phase,
    memory_phase,
)

# ---------------------------------------------------------------------------
# Workload strategy: small mixed programs with exact binary durations.

binary_durations = st.integers(min_value=1, max_value=512).map(lambda n: n / 256.0)
fractions = st.integers(min_value=1, max_value=16).map(lambda n: n / 16.0)
phase_specs = st.tuples(
    st.integers(min_value=0, max_value=2), binary_durations, fractions
)


def _build_phase(spec):
    kind, duration, fraction = spec
    if kind == 0:
        return compute_phase(duration, intensity=fraction)
    if kind == 1:
        return memory_phase(duration, memory=fraction)
    return io_phase(duration, storage=fraction)


@st.composite
def small_programs(draw):
    num_ranks = draw(st.integers(min_value=1, max_value=12))
    num_barriers = draw(st.integers(min_value=0, max_value=2))
    programs = []
    for rank in range(num_ranks):
        program = RankProgram(rank=rank)
        for segment in range(num_barriers + 1):
            specs = draw(st.lists(phase_specs, min_size=1, max_size=3))
            for spec in specs:
                program.append(_build_phase(spec))
            if segment < num_barriers:
                program.append(barrier())
        programs.append(program)
    return programs


def _run_captured(programs, metering):
    cluster = presets.fire(4)
    captured = []
    executor = ClusterExecutor(cluster, rng=7, metering=metering, timelines=captured)
    placement = breadth_first_placement(cluster, len(programs))
    record = executor.execute(placement, programs)
    assert len(captured) == 1
    return record, captured[0]


class TestConservationAudit:
    @pytest.mark.parametrize("metering", ClusterExecutor.METERING_MODES)
    @given(programs=small_programs())
    @settings(max_examples=15, deadline=None)
    def test_audit_passes_in_every_mode(self, programs, metering):
        """Random programs, both metering boundaries: conservation within 1e-9."""
        record, timeline = _run_captured(programs, metering)
        report = tline.audit_run_timeline(timeline)
        assert report.ok, f"audit failed under {metering}: {report.as_dict()}"
        assert report.worst <= 1e-9
        # The timeline's totals ARE the reported TGI inputs.
        assert timeline.true_energy_j == record.true_energy_j
        assert timeline.measured_energy_j == record.measured_energy_j
        assert timeline.makespan_s == record.makespan_s

    @given(programs=small_programs())
    @settings(max_examples=10, deadline=None)
    def test_component_and_node_closure(self, programs):
        """Component and per-node energies both sum back to the total."""
        _, timeline = _run_captured(programs, "system")
        total = timeline.energy_j
        components = timeline.component_energies()
        assert sum(components.values()) == pytest.approx(total, rel=1e-9)
        node_total = float(timeline.node_energies().sum())
        idle = timeline.idle_nodes * timeline.idle_wall_w * timeline.makespan_s
        assert node_total + idle == pytest.approx(total, rel=1e-9)

    def test_audit_detects_a_cooked_timeline(self):
        """Corrupting the captured totals must fail the audit."""
        programs = [RankProgram(rank=0, phases=[compute_phase(4.0)])]
        _, timeline = _run_captured(programs, "system")
        timeline.total_watts = timeline.total_watts * 1.01
        timeline._grid = None
        report = tline.audit_run_timeline(timeline)
        assert not report.ok


def _mixed_programs():
    return [
        RankProgram(rank=0, phases=[compute_phase(1.0), memory_phase(0.5, memory=0.5)]),
        RankProgram(rank=1, phases=[io_phase(0.75, storage=0.25)]),
    ]


class TestCaptureSink:
    """The sink is the list an executor is given; without one it captures nothing."""

    def test_disarmed_is_a_noop(self):
        """No list, no capture, and arming changes no bit of the record."""
        cluster = presets.fire(2)
        placement = breadth_first_placement(cluster, 2)
        executor = ClusterExecutor(cluster, rng=7)
        assert executor.timelines is None
        bare = executor.execute(placement, _mixed_programs())
        armed = ClusterExecutor(cluster, rng=7, timelines=[]).execute(
            placement, _mixed_programs()
        )
        assert armed.makespan_s == bare.makespan_s
        assert armed.energy_breakdown == bare.energy_breakdown
        for field in ("starts_array", "ends_array", "watts_array"):
            np.testing.assert_array_equal(
                getattr(armed.truth, field), getattr(bare.truth, field)
            )
        np.testing.assert_array_equal(armed.trace.times, bare.trace.times)
        np.testing.assert_array_equal(armed.trace.watts, bare.trace.watts)

    def test_armed_executor_appends_each_run(self):
        cluster = presets.fire(2)
        captured = []
        executor = ClusterExecutor(cluster, rng=7, timelines=captured)
        placement = breadth_first_placement(cluster, 2)
        records = [
            executor.execute(placement, _mixed_programs(), label=label)
            for label in ("first", "second")
        ]
        assert [tl.label for tl in captured] == ["first", "second"]
        for record, timeline in zip(records, captured):
            assert isinstance(timeline, tline.RunTimeline)
            assert timeline.true_energy_j == record.true_energy_j
            assert timeline.measured_energy_j == record.measured_energy_j


class TestDownsample:
    def _curve(self):
        rng = np.random.default_rng(11)
        widths = rng.uniform(0.1, 2.0, size=200)
        starts = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
        ends = starts + widths
        watts = rng.uniform(100.0, 900.0, size=200)
        return starts, ends, watts

    def test_minmax_bins_preserve_energy(self):
        starts, ends, watts = self._curve()
        exact = float(np.dot(ends - starts, watts))
        for bins in (3, 16, 96):
            binned = tline.minmax_bins(starts, ends, watts, bins)
            edges = binned["edges"]
            rebuilt = float(np.dot(np.diff(edges), binned["w_mean"]))
            assert rebuilt == pytest.approx(exact, rel=1e-9)
            # The band bounds the mean, and both bound the data range.
            assert np.all(binned["w_min"] <= binned["w_mean"] + 1e-12)
            assert np.all(binned["w_mean"] <= binned["w_max"] + 1e-12)
            assert binned["w_min"].min() >= watts.min() - 1e-12
            assert binned["w_max"].max() <= watts.max() + 1e-12

    def test_minmax_band_covers_every_overlapping_segment(self):
        # A narrow spike entirely inside one bin must surface in w_max.
        starts = np.array([0.0, 10.0, 10.1])
        ends = np.array([10.0, 10.1, 20.0])
        watts = np.array([100.0, 5000.0, 100.0])
        binned = tline.minmax_bins(starts, ends, watts, 4)
        assert binned["w_max"].max() == 5000.0

    def test_lttb_is_deterministic_and_keeps_endpoints(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.5, 1.5, size=500))
        values = rng.uniform(0.0, 1.0, size=500)
        a = tline.lttb_indices(times, values, 50)
        b = tline.lttb_indices(times, values, 50)
        np.testing.assert_array_equal(a, b)
        assert a[0] == 0 and a[-1] == 499
        assert len(a) == 50
        assert np.all(np.diff(a) > 0)

    def test_lttb_small_inputs_pass_through(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([5.0, 7.0, 6.0])
        np.testing.assert_array_equal(
            tline.lttb_indices(times, values, 10), [0, 1, 2]
        )


class TestLenses:
    def _timeline(self):
        programs = [
            RankProgram(
                rank=r, phases=[compute_phase(5.0, intensity=1.0), barrier()]
            )
            for r in range(16)
        ]
        _, timeline = _run_captured(programs, "system")
        return timeline

    def test_scan_shape_and_determinism(self):
        timeline = self._timeline()
        scans = tline.scan_run(timeline)
        assert [s["lens"] for s in scans] == [
            "idle_dwell", "psu_saturation", "power_spike", "meter_drift",
        ]
        for scan in scans:
            assert set(scan) == {"lens", "value", "threshold", "flagged", "detail"}
            assert isinstance(scan["flagged"], bool)
        assert scans == tline.scan_run(timeline)

    def test_threshold_override_flips_flags(self):
        timeline = self._timeline()
        relaxed = tline.scan_run(timeline, {"meter_drift": 1e9})
        strict = tline.scan_run(timeline, {"meter_drift": 0.0})
        assert not relaxed[3]["flagged"]
        # measured never equals true exactly with a noisy meter
        assert strict[3]["flagged"] == (timeline.measured_energy_j != timeline.true_energy_j)


class TestArtifacts:
    def _timelines(self):
        programs = [
            RankProgram(rank=r, phases=[compute_phase(3.0 + r)]) for r in range(4)
        ]
        _, timeline = _run_captured(programs, "system")
        return [timeline]

    def test_write_read_round_trip(self, tmp_path):
        timelines = self._timelines()
        path = tline.write_job_artifact(
            tmp_path, job_id="fire a/b", timelines=timelines
        )
        assert path.name == "fire_a_b.timeline.json"  # filesystem-safe id
        doc = tline.read_job_artifact(path)
        assert doc["job_id"] == "fire a/b"
        (run,) = doc["runs"]
        assert run["audit"]["ok"]
        assert len(run["total"]["w_mean"]) == 96
        assert run["true_energy_j"] == timelines[0].true_energy_j
        # binned means re-integrate to the exact energy (within rounding:
        # watts are stored at milliwatt precision)
        edges = np.linspace(run["total"]["t0"], run["total"]["t1"], 97)
        rebuilt = float(np.dot(np.diff(edges), run["total"]["w_mean"]))
        assert rebuilt == pytest.approx(run["energy_j"], rel=1e-4)

    def test_version_and_structure_validation(self, tmp_path):
        bad = tmp_path / "x.timeline.json"
        bad.write_text(json.dumps({"timeline_version": 99, "job_id": "x", "runs": []}))
        with pytest.raises(TimelineError, match="version"):
            tline.read_job_artifact(bad)
        bad.write_text(json.dumps({"timeline_version": 1}))
        with pytest.raises(TimelineError, match="job_id"):
            tline.read_job_artifact(bad)
        bad.write_text("{ not json")
        with pytest.raises(TimelineError, match="unreadable"):
            tline.read_job_artifact(bad)

    def test_empty_job_rejected(self, tmp_path):
        with pytest.raises(TimelineError, match="captured no timelines"):
            tline.write_job_artifact(tmp_path, job_id="empty", timelines=[])

    def test_discover_and_load(self, tmp_path):
        with pytest.raises(TimelineError, match="not found"):
            tline.discover_artifacts(tmp_path / "missing")
        with pytest.raises(TimelineError, match="no .*artifacts"):
            tline.load_artifacts(tmp_path)
        tline.write_job_artifact(tmp_path, job_id="j1", timelines=self._timelines())
        assert len(tline.load_artifacts(tmp_path)) == 1


class TestFleetAggregator:
    def test_ranking_rows(self, tmp_path):
        for rank_count in (2, 6):
            programs = [
                RankProgram(rank=r, phases=[compute_phase(4.0)])
                for r in range(rank_count)
            ]
            _, timeline = _run_captured(programs, "system")
            tline.write_job_artifact(
                tmp_path, job_id=f"job-{rank_count}", timelines=[timeline]
            )
        agg = tline.FleetAggregator()
        agg.add_directory(tmp_path)
        rows = agg.rows()
        assert agg.runs_total == 2
        assert agg.audits_failed == 0
        assert [r["rank"] for r in rows] == [1, 2]
        # greenest first: fewer busy ranks -> less energy
        assert rows[0]["energy_j"] <= rows[1]["energy_j"]
        assert all(r["audit_ok"] for r in rows)
