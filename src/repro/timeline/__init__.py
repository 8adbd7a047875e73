"""Watt-level power timelines: capture, audit, lenses, and the dashboard.

The observability layer over the sweep-line power integrator.  An
executor given a list (``ClusterExecutor(..., timelines=[])``) captures
every run's power timelines as struct-of-arrays — the cluster total,
per-node curves, and per-component DC attribution — at O(1)
reference-stash cost and appends them to it; an executor without one pays
a single ``None`` check.

Layers, lowest first:

* :mod:`~repro.timeline.model` — the raw columnar :class:`TimelineCapture`
  the integrator fills, and :class:`RunTimeline`, the lazy
  struct-of-arrays view (component grids, node curves, energies);
* :mod:`~repro.timeline.downsample` — deterministic min-max binning and
  LTTB reduction;
* :mod:`~repro.timeline.audit` — the energy-conservation audit pinning
  timeline integrals to the executor's reported joules within 1e-9;
* :mod:`~repro.timeline.lenses` — anomaly screens (idle dwell, PSU
  saturation, spikes, meter drift);
* :mod:`~repro.timeline.aggregate` — per-job artifacts and streaming
  fleet aggregation;
* :mod:`~repro.timeline.dashboard` — the self-contained single-file HTML
  fleet report behind ``tgi dashboard``.

Quick tour::

    from repro import timeline as tline
    from repro.sim import ClusterExecutor
    timelines = []
    executor = ClusterExecutor(cluster, rng=7, timelines=timelines)
    executor.execute(placement, programs, label="probe")
    tl = timelines[0]
    report = tline.audit_run_timeline(tl)
    assert report.ok
    flags = [a for a in tline.scan_run(tl) if a["flagged"]]
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "aggregate": (
            "TIMELINE_SCHEMA_VERSION",
            "FleetAggregator",
            "artifact_path",
            "discover_artifacts",
            "load_artifacts",
            "read_job_artifact",
            "run_summary",
            "write_job_artifact",
        ),
        "audit": ("DEFAULT_TOLERANCE", "AuditReport", "audit_run_timeline"),
        "dashboard": ("render_dashboard",),
        "downsample": ("lttb_indices", "minmax_bins"),
        "lenses": ("DEFAULT_THRESHOLDS", "scan_run"),
        "model": ("RunTimeline", "TimelineCapture", "build_run_timeline"),
    },
)
