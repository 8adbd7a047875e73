"""Telemetry: structured tracing, metrics, and energy attribution.

The observability layer of the reproduction.  Three pieces:

:mod:`~repro.telemetry.spans`
    :class:`Tracer` / :class:`Span` — monotonic-clock, nestable,
    thread-aware spans with a pool-safe ship-and-absorb protocol for
    campaign workers.  :data:`NULL_TRACER` is the zero-cost default.
:mod:`~repro.telemetry.metrics`
    :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
    deterministic JSON and Prometheus text exposition exports; mergeable
    across processes.
:mod:`~repro.telemetry.attribution`
    The Eq. 10-12 energy-attribution view: per-benchmark simulated
    time/energy/power with the paper's weight decomposition.

Instrumented code uses the ambient helpers (zero cost unless a session is
active):

>>> from repro import telemetry as tele
>>> with tele.use() as session:
...     with tele.span("my.phase", detail="x"):
...         tele.count("tgi_benchmark_runs_total", benchmark="HPL")
>>> len(session.spans)
1

See ``docs/telemetry.md`` for the full API and exporter formats.
"""

from .. import _lazy
from . import session  # noqa: F401 - every op calls its span hooks

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "attribution": (
            "AttributionRow",
            "attribution_to_dicts",
            "campaign_attribution",
            "render_attribution",
            "suite_attribution",
        ),
        "metrics": (
            "DEFAULT_TIME_BUCKETS_S",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
        ),
        "profiling": ("Hotspot", "profile_callable", "profile_hotspots"),
        "render": ("render_slowest", "render_span_tree", "slowest_spans"),
        "session": (
            "TELEMETRY_VERSION",
            "TelemetrySession",
            "activate",
            "active",
            "count",
            "current",
            "deactivate",
            "gauge",
            "observe",
            "span",
            "traced",
            "use",
        ),
        "spans": (
            "NULL_TRACER",
            "NullTracer",
            "Span",
            "Tracer",
            "span_from_dict",
            "span_to_dict",
        ),
    },
)
