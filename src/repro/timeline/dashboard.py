"""Self-contained fleet dashboard: one HTML file, no server, no fetches.

:func:`render_dashboard` turns timeline artifacts (plus optional campaign
manifest, journal summary, and perfwatch trajectories) into a single HTML
document.  Everything is inline — a ``<style>`` block and hand-rolled SVG
sparklines — so the file opens from disk anywhere, attaches to CI runs,
and never phones home (validated in CI: the output contains no
``http://``/``https://`` references).

Sparkline grammar: each run's total wall power renders as a min-max band
(light polygon) with the energy-preserving bin means as a line over it;
meter samples render as a plain polyline; perfwatch metric trajectories
render one point per recorded run.
"""

from __future__ import annotations

import html
import time
from typing import Dict, List, Optional, Sequence

__all__ = ["render_dashboard"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a202c; background: #fafafa; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
h3 { font-size: 0.95rem; margin: 0.8rem 0 0.2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #e2e8f0; }
th { background: #edf2f7; } tr:hover td { background: #f0f7ff; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #276749; } .bad { color: #c53030; font-weight: 600; }
.flag { display: inline-block; background: #fff5f5; color: #c53030;
        border: 1px solid #feb2b2; border-radius: 3px;
        padding: 0 0.3rem; margin-right: 0.2rem; font-size: 0.75rem; }
.meta { color: #718096; font-size: 0.8rem; }
.card { background: #fff; border: 1px solid #e2e8f0; border-radius: 6px;
        padding: 0.8rem 1rem; margin: 0.6rem 0; }
.spark { vertical-align: middle; }
pre { background: #1a202c; color: #e2e8f0; padding: 0.8rem;
      border-radius: 6px; overflow-x: auto; font-size: 0.78rem; }
.grid { display: flex; flex-wrap: wrap; gap: 0.6rem; }
"""


def _points(values: Sequence[float], width: int, height: int,
            lo: float, hi: float) -> str:
    """SVG polyline points for evenly spaced values scaled into the box."""
    n = len(values)
    if n == 1:
        values = list(values) * 2
        n = 2
    span = hi - lo if hi > lo else 1.0
    step = width / (n - 1)
    return " ".join(
        f"{i * step:.1f},{height - (v - lo) / span * height:.1f}"
        for i, v in enumerate(values)
    )


def _band_sparkline(total: Dict, width: int = 280, height: int = 48) -> str:
    """Min-max band + mean line for one binned total curve."""
    w_min: List[float] = total["w_min"]
    w_max: List[float] = total["w_max"]
    w_mean: List[float] = total["w_mean"]
    lo = 0.0
    hi = max(w_max) if w_max else 1.0
    upper = _points(w_max, width, height, lo, hi)
    lower_pts = _points(w_min, width, height, lo, hi).split(" ")
    band = upper + " " + " ".join(reversed(lower_pts))
    mean = _points(w_mean, width, height, lo, hi)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polygon points="{band}" fill="#bee3f8" stroke="none"/>'
        f'<polyline points="{mean}" fill="none" stroke="#2b6cb0" '
        f'stroke-width="1.2"/></svg>'
    )


def _line_sparkline(
    values: Sequence[float],
    width: int = 160,
    height: int = 32,
    color: str = "#805ad5",
) -> str:
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    pts = _points(list(values), width, height - 4, lo, hi)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="1.2" transform="translate(0,2)"/></svg>'
    )


def _fmt_energy(joules: float) -> str:
    if joules >= 1e6:
        return f"{joules / 1e6:.2f} MJ"
    if joules >= 1e3:
        return f"{joules / 1e3:.1f} kJ"
    return f"{joules:.0f} J"


def _ranking_table(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        flags = "".join(
            f'<span class="flag">{html.escape(str(f))}</span>' for f in row["flags"]
        ) or '<span class="meta">none</span>'
        audit = (
            '<span class="ok">pass</span>'
            if row["audit_ok"]
            else '<span class="bad">FAIL</span>'
        )
        body.append(
            "<tr>"
            f'<td class="num">{row["rank"]}</td>'
            f"<td>{html.escape(str(row['job_id']))}</td>"
            f"<td>{html.escape(str(row['cluster']))}</td>"
            f'<td class="num">{row["num_ranks"]}</td>'
            f'<td class="num">{row["runs"]}</td>'
            f'<td class="num">{_fmt_energy(row["energy_j"])}</td>'
            f'<td class="num">{row["mean_power_w"]:.0f} W</td>'
            f'<td class="num">{row["makespan_s"]:.1f} s</td>'
            f"<td>{audit}</td>"
            f"<td>{flags}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        '<th class="num">#</th><th>job</th><th>cluster</th>'
        '<th class="num">ranks</th><th class="num">runs</th>'
        '<th class="num">energy</th><th class="num">mean power</th>'
        '<th class="num">makespan</th><th>audit</th><th>anomalies</th>'
        "</tr></thead><tbody>" + "".join(body) + "</tbody></table>"
    )


def _run_card(run: Dict) -> str:
    label = html.escape(str(run["label"]))
    audit = run.get("audit", {})
    audit_badge = (
        f'<span class="ok">audit pass (worst {audit.get("worst", 0.0):.1e})</span>'
        if audit.get("ok")
        else f'<span class="bad">audit FAIL (worst {audit.get("worst", 0.0):.1e})</span>'
    )
    flags = [a for a in run.get("anomalies", []) if a.get("flagged")]
    flag_html = "".join(
        f'<span class="flag" title="{html.escape(str(a["detail"]))}">'
        f'{html.escape(str(a["lens"]))}</span>'
        for a in flags
    )
    breakdown = run.get("breakdown", {})
    total_j = sum(breakdown.values()) or 1.0
    parts = ", ".join(
        f"{html.escape(name)} {100 * joules / total_j:.0f}%"
        for name, joules in sorted(
            breakdown.items(), key=lambda kv: -kv[1]
        )[:4]
    )
    meter = run.get("meter", {})
    meter_svg = _line_sparkline(meter.get("watts", []), color="#dd6b20")
    return (
        '<div class="card">'
        f"<h3>{label} <span class=\"meta\">{run['num_ranks']} ranks, "
        f"{run['segments']} segments</span></h3>"
        f"{_band_sparkline(run['total'])} {meter_svg}"
        f'<div class="meta">{_fmt_energy(run["energy_j"])} over '
        f"{run['makespan_s']:.1f} s &middot; mean "
        f"{run['mean_power_w']:.0f} W &middot; peak {run['max_power_w']:.0f} W"
        f" &middot; {audit_badge} {flag_html}</div>"
        f'<div class="meta">attribution: {parts}</div>'
        "</div>"
    )


def render_dashboard(
    artifacts: List[Dict],
    *,
    title: str = "TGI fleet dashboard",
    manifest: Optional[Dict] = None,
    journal_text: Optional[str] = None,
    perfwatch: Optional[List[Dict]] = None,
    max_system_cards: int = 60,
) -> str:
    """Render the artifacts (plus optional context) into one HTML page."""
    from .aggregate import FleetAggregator

    fleet = FleetAggregator()
    for artifact in artifacts:
        fleet.add_artifact(artifact)
    rows = fleet.rows()

    sections: List[str] = []
    sections.append(f"<h1>{html.escape(title)}</h1>")
    stamp = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    meta_bits = [
        f"{len(artifacts)} systems",
        f"{fleet.runs_total} runs",
        f"generated {stamp}",
    ]
    if manifest:
        meta_bits.append(
            f"campaign {html.escape(str(manifest.get('label', '?')))} "
            f"(fingerprint {html.escape(str(manifest.get('fingerprint', '?'))[:12])})"
        )
    sections.append(f'<div class="meta">{" &middot; ".join(meta_bits)}</div>')

    sections.append("<h2>Fleet ranking</h2>")
    sections.append(_ranking_table(rows))

    sections.append("<h2>Per-system power timelines</h2>")
    shown = 0
    for artifact in artifacts:
        if shown >= max_system_cards:
            sections.append(
                f'<div class="meta">… {len(artifacts) - shown} more systems '
                "omitted (raise max_system_cards to render all)</div>"
            )
            break
        for run in artifact["runs"]:
            sections.append(_run_card(run))
        shown += 1

    if journal_text:
        sections.append("<h2>Journal summary</h2>")
        sections.append(f"<pre>{html.escape(journal_text)}</pre>")

    if perfwatch:
        sections.append("<h2>Perfwatch trajectories</h2>")
        cards = []
        for trajectory in perfwatch:
            scenario = html.escape(str(trajectory.get("scenario", "?")))
            records = trajectory.get("records", [])
            metric_series: Dict[str, List[float]] = {}
            for record in records:
                for name, mv in dict(record.get("metrics", {})).items():
                    metric_series.setdefault(name, []).append(float(mv["value"]))
                metric_series.setdefault("wall_s", []).append(
                    min(record.get("wall_s", [0.0]))
                )
            for name, series in sorted(metric_series.items()):
                cards.append(
                    '<div class="card">'
                    f"<h3>{scenario} <span class=\"meta\">{html.escape(name)}"
                    f"</span></h3>{_line_sparkline(series)}"
                    f'<div class="meta">{len(series)} runs, last '
                    f"{series[-1]:.4g}</div></div>"
                )
        sections.append(f'<div class="grid">{"".join(cards)}</div>')

    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(sections)
        + "</body></html>\n"
    )
