"""The budget-waterfall trace viewer.

Renders one discovery run — the :func:`repro.obs.runtrace.run_records`
rows — as an SVG timeline of budgeted executions: one row per
execution in sequence order, bar length showing the charged cost on a
log axis (the contour budget ladder is geometric, so log space makes
the doubling visible as even steps), a tick marking each execution's
granted budget, and colour carrying the outcome:

* green — completed (produced the query result);
* amber — budget-kill (killed at expiry, charged the full budget);
* blue — spill-learned (completed in spill mode, selectivity learnt).

A secondary polyline overlays the cumulative charge after each
execution — the quantity whose final value, divided by the oracle
cost, is the run's sub-optimality.  The HTML wrapper embeds the SVG
with a per-execution table so the picture and the numbers travel in
one self-contained file.
"""

from __future__ import annotations

import math
import os

from repro.bench.svgfig import (
    AXIS,
    GRID,
    SERIES_COLORS,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    _Canvas,
    _esc,
    _fmt,
)

#: Outcome → colour, drawn from the validated categorical slots.
OUTCOME_COLORS = {
    "completed": SERIES_COLORS[1],
    "budget-kill": SERIES_COLORS[2],
    "spill-learned": SERIES_COLORS[0],
}

ROW_HEIGHT = 22
BAR_THICKNESS = 14
#: Rows beyond this are summarised, not drawn (keeps huge traces sane).
MAX_ROWS = 400


def _log_axis(rows):
    """The log-x window covering every charge and budget."""
    values = []
    for row in rows:
        for key in ("charged", "budget", "cost_end"):
            value = row.get(key)
            if value and value > 0 and not math.isinf(value):
                values.append(value)
    if not values:
        return 0.1, 1.0
    lo = min(values)
    hi = max(values)
    return lo / 2.0, hi * 1.2


def waterfall_svg(rows, title="budget waterfall", subtitle=""):
    """Render waterfall rows (see module docstring) to an SVG string."""
    drawn = rows[:MAX_ROWS]
    hidden = len(rows) - len(drawn)
    left, right_pad = 150, 30
    width = 860
    right = width - right_pad
    top = 92 if subtitle else 76
    bottom = top + max(len(drawn), 1) * ROW_HEIGHT
    height = bottom + 64
    canvas = _Canvas(width, height, title)
    canvas.text(left, 26, title, size=15, fill=TEXT_PRIMARY, weight="600")
    if subtitle:
        canvas.text(left, 44, subtitle, size=12)

    lo, hi = _log_axis(drawn)
    log_lo, log_hi = math.log10(lo), math.log10(hi)

    def x_of(value):
        if value <= lo:
            return left
        return left + (math.log10(value) - log_lo) / (log_hi - log_lo) * (
            right - left)

    # Decade gridlines over the cost axis.
    decade = 10.0 ** math.floor(log_lo)
    while decade <= hi:
        if decade >= lo:
            x = x_of(decade)
            canvas.line(x, top - 6, x, bottom, GRID, 1)
            canvas.text(x, bottom + 16, f"1e{int(math.log10(decade))}",
                        size=10, anchor="middle")
        decade *= 10
    canvas.line(left, bottom, right, bottom, AXIS, 1)
    canvas.text((left + right) / 2, bottom + 32, "charged cost (log)",
                size=11, anchor="middle")

    overlay = []
    for i, row in enumerate(drawn):
        y = top + i * ROW_HEIGHT
        y_bar = y + (ROW_HEIGHT - BAR_THICKNESS) / 2
        color = OUTCOME_COLORS.get(row["outcome"], TEXT_SECONDARY)
        epp = f" {row['epp']}" if row.get("epp") else ""
        canvas.text(left - 8, y + ROW_HEIGHT / 2 + 4,
                    f"IC{row['contour']} {row['mode']}{epp}",
                    size=10, anchor="end")
        bar_end = x_of(row["charged"])
        canvas.parts.append("<g>")
        canvas.rect(left, y_bar, max(bar_end - left, 2), BAR_THICKNESS,
                    color, rounded_top=0)
        canvas.parts.append(
            f"<title>{_esc(_tooltip(row))}</title></g>"
        )
        # Budget tick: where the engine's kill switch sat for this run.
        if row["budget"] and not math.isinf(row["budget"]):
            bx = x_of(row["budget"])
            canvas.line(bx, y_bar - 2, bx, y_bar + BAR_THICKNESS + 2,
                        TEXT_PRIMARY, 1.5)
        if row["cost_end"] > 0:
            overlay.append((x_of(row["cost_end"]), y + ROW_HEIGHT / 2))

    if len(overlay) >= 2:
        canvas.polyline(overlay, TEXT_SECONDARY, 1.5)
    if hidden > 0:
        canvas.text(left, bottom + 48, f"... {hidden} more executions "
                    f"not drawn", size=11)

    # Legend: the three outcomes, the budget tick, the cumulative line.
    x = left
    y = height - 14
    for outcome in ("completed", "budget-kill", "spill-learned"):
        canvas.rect(x, y - 9, 12, 12, OUTCOME_COLORS[outcome])
        canvas.text(x + 16, y + 1, outcome, size=11, fill=TEXT_PRIMARY)
        x += 30 + 6 * len(outcome)
    canvas.line(x, y - 9, x, y + 3, TEXT_PRIMARY, 1.5)
    canvas.text(x + 6, y + 1, "budget", size=11, fill=TEXT_PRIMARY)
    x += 60
    canvas.line(x, y - 3, x + 16, y - 3, TEXT_SECONDARY, 1.5)
    canvas.text(x + 22, y + 1, "cumulative charge", size=11,
                fill=TEXT_PRIMARY)
    return canvas.render()


def _tooltip(row):
    parts = [
        f"#{row['index']} contour {row['contour']} {row['mode']}",
        f"plan {row['plan_key'] or row['plan_id']}",
        f"budget {_fmt(row['budget'])}"
        if row["budget"] is not None and not math.isinf(row["budget"])
        else "unbudgeted",
        f"charged {_fmt(row['charged'])}",
        f"cumulative {_fmt(row['cost_end'])}",
        row["outcome"],
    ]
    if row.get("learned_selectivity") is not None:
        parts.append(f"learned {row['learned_selectivity']:.3g}")
    return " | ".join(parts)


_TABLE_COLUMNS = (
    ("index", "#"), ("contour", "IC"), ("mode", "mode"), ("epp", "epp"),
    ("plan_key", "plan"), ("budget", "budget"), ("charged", "charged"),
    ("cost_end", "cumulative"), ("outcome", "outcome"),
    ("learned_selectivity", "learned"),
)


def _cell(row, key):
    value = row.get(key)
    if value is None or value == "":
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.4g}"
    return str(value)


def waterfall_html(rows, meta=None, title="budget waterfall"):
    """Self-contained HTML: run header, the SVG, a per-execution table."""
    meta = dict(meta or {})
    subtitle_bits = []
    for key in ("query", "algorithm"):
        if meta.get(key):
            subtitle_bits.append(f"{key} {meta[key]}")
    if meta.get("suboptimality") is not None:
        subtitle_bits.append(f"sub-optimality {meta['suboptimality']:.2f}")
    subtitle = " · ".join(subtitle_bits)
    svg = waterfall_svg(rows, title=title, subtitle=subtitle)

    header_rows = "".join(
        f"<tr><th>{_esc(key)}</th><td>{_esc(value)}</td></tr>"
        for key, value in meta.items()
    )
    body = "".join(
        "<tr>" + "".join(
            f"<td>{_esc(_cell(row, key))}</td>"
            for key, _ in _TABLE_COLUMNS
        ) + "</tr>"
        for row in rows
    )
    head = "".join(f"<th>{_esc(label)}</th>" for _, label in _TABLE_COLUMNS)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_esc(title)}</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
        sans-serif; margin: 24px; color: #0b0b0b; background: #fcfcfb; }}
table {{ border-collapse: collapse; margin-top: 18px; font-size: 13px; }}
th, td {{ border: 1px solid #e7e6e2; padding: 4px 10px;
          text-align: left; }}
th {{ background: #f3f2ef; }}
caption {{ text-align: left; font-weight: 600; padding: 6px 0; }}
</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<table><caption>run</caption>{header_rows}</table>
{svg}
<table><caption>executions</caption>
<tr>{head}</tr>
{body}
</table>
</body>
</html>
"""


def write_waterfall_html(path, rows, meta=None, title="budget waterfall"):
    """Write the HTML viewer; creates parent directories, UTF-8."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(waterfall_html(rows, meta=meta, title=title))
    return path


# -- merged multi-process trace timeline ------------------------------


def _flatten_tree(spans):
    """Depth-first (root-first) rows: ``(record, depth)`` pairs, using
    the wall-clock ordering from :func:`repro.obs.export.span_tree`."""
    from repro.obs.export import span_tree

    roots, children = span_tree(spans)
    rows = []

    def walk(rec, depth):
        rows.append((rec, depth))
        for kid in children.get(rec["span_id"], ()):
            walk(kid, depth + 1)

    for root in roots:
        walk(root, 0)
    return rows


def trace_timeline_svg(spans, title="trace timeline", subtitle=""):
    """Gantt-style SVG of a merged multi-process trace.

    One row per span in tree order (indented by depth); bars are
    positioned on the shared wall-clock axis (``time_unix_ns``) so
    front-end, pool-worker and sweep-worker spans line up correctly
    even though their ``perf_counter_ns`` durations come from
    different processes.  Bar colour identifies the originating pid.
    """
    rows = _flatten_tree(spans)[:MAX_ROWS]
    hidden = max(len(spans) - len(rows), 0)
    anchors = [r.get("time_unix_ns") or 0 for r, _ in rows]
    t0 = min((a for a in anchors if a), default=0)
    ends = [
        (r.get("time_unix_ns") or 0)
        + max(r.get("end_ns", 0) - r.get("start_ns", 0), 0)
        for r, _ in rows
    ]
    span_ns = max((e - t0 for e in ends), default=1) or 1

    left, right_pad = 250, 30
    width = 960
    right = width - right_pad
    top = 92 if subtitle else 76
    bottom = top + max(len(rows), 1) * ROW_HEIGHT
    height = bottom + 64
    canvas = _Canvas(width, height, title)
    canvas.text(left, 26, title, size=15, fill=TEXT_PRIMARY, weight="600")
    if subtitle:
        canvas.text(left, 44, subtitle, size=12)

    def x_of(anchor_ns):
        return left + (anchor_ns - t0) / span_ns * (right - left)

    # Time gridlines: quarters of the total window.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * (right - left)
        canvas.line(x, top - 6, x, bottom, GRID, 1)
        canvas.text(x, bottom + 16, f"{frac * span_ns / 1e6:.1f} ms",
                    size=10, anchor="middle")
    canvas.line(left, bottom, right, bottom, AXIS, 1)
    canvas.text((left + right) / 2, bottom + 32,
                "wall clock since first span", size=11, anchor="middle")

    pids = []
    for rec, _ in rows:
        pid = (rec.get("attrs") or {}).get("pid")
        if pid is not None and pid not in pids:
            pids.append(pid)
    pid_color = {
        pid: SERIES_COLORS[i % len(SERIES_COLORS)]
        for i, pid in enumerate(pids)
    }

    for i, (rec, depth) in enumerate(rows):
        y = top + i * ROW_HEIGHT
        y_bar = y + (ROW_HEIGHT - BAR_THICKNESS) / 2
        anchor = rec.get("time_unix_ns") or t0
        dur_ns = max(rec.get("end_ns", 0) - rec.get("start_ns", 0), 0)
        pid = (rec.get("attrs") or {}).get("pid")
        color = pid_color.get(pid, TEXT_SECONDARY)
        label = f"{'· ' * depth}{rec['name']}"
        canvas.text(left - 8, y + ROW_HEIGHT / 2 + 4, label[:40],
                    size=10, anchor="end")
        x = x_of(anchor)
        bar_w = max(dur_ns / span_ns * (right - left), 2)
        canvas.parts.append("<g>")
        canvas.rect(x, y_bar, bar_w, BAR_THICKNESS, color, rounded_top=0)
        tip = (
            f"{rec['name']} | {dur_ns / 1e6:.3f} ms | "
            f"+{(anchor - t0) / 1e6:.3f} ms"
            + (f" | pid {pid}" if pid is not None else "")
        )
        canvas.parts.append(f"<title>{_esc(tip)}</title></g>")

    if hidden > 0:
        canvas.text(left, bottom + 48, f"... {hidden} more spans not drawn",
                    size=11)

    # Legend: one swatch per process.
    x = left
    y = height - 14
    for pid in pids[:8]:
        canvas.rect(x, y - 9, 12, 12, pid_color[pid])
        canvas.text(x + 16, y + 1, f"pid {pid}", size=11, fill=TEXT_PRIMARY)
        x += 40 + 7 * len(str(pid))
    return canvas.render()


def trace_timeline_html(meta, spans, title="trace timeline"):
    """Self-contained HTML wrapper for the merged trace timeline."""
    meta = dict(meta or {})
    pids = sorted({
        (r.get("attrs") or {}).get("pid")
        for r in spans
        if (r.get("attrs") or {}).get("pid") is not None
    })
    subtitle = (
        f"trace {meta.get('trace_id', '?')} · {len(spans)} spans · "
        f"{len(pids) or 1} process(es)"
    )
    svg = trace_timeline_svg(spans, title=title, subtitle=subtitle)
    header_rows = "".join(
        f"<tr><th>{_esc(key)}</th><td>{_esc(value)}</td></tr>"
        for key, value in meta.items()
        if key != "kind"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_esc(title)}</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
        sans-serif; margin: 24px; color: #0b0b0b; background: #fcfcfb; }}
table {{ border-collapse: collapse; margin-top: 18px; font-size: 13px; }}
th, td {{ border: 1px solid #e7e6e2; padding: 4px 10px;
          text-align: left; }}
th {{ background: #f3f2ef; }}
caption {{ text-align: left; font-weight: 600; padding: 6px 0; }}
</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<table><caption>trace</caption>{header_rows}</table>
{svg}
</body>
</html>
"""


def write_trace_html(path, meta, spans, title="trace timeline"):
    """Write the merged-trace timeline HTML; creates parent dirs."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_timeline_html(meta, spans, title=title))
    return path
