"""Report-style renderer for platform health (``report --platform``).

The ``_platform`` meta-dataset (DESIGN.md §9) records the platform's
own vitals once per window; :mod:`repro.observatory.alerts` turns them
into verdicts.  This module renders both as the human-readable summary
the ROADMAP asked for: a per-component snapshot table of the latest
window, trend series for the headline signals (capture ratio, flush
latency), and the alert verdict list -- the same content
``/platform/health`` serves as JSON, shaped like the paper-figure
renderers.
"""

from repro.observatory import alerts
from repro.observatory.telemetry import PLATFORM_DATASET
from repro.analysis.tables import format_series, format_table

#: headline per-component columns for the snapshot table, in print
#: order (missing columns render blank -- rows are heterogeneous)
SNAPSHOT_COLUMNS = (
    "txns", "tracked", "capture_ratio", "gate_fill", "gate_fpr",
    "evictions", "flush_ms_p95", "queue_depth", "alive",
)

#: (component, column) series plotted as trends when present
TREND_SERIES = (
    ("tracker.*", "capture_ratio"),
    ("window", "flush_ms_p95"),
)


def platform_health(dumps, rules=alerts.DEFAULT_RULES, windows=60):
    """Evaluate platform health from windows.

    Parameters
    ----------
    dumps:
        An iterable of windows (``TimeSeriesData``) -- a pipeline's
        dumps, or ``store.read("_platform")``; other datasets are
        ignored.
    windows:
        Most-recent windows considered.

    Returns ``(series, verdicts, summary)``.
    """
    series = [dump for dump in dumps if dump.dataset == PLATFORM_DATASET]
    series = sorted(series, key=lambda d: d.start_ts)[-windows:]
    verdicts = alerts.evaluate(series, rules)
    return series, verdicts, alerts.summarize(verdicts)


def latest_rows(series):
    """Per-component latest-window rows: ``{component: (ts, row)}``."""
    latest = {}
    for data in series:
        for component, row in data.rows:
            latest[component] = (data.start_ts, row)
    return latest


def component_series(series, component_pattern, column):
    """Concatenated ``(ts, value)`` trend over matching components
    (values of multiple matches in one window are averaged)."""
    prefix = component_pattern[:-1] \
        if component_pattern.endswith("*") else None
    points = []
    for data in series:
        values = []
        for component, row in data.rows:
            matched = component == component_pattern if prefix is None \
                else component.startswith(prefix)
            if matched and column in row:
                values.append(row[column])
        if values:
            points.append((data.start_ts, sum(values) / len(values)))
    return points


def render_platform_health(series, verdicts, summary):
    """The full ``report --platform`` text block."""
    out = []
    status = summary["status"].upper()
    out.append("Platform health: %s  (%d ok / %d failed / %d no-data)"
               % (status, summary["rules_ok"], summary["rules_failed"],
                  summary["rules_no_data"]))
    if not series:
        out.append("")
        out.append("No _platform series found -- run replay/serve with "
                   "--telemetry to record platform vitals.")
        return "\n".join(out)
    first, last = series[0].start_ts, series[-1].start_ts
    out.append("Windows analyzed: %d  (t=%s .. %s)"
               % (len(series), first, last))
    out.append("")

    rows = []
    for component, (ts, row) in sorted(latest_rows(series).items()):
        cells = [component]
        for column in SNAPSHOT_COLUMNS:
            value = row.get(column)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                cells.append("%.4g" % value)
            else:
                cells.append(value)
        rows.append(cells)
    out.append(format_table(
        ["component"] + [c for c in SNAPSHOT_COLUMNS], rows,
        title="Latest window per component"))
    out.append("")

    for pattern, column in TREND_SERIES:
        points = component_series(series, pattern, column)
        if len(points) >= 2:
            out.append("Trend: %s.%s" % (pattern, column))
            out.append(format_series(points, x_label="window_ts",
                                     y_label=column))
            out.append("")

    verdict_rows = []
    for verdict in sorted(verdicts,
                          key=lambda v: (v.status != alerts.FAIL,
                                         v.rule.name, v.component)):
        verdict_rows.append([
            verdict.status.upper(),
            verdict.rule.name,
            verdict.component,
            "-" if verdict.value is None else "%.4g" % verdict.value,
            "%s %g" % (verdict.rule.op, verdict.rule.threshold),
            verdict.failing_windows,
        ])
    out.append(format_table(
        ["status", "rule", "component", "value", "healthy when",
         "failing"],
        verdict_rows, title="Alert verdicts"))
    return "\n".join(out)
