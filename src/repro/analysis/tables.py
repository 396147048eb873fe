"""Plain-text table rendering for the analysis reports.

The benchmark harness prints each reproduced table/figure as text;
this module keeps the formatting in one place.
"""


def format_table(headers, rows, title=None):
    """Render *rows* (sequences of cells) under *headers* as text:
    numbers right-aligned, everything else left-aligned, judged per
    cell."""
    headers = [str(h) for h in headers]
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells, pads):
        parts = []
        for i, cell in enumerate(cells):
            width = widths[i] if i < len(widths) else len(cell)
            if pads[i] == "r":
                parts.append(cell.rjust(width))
            else:
                parts.append(cell.ljust(width))
        return "  ".join(parts).rstrip()

    pads = ["l"] * len(widths)
    for row in str_rows:
        for i, cell in enumerate(row):
            if _is_number(cell):
                pads[i] = "r"

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append(fmt_row(headers, pads))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row, pads))
    return "\n".join(lines)


def format_percent(value, digits=1):
    """0.163 -> '16.3%'."""
    return "%.*f%%" % (digits, value * 100.0)


def format_count(value):
    """Humanize counts: 5026 -> '5,026'."""
    return "{:,}".format(int(round(value)))


def format_series(pairs, x_label="x", y_label="y", max_points=24):
    """Render an (x, y) series as a compact two-column listing,
    downsampling evenly when longer than *max_points*."""
    pairs = list(pairs)
    if len(pairs) > max_points:
        step = len(pairs) / max_points
        pairs = [pairs[int(i * step)] for i in range(max_points)]
    return format_table([x_label, y_label],
                        [(x, _cell(y)) for x, y in pairs])


def _cell(value):
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return "%.2f" % value
    return str(value)


def _is_number(cell):
    try:
        float(cell.rstrip("%").replace(",", ""))
        return True
    except ValueError:
        return False
