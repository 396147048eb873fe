"""TSV time-series file format (Section 2.4).

"The data is stored on disk in the TSV file format, where the file
name encodes both the time granularity, and the moment of time when we
started collecting the data.  The first TSV row contains column names,
and the last row contains data collection statistics, which include
the total number of DNS transactions seen before and after filtering."
"""

import os

from repro.observatory.features import ALL_COLUMNS

#: granularity name -> window length in seconds (§2.4 aggregation chain)
GRANULARITIES = {
    "minutely": 60,
    "decaminutely": 600,
    "hourly": 3600,
    "daily": 86400,
    "monthly": 30 * 86400,
    "yearly": 365 * 86400,
}

#: aggregation chain order, finest first
GRANULARITY_CHAIN = (
    "minutely", "decaminutely", "hourly", "daily", "monthly", "yearly"
)

_STATS_PREFIX = "#stats"

#: key-column escapes: tab/newline are legal in DNS wire-format names
#: (and attacker-controlled via qname datasets), so they must never
#: reach the file raw -- one hostile key would corrupt every later row.
_KEY_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_KEY_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape_key(key):
    """Escape ``\\t``/``\\n``/``\\r``/``\\\\`` in a row key for writing."""
    if "\\" in key or "\t" in key or "\n" in key or "\r" in key:
        return "".join(_KEY_ESCAPES.get(ch, ch) for ch in key)
    return key


def unescape_key(text):
    """Inverse of :func:`escape_key` (unknown escapes pass through)."""
    if "\\" not in text:
        return text
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n and text[i + 1] in _KEY_UNESCAPES:
            out.append(_KEY_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def filename_for(dataset, granularity, start_ts):
    """``srvip.minutely.0000086400.tsv`` -- name encodes granularity
    and collection start time."""
    if granularity not in GRANULARITIES:
        raise ValueError("unknown granularity %r" % (granularity,))
    return "%s.%s.%010d.tsv" % (dataset, granularity, int(start_ts))


def parse_filename(filename):
    """Inverse of :func:`filename_for`: returns (dataset, granularity,
    start_ts) or raises ValueError."""
    base = os.path.basename(filename)
    stem, ext = os.path.splitext(base)
    if ext != ".tsv":
        raise ValueError("not a TSV file: %r" % (filename,))
    parts = stem.split(".")
    if len(parts) < 3 or parts[-2] not in GRANULARITIES:
        raise ValueError("unparseable time-series filename: %r" % (filename,))
    dataset = ".".join(parts[:-2])
    return dataset, parts[-2], int(parts[-1])


class TimeSeriesData:
    """In-memory representation of one time-series file."""

    def __init__(self, dataset, granularity, start_ts, columns=None,
                 rows=None, stats=None):
        self.dataset = dataset
        self.granularity = granularity
        self.start_ts = int(start_ts)
        #: feature column names, in file order (without the key column)
        self.columns = list(columns if columns is not None else ALL_COLUMNS)
        #: list of (key, {column: value}) pairs, rank order preserved
        self.rows = list(rows or [])
        #: collection stats: transactions seen before/after filtering
        self.stats = dict(stats or {"seen": 0, "kept": 0})

    def row_map(self):
        """Return ``{key: row_dict}`` (last occurrence wins)."""
        return dict(self.rows)

    def __len__(self):
        return len(self.rows)


class WindowDump:
    """One dataset's dump for one completed window."""

    __slots__ = ("dataset", "start_ts", "rows", "stats", "columns")

    def __init__(self, dataset, start_ts, rows, stats, columns=None):
        self.dataset = dataset
        #: window start (virtual seconds)
        self.start_ts = start_ts
        #: list of (key, feature_row_dict) in rank order
        self.rows = rows
        #: {"seen": transactions seen, "kept": after filtering/capture}
        self.stats = stats
        #: TSV column order; None means the canonical feature columns.
        #: Meta-datasets (``_platform`` telemetry) carry their own.
        self.columns = columns

    def row_map(self):
        return dict(self.rows)

    def to_timeseries(self, granularity="minutely"):
        """Convert to :class:`TimeSeriesData` for the TSV writer."""
        return TimeSeriesData(
            self.dataset, granularity, self.start_ts,
            columns=self.columns, rows=self.rows, stats=self.stats,
        )

    def __len__(self):
        return len(self.rows)


def write_tsv(directory, data):
    """Write *data* to ``directory`` using the canonical filename.

    The write is atomic: rows go to a ``.tmp`` sibling which is then
    :func:`os.replace`-d onto the final name, so a concurrent reader
    (``aggregate`` racing ``replay``, or a follow-mode
    :class:`~repro.observatory.store.SeriesStore` behind the HTTP
    server) either sees the complete file or no file at all -- never a
    torn window.  The ``.tmp`` sibling has no ``.tsv`` extension, so
    :func:`list_series` cannot pick it up even if a crash strands it.

    Returns the full file path.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, filename_for(data.dataset, data.granularity, data.start_ts)
    )
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.write("key\t" + "\t".join(data.columns) + "\n")
            for key, row in data.rows:
                values = "\t".join(
                    _format(row.get(col, 0)) for col in data.columns)
                fh.write("%s\t%s\n" % (escape_key(key), values))
            stats = "\t".join(
                "%s=%s" % (name, _format(value))
                for name, value in sorted(data.stats.items())
            )
            fh.write("%s\t%s\n" % (_STATS_PREFIX, stats))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    return path


def read_tsv(path):
    """Read a file written by :func:`write_tsv`."""
    dataset, granularity, start_ts = parse_filename(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty time-series file: %r" % (path,))
    header = lines[0].split("\t")
    if header[0] != "key":
        raise ValueError("missing key column in %r" % (path,))
    columns = header[1:]
    rows = []
    stats = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if fields[0] == _STATS_PREFIX:
            for pair in fields[1:]:
                name, _, value = pair.partition("=")
                stats[name] = _parse(value)
            continue
        if len(fields) != len(columns) + 1:
            # zip() would silently drop the trailing columns of a
            # short row (or the extra fields of a long one)
            raise ValueError(
                "%s line %d: expected %d columns, got %d"
                % (path, lineno, len(columns) + 1, len(fields)))
        key = unescape_key(fields[0])
        row = {
            col: _parse(value) for col, value in zip(columns, fields[1:])
        }
        rows.append((key, row))
    return TimeSeriesData(dataset, granularity, start_ts, columns, rows, stats)


def window_overlaps(granularity, window_start, start_ts=None, end_ts=None):
    """Does the window starting at *window_start* overlap
    ``[start_ts, end_ts)``?  ``None`` bounds are open."""
    if end_ts is not None and window_start >= end_ts:
        return False
    if start_ts is not None and \
            window_start + GRANULARITIES[granularity] <= start_ts:
        return False
    return True


def list_series(directory, dataset=None, granularity=None,
                start_ts=None, end_ts=None):
    """List time-series files in *directory*, sorted by start time.

    Returns (path, dataset, granularity, start_ts) tuples, optionally
    filtered.  *start_ts*/*end_ts* restrict the listing to windows
    overlapping the half-open range ``[start_ts, end_ts)``; the filter
    is purely filename-based (granularity gives the window length), so
    a range query never opens files outside its range.
    """
    results = []
    if not os.path.isdir(directory):
        return results
    for name in os.listdir(directory):
        try:
            ds, gran, start = parse_filename(name)
        except ValueError:
            continue
        if dataset is not None and ds != dataset:
            continue
        if granularity is not None and gran != granularity:
            continue
        if not window_overlaps(gran, start, start_ts, end_ts):
            continue
        results.append((os.path.join(directory, name), ds, gran, start))
    results.sort(key=lambda item: (item[1], item[3]))
    return results


def read_series(directory, dataset, granularity="minutely",
                start_ts=None, end_ts=None):
    """Load *dataset*'s files at *granularity*, time-ordered.

    The returned :class:`TimeSeriesData` list plugs directly into the
    analysis modules (they accept anything with ``rows`` and
    ``start_ts``), so a full study can run from a directory of TSVs
    produced by ``dns-observatory replay``.  When *start_ts*/*end_ts*
    are given only the overlapping windows are parsed (the default
    keeps the historical load-everything behaviour).
    """
    return [read_tsv(path)
            for path, _, _, _ in list_series(directory, dataset,
                                             granularity, start_ts,
                                             end_ts)]


def _format(value):
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return "%.4f" % value
    return str(value)


def _parse(text):
    if text == "":
        return 0
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text
