"""TSV time-series file format (Section 2.4).

"The data is stored on disk in the TSV file format, where the file
name encodes both the time granularity, and the moment of time when we
started collecting the data.  The first TSV row contains column names,
and the last row contains data collection statistics, which include
the total number of DNS transactions seen before and after filtering."
"""

import os
from itertools import repeat

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
    and collection start time, a whole second (a fractional start
    raises ValueError rather than share its second's name)."""
    if granularity not in GRANULARITIES:
        raise ValueError("unknown granularity %r" % (granularity,))
    if not float(start_ts).is_integer():
        raise ValueError("window start %r is not a whole second"
                         % (start_ts,))
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
    """One window of one dataset, column-major: the shape a window has
    from the cut to the query.

    :attr:`keys` holds the row keys in rank order and :attr:`values`
    one list per name in :attr:`columns`.  Every cell is what
    :func:`read_tsv` of the window's file returns: producer rows are
    quantized once, here (integral float -> int, other float ->
    ``float("%.4f" % v)``, missing cell -> 0), so a float left in a
    window always renders ``%.4f`` and an int ``str()`` -- the TSV text
    and the segment blocks are pure functions of the stored values.

    :attr:`entry_json` is the window's serving text, rendered on first
    use by whoever serves it (the HTTP ``/series`` entry) and kept with
    the window.  A rewritten file is parsed into a new window, so the
    text never outlives the cells it renders.
    """

    __slots__ = ("dataset", "granularity", "start_ts", "columns", "keys",
                 "values", "stats", "_positions", "entry_json")

    def __init__(self, dataset, granularity, start_ts, columns=None,
                 rows=None, stats=None):
        rows = list(rows) if rows else []
        stats = stats or {"seen": 0, "kept": 0}
        self.dataset = dataset
        self.granularity = granularity
        #: window start (virtual seconds)
        self.start_ts = start_ts
        #: feature column names, in file order (without the key column)
        self.columns = list(columns if columns is not None else ALL_COLUMNS)
        #: row keys, rank order preserved
        self.keys = [key for key, _ in rows]
        #: one value list per column, parallel to :attr:`keys`
        self.values = [[quantize(row.get(col, 0)) for _, row in rows]
                       for col in self.columns]
        #: collection stats: transactions seen before/after filtering,
        #: in name order (the trailer's, hence a parsed window's)
        self.stats = {name: quantize(stats[name]) for name in sorted(stats)}
        self._positions = None
        self.entry_json = None

    @classmethod
    def from_columns(cls, dataset, granularity, start_ts, columns, keys,
                     values, stats):
        """A window over cells that already are file values (a text
        parse, a segment decode): no cell is quantized or copied."""
        self = cls.__new__(cls)
        self.dataset, self.granularity = dataset, granularity
        self.start_ts, self.columns = start_ts, columns
        self.keys, self.values, self.stats = keys, values, stats
        self._positions = None
        self.entry_json = None
        return self

    def to_timeseries(self, granularity):
        """This window labelled *granularity*.  A cut already yields
        the writer's input; kept for ``benchmarks/ledger/layers.py``,
        which only a benchmark PR may edit."""
        return self.from_columns(self.dataset, granularity, self.start_ts,
                                 self.columns, self.keys, self.values,
                                 self.stats)

    def column(self, name):
        """The value list of column *name* (zeros when absent)."""
        try:
            return self.values[self.columns.index(name)]
        except ValueError:
            return [0] * len(self.keys)

    def row(self, position):
        """``{column: value}`` of the row at *position*."""
        return dict(zip(self.columns,
                        [cells[position] for cells in self.values]))

    @property
    def rows(self):
        """``[(key, {column: value})]`` in rank order, for the callers
        that want dicts.  Built per access and never kept: a window
        resident in the store LRU holds its cells and, once served,
        the JSON text of its ``/series`` entry (:attr:`entry_json`),
        one byte a character.  On the ledger's serving tree that text
        is 0.35-1.0x the memory of the cells it renders, where these
        dicts would add 1.3-1.5x on the large windows."""
        cells = zip(*self.values) if self.values else repeat(())
        return [(key, dict(zip(self.columns, row)))
                for key, row in zip(self.keys, cells)]

    def row_map(self):
        """Return ``{key: row_dict}`` (last occurrence wins)."""
        return dict(self.rows)

    def position(self, key):
        """Row position of *key* (its last occurrence, as
        :meth:`row_map` resolves repeats) or ``None``.  The key index
        is built on first use and stays with the window."""
        positions = self._positions
        if positions is None:
            positions = self._positions = {
                key: i for i, key in enumerate(self.keys)}
        return positions.get(key)

    def cell(self, key, column):
        """*key*'s value in *column*; 0 where either is absent."""
        position = self.position(key)
        return 0 if position is None else self.column(column)[position]

    def __len__(self):
        return len(self.keys)


def _render(data):
    """The TSV text of *data*, rendered column-major."""
    texts = [["%.4f" % v if type(v) is float else str(v) for v in cells]
             for cells in data.values] or [[""] * len(data.keys)]
    lines = ["key\t" + "\t".join(data.columns)]
    lines.extend(map("\t".join, zip(map(escape_key, data.keys), *texts)))
    lines.append(_STATS_PREFIX + "\t" + "\t".join(
        "%s=%s" % (name, "%.4f" % v if type(v) is float else v)
        for name, v in data.stats.items()))
    return "\n".join(lines) + "\n"


def atomic_write(path, payload):
    """Write the bytes *payload* at *path* through a ``.tmp`` sibling
    and :func:`os.replace`, so a concurrent reader sees the complete
    file or no file at all, never a torn one."""
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    return path


def write_tsv(directory, data):
    """Write *data* to ``directory`` using the canonical filename.

    The write is atomic (:func:`atomic_write`): a concurrent reader
    (``aggregate`` racing ``replay``, or a follow-mode
    :class:`~repro.observatory.store.SeriesStore` behind the HTTP
    server) never sees a torn window.  The ``.tmp`` sibling has no
    ``.tsv`` extension, so :func:`list_series` cannot pick it up even
    if a crash strands it.

    Returns the full file path.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, filename_for(data.dataset, data.granularity, data.start_ts)
    )
    return atomic_write(path, _render(data).encode("utf-8"))


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
    records = []
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
        records.append(fields)
    texts = list(zip(*records)) or [()] * (len(columns) + 1)
    return TimeSeriesData.from_columns(
        dataset, granularity, start_ts, columns,
        [unescape_key(text) for text in texts[0]],
        [[_parse(text) for text in cells] for cells in texts[1:]],
        stats or {"seen": 0, "kept": 0})


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


def quantize(value):
    """The value :func:`read_tsv` returns for a producer's cell."""
    if type(value) is int:
        return value
    if not isinstance(value, float):
        # bools, strings: whatever their text reads back as -- a
        # string that spells a number is that number from here on
        # ("1.5" renders ``1.5000``, "007" ``7``); producers emit numbers
        value = _parse(str(value))
        if not isinstance(value, float):
            return value
    elif value - value != 0:
        return "%.4f" % value  # nan or +-inf: its text, as it reads back
    if abs(value) < 1e15 and value == int(value):
        return int(value)
    return float("%.4f" % value)


def _parse(text):
    """A cell's value: an int, a finite float, or else the text itself
    -- nan and +-inf included, which have no JSON form to serve."""
    if text == "":
        return 0
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return text
        return value if value - value == 0 else text
