"""Window-series operations shared by the analysis modules.

Observatory output is a sequence of per-window rows (one
:class:`~repro.observatory.tsv.TimeSeriesData` per window, whether it
came from a cut, a TSV file or a segment).  The analyses typically
need whole-run per-object statistics, so this module accumulates
windows: counters are summed (total transactions), gauges are averaged
weighted by the window's ``hits`` (an object's median delay should
count when it had traffic).
"""

from repro.observatory.features import COUNTER_COLUMNS

_COUNTERS = frozenset(COUNTER_COLUMNS)

#: Columns holding discrete *values* (TTLs): averaging them across
#: windows is meaningless, so accumulation takes the hits-weighted
#: mode instead.
MODE_COLUMNS = frozenset(
    ("ttl_top1", "ttl_top2", "ttl_top3", "nsttl_top1"))

#: Columns accumulated with max across windows ("the deepest QNAME
#: ever observed" -- the §3.6 qmin evidence is any-window evidence).
MAX_COLUMNS = frozenset(("qdots_max",))


class AccumulatedRow(dict):
    """A per-object whole-run row; plain dict plus window bookkeeping."""

    def __init__(self):
        super().__init__()
        self.windows = 0


class Accumulator:
    """Incremental window folder behind :func:`accumulate_dumps`.

    Windows are folded column-major, a run of consecutive windows at a
    time (:meth:`fold_columns_run`, the one fold); per ``(key,
    column)`` cell the windows are applied in window order.  Call
    :meth:`finish` exactly once to resolve mode columns and take the
    ``{key: AccumulatedRow}`` result.
    """

    __slots__ = ("totals", "_weights", "_modes")

    def __init__(self):
        self.totals = {}
        self._weights = {}
        self._modes = {}

    def _acc_for(self, key):
        acc = self.totals.get(key)
        if acc is None:
            acc = AccumulatedRow()
            self.totals[key] = acc
            self._weights[key] = {}
            self._modes[key] = {}
        return acc

    def _fold_one(self, keys, columns, columns_values):
        """:meth:`fold_columns_run` for a run of one, which is what
        windows whose rank order moves fold as: the same operations
        without the per-cell loop over the run (EXPERIMENTS.md, "One
        window shape")."""
        accs = [self._acc_for(key) for key in keys]
        for acc in accs:
            acc.windows += 1
        try:
            raw_hits = columns_values[columns.index("hits")]
        except ValueError:
            raw_hits = (0,) * len(keys)
        weights = self._weights
        modes = self._modes
        for col, values in zip(columns, columns_values):
            if col in _COUNTERS:
                for acc, value in zip(accs, values):
                    acc[col] = acc.get(col, 0) + value
            elif col in MAX_COLUMNS:
                for acc, value in zip(accs, values):
                    if value > acc.get(col, 0):
                        acc[col] = value
            elif col in MODE_COLUMNS:
                for key, value, hv in zip(keys, values, raw_hits):
                    if value:
                        votes = modes[key].setdefault(col, {})
                        votes[value] = votes.get(value, 0.0) + \
                            max(hv or 0, 1)
            else:
                for key, acc, value, hv in zip(keys, accs, values,
                                               raw_hits):
                    hits = hv or 0
                    wsum = weights[key].get(col, 0.0)
                    acc[col] = (acc.get(col, 0.0) * wsum + value * hits) \
                        / (wsum + hits) if (wsum + hits) else 0.0
                    weights[key][col] = wsum + hits

    def fold_columns_run(self, keys, columns, runs):
        """Fold a *run* of consecutive windows sharing one key tuple.

        *runs* holds one ``values`` list (a value list per column)
        per window, in window order, every window having exactly the
        ordered *keys* and *columns*; a window on its own is a run of
        one.  Stable key tuples are what a columnar engine calls
        clustered data, and they let the per-window Python overhead
        amortize across the run: counters collapse to one C-level
        ``sum(vals, start)`` per ``(key, column)`` cell -- the same
        left fold as sequential additions -- and the gauge recurrence
        keeps its state in locals instead of two dict round-trips per
        cell.
        """
        n = len(runs)
        if n == 1:
            return self._fold_one(keys, columns, runs[0])
        modes = self._modes
        accs = [self._acc_for(key) for key in keys]
        wdicts = [self._weights[key] for key in keys]
        for acc in accs:
            acc.windows += n
        try:
            hi = columns.index("hits")
            hits_rows = list(zip(*[cv[hi] for cv in runs]))
        except ValueError:
            hits_rows = [(0,) * n] * len(keys)
        for ci, col in enumerate(columns):
            per_key = zip(*[cv[ci] for cv in runs])
            if col in _COUNTERS:
                for acc, vals in zip(accs, per_key):
                    acc[col] = sum(vals, acc.get(col, 0))
            elif col in MAX_COLUMNS:
                for acc, vals in zip(accs, per_key):
                    peak = max(vals)
                    if peak > acc.get(col, 0):
                        acc[col] = peak
            elif col in MODE_COLUMNS:
                for key, vals, hvs in zip(keys, per_key, hits_rows):
                    votes = None
                    for value, hv in zip(vals, hvs):
                        if value:
                            if votes is None:
                                votes = modes[key].setdefault(col, {})
                            votes[value] = votes.get(value, 0.0) + \
                                max(hv or 0, 1)
            else:
                for acc, wd, vals, hvs in zip(accs, wdicts, per_key,
                                              hits_rows):
                    wsum = wd.get(col, 0.0)
                    mean = acc.get(col, 0.0)
                    for value, hv in zip(vals, hvs):
                        hits = hv or 0
                        total = wsum + hits
                        mean = (mean * wsum + value * hits) / total \
                            if total else 0.0
                        wsum = total
                    acc[col] = mean
                    wd[col] = wsum

    def finish(self):
        """Resolve mode columns and return ``{key: AccumulatedRow}``."""
        totals = self.totals
        for key, per_col in self._modes.items():
            for col, votes in per_col.items():
                totals[key][col] = max(votes.items(),
                                       key=lambda kv: kv[1])[0]
        return totals


def accumulate_dumps(dumps):
    """Fold per-window rows into per-key whole-run rows.

    Parameters
    ----------
    dumps:
        Iterable of :class:`~repro.observatory.tsv.TimeSeriesData`
        windows, in window order.

    Returns ``{key: AccumulatedRow}`` where counters are summed and
    gauges are hits-weighted means.
    """
    acc = Accumulator()
    for dump in dumps:
        acc.fold_columns_run(dump.keys, dump.columns, [dump.values])
    return acc.finish()


def ranked_keys(rows, by="hits", descending=True):
    """Keys of *rows* ranked by column *by* (ties broken by key)."""
    return [
        key for key, _ in sorted(
            rows.items(),
            key=lambda kv: ((-kv[1].get(by, 0)) if descending
                            else kv[1].get(by, 0), kv[0]),
        )
    ]


def total_hits(rows):
    """Sum of the hits column over all rows."""
    return sum(row.get("hits", 0) for row in rows.values())


def split_dumps_at(dumps, ts):
    """Split a dump list into (before, after) by window start time."""
    before = [d for d in dumps if d.start_ts < ts]
    after = [d for d in dumps if d.start_ts >= ts]
    return before, after
