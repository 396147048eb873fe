"""Equivalence tests for the clustered-run fold (fold_columns_run).

The store batches consecutive windows sharing one ordered key tuple
into a single :meth:`Accumulator.fold_columns_run` call.  The contract
backing that batching is *bit*-identity: per ``(key, column)`` cell the
run fold applies the same operations in the same window order as a
row-major fold, so every split of the same windows into runs yields
the exact same floats -- not approximately, exactly.  The row-major
fold lives here, as the independent reference (:func:`fold_rows`).
"""

import random

from repro.analysis.seriesops import (
    _COUNTERS,
    MAX_COLUMNS,
    MODE_COLUMNS,
    Accumulator,
)

COLUMNS = ["hits", "ok", "qdots_max", "ttl_top1", "delay_q50"]


def random_windows(seed, n_windows, keys):
    """Per-window parallel column lists over a fixed key tuple."""
    rng = random.Random(seed)
    windows = []
    for _ in range(n_windows):
        cols = []
        for col in COLUMNS:
            if col == "hits":
                cols.append([rng.choice([0, 1, 3, 250]) for _ in keys])
            elif col == "ok":
                cols.append([rng.randrange(100) for _ in keys])
            elif col == "qdots_max":
                cols.append([rng.randrange(6) for _ in keys])
            elif col == "ttl_top1":
                cols.append([rng.choice([0, 60, 300, 86400])
                             for _ in keys])
            else:
                cols.append([rng.uniform(0.0, 50.0) for _ in keys])
        windows.append(cols)
    return windows


def rows_of(keys, cols):
    return [(key, dict(zip(COLUMNS, values)))
            for key, values in zip(keys, zip(*cols))]


def fold_rows(acc, rows):
    """Reference: fold one window's ``(key, row_dict)`` list into
    *acc*, one cell at a time, row by row."""
    for key, row in rows:
        total = acc._acc_for(key)
        total.windows += 1
        hits = row.get("hits", 0) or 0
        for col, value in row.items():
            if col in _COUNTERS:
                total[col] = total.get(col, 0) + value
            elif col in MAX_COLUMNS:
                if value > total.get(col, 0):
                    total[col] = value
            elif col in MODE_COLUMNS:
                if value:  # 0 = no TTL observed: not a vote
                    votes = acc._modes[key].setdefault(col, {})
                    votes[value] = votes.get(value, 0.0) + max(hits, 1)
            else:
                wsum = acc._weights[key].get(col, 0.0)
                total[col] = (total.get(col, 0.0) * wsum + value * hits) \
                    / (wsum + hits) if (wsum + hits) else 0.0
                acc._weights[key][col] = wsum + hits


def finish(acc):
    rows = acc.finish()
    return {key: (row.windows, dict(row)) for key, row in rows.items()}


def test_run_fold_matches_row_major_exactly():
    keys = ["k%d" % i for i in range(7)]
    windows = random_windows(1, 40, keys)
    row_major = Accumulator()
    for cols in windows:
        fold_rows(row_major, rows_of(keys, cols))
    run = Accumulator()
    run.fold_columns_run(keys, COLUMNS, windows)
    assert finish(run) == finish(row_major)


def test_run_fold_matches_per_window_columnar_exactly():
    keys = ["k%d" % i for i in range(5)]
    windows = random_windows(2, 25, keys)
    one_by_one = Accumulator()
    for cols in windows:
        one_by_one.fold_columns_run(keys, COLUMNS, [cols])
    run = Accumulator()
    run.fold_columns_run(keys, COLUMNS, windows)
    assert finish(run) == finish(one_by_one)


def test_interleaved_folds_agree_with_pure_row_major():
    """The store's real access pattern: clustered runs of every
    length, single stragglers as runs of one, in window order.  The
    mix must equal one row-major pass."""
    keys = ["k%d" % i for i in range(6)]
    windows = random_windows(3, 30, keys)
    pure = Accumulator()
    for cols in windows:
        fold_rows(pure, rows_of(keys, cols))
    mixed = Accumulator()
    rng = random.Random(99)
    i = 0
    while i < len(windows):
        n = 1 if rng.randrange(3) == 0 \
            else min(rng.randrange(1, 6), len(windows) - i)
        mixed.fold_columns_run(keys, COLUMNS, windows[i:i + n])
        i += n
    assert finish(mixed) == finish(pure)


def test_run_fold_mode_zero_values_do_not_vote():
    keys = ["k"]
    windows = [
        [[1000], [0], [0], [0], [1.0]],   # ttl 0: NoData-only window
        [[3], [0], [0], [900], [1.0]],
    ]
    acc = Accumulator()
    acc.fold_columns_run(keys, COLUMNS, windows)
    assert acc.finish()["k"]["ttl_top1"] == 900


def test_run_fold_mode_zero_hits_votes_minimally():
    keys = ["k"]
    windows = [
        [[0], [0], [0], [60], [0.0]],
        [[0], [0], [0], [60], [0.0]],
        [[0], [0], [0], [300], [0.0]],
    ]
    acc = Accumulator()
    acc.fold_columns_run(keys, COLUMNS, windows)
    assert acc.finish()["k"]["ttl_top1"] == 60


def test_run_fold_max_keeps_first_peak_semantics():
    keys = ["k"]
    windows = [
        [[1], [1], [2], [0], [0.0]],
        [[1], [1], [5], [0], [0.0]],
        [[1], [1], [5], [0], [0.0]],  # tie with the earlier peak
        [[1], [1], [3], [0], [0.0]],
    ]
    acc = Accumulator()
    acc.fold_columns_run(keys, COLUMNS, windows)
    assert acc.finish()["k"]["qdots_max"] == 5


def test_run_fold_gauge_zero_hits_windows():
    """Windows with hits == 0 contribute no gauge weight; an all-zero
    prefix leaves the running mean at 0.0, exactly like the
    reference."""
    keys = ["k"]
    windows = [
        [[0], [0], [0], [0], [99.0]],
        [[10], [0], [0], [0], [4.0]],
        [[30], [0], [0], [0], [8.0]],
    ]
    run = Accumulator()
    run.fold_columns_run(keys, COLUMNS, windows)
    rows = Accumulator()
    for cols in windows:
        fold_rows(rows, rows_of(keys, cols))
    assert finish(run) == finish(rows)


def test_run_fold_missing_hits_column():
    """A dataset without a hits column still folds (gauges weight 0)."""
    cols = ["ok", "delay_q50"]
    windows = [[[5], [10.0]], [[7], [20.0]]]
    run = Accumulator()
    run.fold_columns_run(["k"], cols, windows)
    rows = Accumulator()
    for w in windows:
        fold_rows(rows, [("k", dict(zip(cols, [w[0][0], w[1][0]])))])
    assert finish(run) == finish(rows)


def test_run_fold_accumulates_across_calls():
    """A second run call continues existing per-key state (the store
    flushes runs at ACCUMULATE_RUN windows and on interruptions)."""
    keys = ["a", "b"]
    windows = random_windows(4, 20, keys)
    split = Accumulator()
    split.fold_columns_run(keys, COLUMNS, windows[:9])
    split.fold_columns_run(keys, COLUMNS, windows[9:])
    whole = Accumulator()
    whole.fold_columns_run(keys, COLUMNS, windows)
    assert finish(split) == finish(whole)


def test_cell_fold_matches_run_fold_on_clean_windows():
    """``fold_cells`` -- the store's retry for windows holding text --
    folds a clean window to the very floats the fast fold computes."""
    keys = ["k%d" % i for i in range(6)]
    windows = random_windows(5, 20, keys)
    cells = Accumulator()
    assert sum(cells.fold_cells(keys, COLUMNS, cols)
               for cols in windows) == 0
    run = Accumulator()
    run.fold_columns_run(keys, COLUMNS, windows)
    assert finish(cells) == finish(run)


def test_cell_fold_reads_non_numbers_as_missing():
    """A cell that is not a finite number is missing: 0 for a counter
    (``hits`` included, so the window lends its gauges no weight), no
    value, vote or peak otherwise -- the reference fold over the rows
    with those cells taken out."""
    keys = ["k%d" % i for i in range(4)]
    windows = random_windows(6, 12, keys)
    rng = random.Random(7)
    holes = 0
    for cols in windows:
        for values in cols:
            for i in range(len(values)):
                if rng.randrange(5) == 0:
                    values[i] = rng.choice(["n/a", "inf", float("nan"),
                                            float("-inf"), None])
                    holes += 1
    cells = Accumulator()
    assert sum(cells.fold_cells(keys, COLUMNS, cols)
               for cols in windows) == holes
    reference = Accumulator()
    for cols in windows:
        rows = []
        for key, row in rows_of(keys, cols):
            for col, value in list(row.items()):
                if not isinstance(value, (int, float)) or \
                        value != value or value in (float("inf"),
                                                    float("-inf")):
                    if col in _COUNTERS:
                        row[col] = 0
                    else:
                        del row[col]
            rows.append((key, row))
        fold_rows(reference, rows)
    assert finish(cells) == finish(reference)
