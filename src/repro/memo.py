"""Bounded memos whose wholesale clears are counted.

The ingest path remembers facts about strings the stream keeps
repeating: a name's public suffix (:mod:`repro.dnswire.psl`), a
dataset key (:mod:`repro.observatory.keys`), the hashes of a prepared
record (:mod:`repro.observatory.features`).  Each memo is a dict that
is cleared wholesale once it holds its cap, so a hit costs one dict
lookup and nothing else.  A clear is a silent policy decision: every
one is counted per kind in :data:`CLEARS`, and :func:`clears_sampler`
surfaces the counts in the ``_platform`` meta-dataset.  A cap too
small for the stream then shows as a clear count, not only as lost
throughput.
"""

#: memo kind -> wholesale clears so far in this process: ``record``
#: (the prepared-record memos), ``key`` (the dataset key memos) and
#: ``psl`` (the public-suffix cache)
CLEARS = {"record": 0, "key": 0, "psl": 0}

#: the ``_platform`` columns of :func:`clears_sampler`, all cumulative
MEMO_COLUMNS = ("memo_clears",) + tuple(kind + "_clears" for kind in CLEARS)


class BoundedMemo(dict):
    """A dict that :meth:`put` clears wholesale once it holds *limit*
    entries, counting the clear under its *kind* (a key of
    :data:`CLEARS`)."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        super().__init__()
        self.kind = kind

    def put(self, key, value, limit):
        """Store and return *value* under *key*, after a wholesale
        clear when *limit* entries are already held.  The caller reads
        *limit* from its own module constant or class attribute, so a
        test can lower it."""
        if len(self) >= limit:
            self.clear()
            CLEARS[self.kind] += 1
        self[key] = value
        return value


def clears_sampler():
    """A telemetry sampler ``now -> {column: value}`` over the clears
    since this call: ``memo_clears`` in total and ``<kind>_clears``
    per kind, all cumulative (register it with
    ``deltas=MEMO_COLUMNS``).  The memos are per process, so every
    pipeline of one process reports the same clears."""
    base = dict(CLEARS)

    def sample(now):
        counts = {kind + "_clears": count - base[kind]
                  for kind, count in CLEARS.items()}
        return {"memo_clears": sum(counts.values()), **counts}

    return sample
