"""Platform self-telemetry: instrument registry + per-window snapshots.

The paper sells DNS Observatory as an *operated platform* (§2:
sustained 200 k qps, months of uptime), which means the platform's own
health -- sketch saturation, Bloom-gate churn, shard queue depth,
flush latency -- is itself a first-class time series.  The
heavy-hitter DDoS-detection literature (Afek et al., *Efficient
Distinct Heavy Hitters for DNS DDoS Attack Detection*; Ozery et al.,
*Information-Based Heavy Hitters for Real-Time DNS Data Exfiltration
Detection*) goes further: sketch-health signals such as fill-ratio
spikes, eviction churn and capture-ratio collapse *are* the
attack-detection signal.  So telemetry snapshots are emitted once per
window as a ``_platform`` meta-dataset through the ordinary
``cut -> write_tsv`` path, flowing through the same minutely ->
decaminutely -> ... aggregation chain and report tooling as paper
data.

Design constraints:

* **Zero cost when disabled.**  The ingest hot paths never branch on
  telemetry per transaction.  Instruments are only touched at window
  boundaries (once per flush), and a disabled registry
  (:data:`NULL`) hands out shared no-op instruments, so call sites
  need no ``if`` guards of their own.
* **Pull over push.**  The sketches already keep their own stream
  accounting (``SpaceSaving.offered/gated/evictions``, Bloom fill
  ratios); the registry *samples* them via registered callbacks at
  snapshot time instead of instrumenting every update.  Cumulative
  sources are differenced per snapshot (``deltas=``) so every
  ``_platform`` row reads as per-window activity and aggregates
  cleanly up the granularity chain.
"""

from repro.sketches.histogram import LogHistogram

#: the reserved meta-dataset name platform snapshots are written under
PLATFORM_DATASET = "_platform"


class Counter:
    """Monotonic event counter; snapshots emit the delta since the
    previous snapshot, so ``_platform`` rows carry per-window counts."""

    __slots__ = ("value", "_last")

    def __init__(self):
        self.value = 0
        self._last = 0

    def inc(self, n=1):
        self.value += n

    def delta(self):
        """Per-snapshot increment; advances the snapshot watermark."""
        d = self.value - self._last
        self._last = self.value
        return d


class Timing:
    """Duration histogram (milliseconds), drained at each snapshot.

    Reuses :class:`~repro.sketches.histogram.LogHistogram` so a window
    with thousands of flushes still snapshots in O(buckets).
    """

    __slots__ = ("_hist",)

    def __init__(self):
        self._hist = LogHistogram(min_value=1e-3)

    def observe(self, seconds):
        """Record one duration (wall-clock seconds)."""
        self._hist.add(seconds * 1000.0)

    def drain(self, name):
        """Flatten into ``{column: value}`` and reset for the next
        window: sample count, mean, p95 and max in milliseconds."""
        hist = self._hist
        row = {
            name + "_n": hist.count,
            name + "_ms_mean": round(hist.mean, 3),
            name + "_ms_p95": round(hist.quantile(0.95), 3),
            name + "_ms_max": round(hist.max, 3),
        }
        hist.clear()
        return row


class Ratio:
    """Hit/total ratio instrument, emitted per snapshot window.

    Serves the query layer's hit-ratio columns (store LRU hits, HTTP
    conditional-request 304s): callers mark every event and the hits
    among them; each snapshot emits the ratio over the window and
    resets, so the ``_platform`` row reads as per-window behaviour
    rather than a lifetime average that stops moving.
    """

    __slots__ = ("hits", "total", "_last_hits", "_last_total")

    def __init__(self):
        self.hits = 0
        self.total = 0
        self._last_hits = 0
        self._last_total = 0

    def mark(self, hit):
        """Record one event; *hit* says whether it counts as a hit."""
        self.total += 1
        if hit:
            self.hits += 1

    def drain(self, name):
        """Per-snapshot ``{name: ratio, name_n: events}`` row slice."""
        hits = self.hits - self._last_hits
        total = self.total - self._last_total
        self._last_hits = self.hits
        self._last_total = self.total
        return {name: round(hits / total, 4) if total else 0.0,
                name + "_n": total}


class _NullInstrument:
    """Shared do-nothing instrument handed out by :class:`NullTelemetry`."""

    __slots__ = ()

    def inc(self, n=1):
        pass

    def observe(self, seconds):
        pass

    def mark(self, hit):
        pass


NULL_INSTRUMENT = _NullInstrument()


class Telemetry:
    """Instrument registry grouped by *component* (one TSV row each).

    Components are free-form dotted keys (``tracker.srvip``,
    ``shard0.window``, ``coordinator``); the per-window snapshot
    yields one ``(component, {column: value})`` row per component,
    which :class:`~repro.observatory.window.WindowManager` wraps into
    a ``_platform`` window.
    """

    enabled = True

    def __init__(self):
        #: component -> {name: instrument}, insertion-ordered
        self._components = {}
        #: [component, sampler(now) -> dict, delta column set, last dict]
        self._samplers = []

    # -- instrument factories (idempotent per (component, name)) -------

    def counter(self, component, name):
        return self._instrument(component, name, Counter)

    def timing(self, component, name):
        return self._instrument(component, name, Timing)

    def ratio(self, component, name):
        return self._instrument(component, name, Ratio)

    def _instrument(self, component, name, cls):
        row = self._components.setdefault(component, {})
        instrument = row.get(name)
        if instrument is None:
            instrument = row[name] = cls()
        elif not isinstance(instrument, cls):
            raise TypeError("instrument %s.%s already registered as %s"
                            % (component, name,
                               type(instrument).__name__))
        return instrument

    def register(self, component, sampler, deltas=()):
        """Register a pull-sampler: ``sampler(now) -> {column: value}``
        called at every snapshot.  Columns named in *deltas* are
        cumulative at the source and differenced per snapshot."""
        self._samplers.append([component, sampler, frozenset(deltas), {}])

    def snapshot(self, now=None):
        """Collect one row per component: counters as per-window
        deltas, timings and ratios drained, samplers
        invoked with *now* (the window end, virtual seconds)."""
        rows = {}
        for component, instruments in self._components.items():
            out = rows.setdefault(component, {})
            for name, instrument in instruments.items():
                if isinstance(instrument, Counter):
                    out[name] = instrument.delta()
                else:
                    out.update(instrument.drain(name))
        for entry in self._samplers:
            component, sampler, deltas, last = entry
            out = rows.setdefault(component, {})
            for column, value in sampler(now).items():
                if column in deltas:
                    out[column] = value - last.get(column, 0)
                    last[column] = value
                else:
                    out[column] = value
        return list(rows.items())


class NullTelemetry:
    """Disabled registry: every factory returns the shared no-op
    instrument, sampler registration is dropped, snapshots are empty.
    Hot paths hold references obtained at construction time, so the
    disabled configuration costs nothing per transaction and one dead
    attribute check per window flush."""

    enabled = False

    __slots__ = ()

    def counter(self, component, name):
        return NULL_INSTRUMENT

    def timing(self, component, name):
        return NULL_INSTRUMENT

    def ratio(self, component, name):
        return NULL_INSTRUMENT

    def register(self, component, sampler, deltas=()):
        pass

    def snapshot(self, now=None):
        return []


#: process-wide disabled registry (stateless, safe to share)
NULL = NullTelemetry()


def resolve_telemetry(value):
    """Normalize a ``telemetry=`` argument: falsy -> the shared no-op
    registry, ``True`` -> a fresh :class:`Telemetry`, and an existing
    registry instance passes through (shared-registry wiring)."""
    if not value:
        return NULL
    if value is True:
        return Telemetry()
    return value


def union_columns(rows):
    """Ordered union of the column names of ``(key, row_dict)`` pairs,
    preserving first-seen order -- the ``_platform`` TSV header."""
    columns = []
    seen = set()
    for _, row in rows:
        for column in row:
            if column not in seen:
                seen.add(column)
                columns.append(column)
    return columns
