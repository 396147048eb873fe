"""Route handlers: the JSON query API over a :class:`SeriesStore`.

Endpoints (all GET):

* ``/datasets`` -- index summary: every dataset, granularity, window
  count and covered time span (no file opens);
* ``/series/<dataset>`` -- per-window rows over a time range
  (``granularity=``, ``start=``, ``end=``, ``limit=`` newest windows;
  ``cursor=`` pages forward from a start timestamp -- exclusive of
  windows already returned -- the response's ``next_cursor`` feeding
  the next page; ``follow=<cursor>`` long-polls until a window past
  the cursor exists, an empty ``follow=`` tailing from "now");
* ``/stream/<dataset>`` -- Server-Sent Events: one ``event: window``
  per flushed window the moment it lands, with ``id:``/
  ``Last-Event-ID`` lossless resume, comment heartbeats while idle,
  and a final ``event: eof`` when the daemon drains on SIGTERM;
* ``/topk/<dataset>`` -- top-``n`` keys ranked ``by=`` a column over a
  range (the paper's "top-k FQDNs now" question);
* ``/topk/windows/<dataset>`` -- per-window top-``n``: one ranked
  entry per window over the range, streamed one window at a time
  (rank evolution, where ``/topk`` collapses the range);
* ``/key/<dataset>/<key>`` -- one key's ``column=`` time series
  (``limit=`` newest windows; ``cursor=`` pages oldest-first exactly
  like ``/series``, the answer's ``next_cursor`` feeding the next
  page);
* ``/vantage`` (or ``/vantage/asn`` / ``/vantage/cc``) -- the latest
  per-ASN / per-country vantage indices (reachability score,
  time-to-answer index) from the ``_vantage_*`` series a
  ``replay/run --vantage`` derivation writes, ranked by traffic;
* ``/platform/health`` -- alert-rule verdicts over the ``_platform``
  telemetry series -- joined by the ``_detector`` series when abuse
  detectors run, so ``detect-*`` rules trip on flagged eSLDs -- plus
  server/store self-stats.

When *auth_tokens* is configured every request must carry a matching
``Authorization: Bearer`` credential (anything else is 401 +
``WWW-Authenticate``), and *rate_limit* puts a per-client-IP token
bucket in front of routing (over-budget requests get 429 +
``Retry-After``).  Both gates run before any route work -- an
unauthorized or throttled request never touches the store.

Responses over closed windows are immutable, so every store-backed
endpoint carries a strong ETag derived from the exact file revisions
(name + mtime + size) the answer was computed from; ``If-None-Match``
turns a repeat poll into a 304 with no body and no window parses.
Each window's ``/series`` entry is rendered to JSON text once per
file revision and kept on the parsed window in the store LRU, so
``/series``, ``follow=`` and every ``/stream`` subscriber join texts
already made; the other routes' 200 bodies are memoized by (route,
ETag), so an unconditional repeat query over unchanged windows skips
the re-accumulation and re-encoding too.

``/series``, ``/key`` and ``/topk/windows`` answers whose backing
files exceed ``stream_threshold`` bytes go out as a
:class:`~repro.server.http.StreamingResponse` instead: the JSON
document is encoded from the store's window iterator one fragment at
a time (ETag still computed -- and 304s still short-circuit -- before
the first chunk), so server memory for a yearly span is bounded by
the store LRU, not the span.  Both paths render from the same
fragment generator, so a streamed body is byte-identical to a
buffered one.
Per-endpoint latency, conditional-hit, streamed-bytes and
first-byte-latency instruments live in the shared
:mod:`repro.observatory.telemetry` registry, so a served store is
monitorable with the same machinery as the ingest pipeline.
"""

import asyncio
import contextlib
import functools
import hashlib
import json
import math
import time
from collections import OrderedDict, namedtuple

from repro.detect import DETECTOR_DATASET
from repro.observatory import alerts
from repro.observatory.telemetry import PLATFORM_DATASET, resolve_telemetry
from repro.observatory.tsv import GRANULARITIES

from repro.server.http import HttpError, Response, StreamingResponse

#: hard ceiling on /topk n= (a typo must not serialize a million rows)
MAX_TOPK = 10000

#: hard ceiling on /series limit=
MAX_WINDOWS = 5000

#: rendered 200 bodies kept per app, keyed by (route, ETag) -- the
#: windows behind an ETag are immutable, so the JSON encoding is too.
#: ``/series`` bodies are joins of texts the windows hold, and stay out
RESPONSE_CACHE = 128

#: answers computed from more than this many bytes of backing TSV are
#: streamed (chunked transfer-encoding) and bypass the body cache
STREAM_THRESHOLD_BYTES = 256 * 1024

#: default / ceiling for the ``timeout=`` of a ``follow=`` long-poll
FOLLOW_TIMEOUT_DEFAULT = 25.0
FOLLOW_TIMEOUT_MAX = 120.0

#: idle SSE connections get a comment-line heartbeat this often, so a
#: dead client is detected within one interval (the write fails) and
#: proxies do not reap the connection as idle
SSE_HEARTBEAT_SECONDS = 15.0

#: fallback poll interval for follow/stream when no broker is wired
#: (plain ``serve --follow`` deployments: the store re-scans per query)
FOLLOW_POLL_SECONDS = 1.0

#: rate-limit buckets tracked at once; past this the stalest clients
#: are evicted (an evicted client restarts with a full burst, so the
#: cap bounds memory without ever locking anyone out)
MAX_RATE_CLIENTS = 1024

#: the serving names of the vantage groupings (datasets from
#: :mod:`repro.analysis.vantage`, inlined to keep the server layer
#: import-independent of the analysis package)
VANTAGE_GROUPS = {"asn": "_vantage_asn", "cc": "_vantage_cc"}

#: the one JSON text form (compact, sorted keys): the buffered path,
#: the body cache and the streamed path must all produce the same
#: entity for one ETag
_dumps = functools.partial(json.dumps, separators=(",", ":"),
                           sort_keys=True, allow_nan=False)


def _finite(raw, message):
    """*raw* as a finite float, else a 400 with *message*: nan and
    +-inf parse as floats but have no JSON form, and a cursor or range
    bound made of them would be echoed back as a bare ``Infinity``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise HttpError(400, message)
    return value


#: one route's instruments in the shared telemetry registry
_RouteStats = namedtuple(
    "_RouteStats", "latency requests etag_hit streamed_bytes first_byte")


class ObservatoryApp:
    """Async request handler bound to one store + rule set.

    Parameters
    ----------
    store:
        A :class:`~repro.observatory.store.SeriesStore` (typically
        follow-mode when a writer is live).
    rules:
        Alert rules for ``/platform/health``
        (default :data:`repro.observatory.alerts.DEFAULT_RULES`).
    telemetry:
        ``True`` / registry for per-endpoint latency + 304-hit-ratio
        instruments and a ``server`` pull-sampler; the *store* should
        be registered on the same registry for one unified health row.
    stream_threshold:
        Byte size of the backing files above which ``/series`` and
        ``/key`` answers stream (chunked) instead of materializing;
        0 streams everything with a body.
    broker:
        Optional :class:`~repro.server.push.FlushBroker`; when wired
        (the live daemon), follow/stream subscribers wake on flush
        instead of polling the store on an interval.
    daemon_status:
        Optional callable returning the daemon's health row, merged
        into ``/platform/health`` so the serving surface reports on
        the process that feeds it.
    auth_tokens:
        Iterable of accepted bearer tokens.  When non-empty, every
        request must carry ``Authorization: Bearer <token>`` with one
        of them; anything else is answered 401 before routing.
        Default: no authentication (the historical loopback trust).
    rate_limit / rate_burst:
        Per-client-IP token bucket: *rate_limit* requests/second
        sustained with bursts up to *rate_burst* (default 2 x rate,
        at least 1).  Over-budget requests get 429 + ``Retry-After``.
        Default: unlimited.
    """

    ROUTES = ("datasets", "series", "topk", "topk_windows", "key",
              "vantage", "platform", "stream")

    def __init__(self, store, rules=alerts.DEFAULT_RULES, telemetry=None,
                 stream_threshold=STREAM_THRESHOLD_BYTES, broker=None,
                 daemon_status=None, auth_tokens=None, rate_limit=None,
                 rate_burst=None):
        self.store = store
        self.rules = list(rules)
        #: the :class:`~repro.server.http.ObservatoryServer` serving
        #: this app (``build_server`` sets it), for connection stats in
        #: health output
        self.server = None
        self.stream_threshold = int(stream_threshold)
        self.auth_tokens = frozenset(
            token for token in (auth_tokens or ()) if token)
        if rate_limit is not None:
            rate_limit = float(rate_limit)
            if not (math.isfinite(rate_limit) and rate_limit > 0):
                raise ValueError("rate_limit must be a finite number > 0")
        self.rate_limit = rate_limit
        if rate_burst is None:
            rate_burst = max(1.0, 2.0 * rate_limit) \
                if rate_limit is not None else 1.0
        self.rate_burst = max(1.0, float(rate_burst))
        #: client IP -> [tokens, last refill (monotonic)]
        self._buckets = {}
        self.telemetry = resolve_telemetry(telemetry)
        self.broker = broker
        self.daemon_status = daemon_status
        #: wall-clock start, for display only -- uptime math must not
        #: use it (NTP steps would make uptime jump or go negative)
        self.started_at_unix = time.time()
        self._started_monotonic = time.monotonic()
        registry = self.telemetry
        self._stats = {
            route: _RouteStats(
                registry.timing("server.%s" % route, "latency"),
                registry.counter("server.%s" % route, "requests"),
                registry.ratio("server.%s" % route, "etag_hit"),
                registry.counter("server.%s" % route, "streamed_bytes"),
                registry.timing("server.%s" % route, "first_byte"))
            for route in self.ROUTES
        }
        self._errors = self.telemetry.counter("server", "errors")
        self._unauthorized = self.telemetry.counter("server",
                                                    "unauthorized")
        self._throttled = self.telemetry.counter("server", "throttled")
        #: (route, etag) -> encoded 200 body, LRU order (oldest first)
        self._body_cache = OrderedDict()
        #: ``/series`` window entries rendered to JSON text, and entries
        #: served from the text a resident window already held
        self.window_renders = 0
        self.window_reuses = 0
        if self.telemetry.enabled:
            self.telemetry.register("server", self._telemetry_row,
                                    deltas=("connections", "rejected"))

    def _telemetry_row(self, now):
        row = {
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 1),
            "started_at_unix": round(self.started_at_unix, 1),
            "window_renders": self.window_renders,
            "window_reuses": self.window_reuses,
        }
        if self.server is not None:
            row["active_connections"] = self.server.active_connections
            row["connections"] = self.server.connections_total
            row["rejected"] = self.server.rejected_total
        if self.broker is not None:
            row["subscribers"] = self.broker.subscribers
        return row

    # ------------------------------------------------------------------

    # -- admission: auth, then rate limit ------------------------------

    def _gate(self, request):
        """401 / 429 response, or ``None`` to admit the request.

        Auth is checked first: an unauthenticated client learns
        nothing about rate limits (and cannot consume another
        client's budget knowledge), while an authenticated one is
        still subject to its per-IP bucket.
        """
        if self.auth_tokens:
            token = request.bearer_token()
            if token is None or token not in self.auth_tokens:
                self._unauthorized.inc()
                response = Response.error(
                    401, "missing or invalid bearer token")
                response.headers["WWW-Authenticate"] = \
                    'Bearer realm="dns-observatory"'
                return response
        if self.rate_limit is not None:
            retry_after = self._take_rate_token(request.client)
            if retry_after is not None:
                self._throttled.inc()
                response = Response.error(
                    429, "rate limit exceeded")
                response.headers["Retry-After"] = \
                    "%d" % max(1, int(retry_after + 0.999))
                return response
        return None

    def _take_rate_token(self, client):
        """Debit one request from *client*'s bucket; ``None`` when
        admitted, else seconds until a token is available."""
        now = time.monotonic()
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= MAX_RATE_CLIENTS:
                stalest = min(self._buckets,
                              key=lambda c: self._buckets[c][1])
                del self._buckets[stalest]
            bucket = self._buckets[client] = [self.rate_burst, now]
        else:
            bucket[0] = min(self.rate_burst,
                            bucket[0] + (now - bucket[1]) *
                            self.rate_limit)
            bucket[1] = now
        if bucket[0] >= 1.0:
            bucket[0] -= 1.0
            return None
        return (1.0 - bucket[0]) / self.rate_limit

    async def __call__(self, request):
        gated = self._gate(request)
        if gated is not None:
            return gated
        route, handler, args = self._route(request)
        stats = self._stats[route]
        stats.requests.inc()
        started = time.perf_counter()
        try:
            response = handler(request, *args)
            if asyncio.iscoroutine(response):
                # follow long-polls and SSE setup run on the loop
                response = await response
        except HttpError as exc:
            if exc.status >= 500:
                self._errors.inc()
            raise
        finally:
            stats.latency.observe(time.perf_counter() - started)
        stats.etag_hit.mark(response.status == 304)
        return response

    def _route(self, request):
        parts = request.segments
        if parts == ["datasets"]:
            return "datasets", self.handle_datasets, ()
        if len(parts) == 2 and parts[0] == "series":
            return "series", self.handle_series, (parts[1],)
        if len(parts) == 3 and parts[0] == "topk" \
                and parts[1] == "windows":
            return "topk_windows", self.handle_topk_windows, (parts[2],)
        if len(parts) == 2 and parts[0] == "topk":
            return "topk", self.handle_topk, (parts[1],)
        if len(parts) == 3 and parts[0] == "key":
            return "key", self.handle_key, (parts[1], parts[2])
        if len(parts) == 2 and parts[0] == "stream":
            return "stream", self.handle_stream, (parts[1],)
        if parts == ["vantage"]:
            return "vantage", self.handle_vantage, (None,)
        if len(parts) == 2 and parts[0] == "vantage":
            return "vantage", self.handle_vantage, (parts[1],)
        if parts == ["platform", "health"]:
            return "platform", self.handle_health, ()
        raise HttpError(404, "no such endpoint: %s" % request.path)

    # -- parameter parsing ---------------------------------------------

    @staticmethod
    def _float_param(request, name):
        raw = request.params.get(name)
        if raw is None or raw == "":
            return None
        return _finite(raw, "parameter %r must be a number, got %r"
                       % (name, raw))

    @staticmethod
    def _int_param(request, name, default, lo, hi):
        raw = request.params.get(name)
        if raw is None or raw == "":
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HttpError(400, "parameter %r must be an integer, got %r"
                            % (name, raw))
        if not lo <= value <= hi:
            raise HttpError(400, "parameter %r must be in [%d, %d]"
                            % (name, lo, hi))
        return value

    def _granularity(self, request):
        gran = request.params.get("granularity", "minutely")
        if gran not in GRANULARITIES:
            raise HttpError(400, "unknown granularity %r (one of %s)"
                            % (gran, ", ".join(sorted(GRANULARITIES))))
        return gran

    def _range(self, request):
        start = self._float_param(request, "start")
        end = self._float_param(request, "end")
        if start is not None and end is not None and end <= start:
            raise HttpError(400, "empty range: end <= start")
        return start, end

    def _select_known(self, dataset, granularity, start, end):
        """Range-select with a 404 contract: unknown dataset (at this
        granularity) is an error, an empty range of a known one is an
        empty answer."""
        refs = self.store.select(dataset, granularity, start, end)
        if not refs and granularity not in \
                self.store.datasets().get(dataset, {}):
            raise HttpError(404, "unknown dataset %r at granularity %r"
                            % (dataset, granularity))
        return refs

    # -- conditional responses -----------------------------------------

    @staticmethod
    def _etag(refs, *extra):
        digest = hashlib.sha1()
        for ref in refs:
            digest.update(ref.etag_token().encode("utf-8"))
            digest.update(b"|")
        for item in extra:
            digest.update(str(item).encode("utf-8"))
            digest.update(b"|")
        return '"%s"' % digest.hexdigest()

    def _respond(self, route, request, refs, extra, fragments,
                 stream=False, cached=True):
        """The one responder of the store-backed routes: 304, cached
        rendered body, streamed, or built-encoded-and-cached.

        The ETag names the exact file revisions (*refs*, the
        selection) plus query (*extra*) an answer is computed from, so
        the conditional check runs before anything is read -- a
        matching ``If-None-Match`` (weak comparison, RFC 7232 §3.2;
        ``*`` matches any non-empty selection) never parses a window
        or emits a chunk -- and a cached body is byte-for-byte what a
        rebuild would produce.  *fragments()* returns the body's
        text fragments and runs once per revision set; what it must
        decide before a status line goes out (the ``/key`` 404, the
        ``by=`` 400) it decides when called, not when iterated.
        Streamed answers bypass the cache (they exist to *not*
        materialize), and so do those not *cached*, whose fragments are
        texts the windows already hold (``/series``); the key includes
        the route because endpoints over the same windows and query
        string legitimately share an ETag.
        """
        etag = self._etag(refs, *extra)
        validators = request.if_none_match()
        if etag in validators or (refs and "*" in validators):
            return Response.not_modified(etag)
        if stream:
            return self._stream(route, fragments(), etag)
        key = (route, etag)
        body = self._body_cache.get(key) if cached else None
        if body is None:
            body = "".join(fragments()).encode("utf-8")
            if cached:
                self._body_cache[key] = body
                while len(self._body_cache) > RESPONSE_CACHE:
                    self._body_cache.popitem(last=False)
        else:
            self._body_cache.move_to_end(key)
        return Response(200, body, {"ETag": etag})

    # -- incremental JSON encoding -------------------------------------

    @staticmethod
    def _json_fragments(meta, tail_key, texts):
        """Incrementally encode ``{**meta, tail_key: [*entries]}`` from
        the entries' JSON *texts*.

        Yields text fragments whose concatenation is byte-identical to
        ``Response.json`` over the materialized payload (compact
        separators, sorted keys, trailing newline).  *tail_key* must
        sort after every key in *meta* so the entry array can go last.
        """
        head = _dumps(meta)
        yield "%s%s%s:[" % (head[:-1], "," if len(head) > 2 else "",
                            json.dumps(tail_key))
        first = True
        for text in texts:
            yield text if first else "," + text
            first = False
        yield "]}\n"

    def _window_text(self, ref):
        """*ref*'s ``/series`` window entry as JSON text, or ``None``
        when the window vanished since it was selected.  The text is
        rendered once per parsed window and kept on it
        (``entry_json``), so it lives in the store LRU exactly as long
        as the cells it renders: a new file revision is a new parse,
        hence a new render.  Every route that sends window entries --
        ``/series`` buffered and streamed, ``follow=`` and each
        ``/stream`` subscriber -- sends these bytes."""
        data = self.store.read_window(ref)
        if data is None:
            return None
        text = data.entry_json
        if text is None:
            text = data.entry_json = _dumps({
                "start_ts": data.start_ts,
                "end_ts": ref.end_ts,
                "stats": data.stats,
                "rows": [[key, row] for key, row in data.rows],
            })
            self.window_renders += 1
        else:
            self.window_reuses += 1
        return text

    def _window_texts(self, refs):
        """The entry texts of *refs*, read lazily through the store LRU
        (one window in flight at a time)."""
        for ref in refs:
            text = self._window_text(ref)
            if text is not None:
                yield text

    def _known_column(self, refs, column):
        """The ``by=`` 400: some window of *refs* must carry *column*.
        The scan stops at the first that does (an LRU read the ranking
        reuses); an empty selection names no columns and is no error."""
        columns = set()
        for data in self.store.iter_windows(refs):
            if column in data.columns:
                return
            columns.update(data.columns)
        if columns:
            raise HttpError(400, "unknown column %r (the selection has: %s)"
                            % (column, ", ".join(sorted(columns))))

    def _key_points(self, refs, key, column):
        """One ``[start_ts, value]`` point per window for ``/key``."""
        for data in self.store.iter_windows(refs):
            yield [data.start_ts, data.cell(key, column)]

    def _should_stream(self, refs):
        """Stream when the backing files outweigh the threshold --
        the TSV byte size is a good proxy for the JSON body size, and
        it is known without opening anything."""
        return sum(ref.size for ref in refs) > self.stream_threshold

    def _stream(self, route, fragments, etag):
        """Wrap *fragments* with the per-route streamed-bytes counter
        and first-byte-latency timing, return a StreamingResponse."""
        streamed = self._stats[route].streamed_bytes
        first_byte = self._stats[route].first_byte
        started = time.perf_counter()

        def instrumented():
            first = True
            for fragment in fragments:
                if first:
                    first_byte.observe(time.perf_counter() - started)
                    first = False
                streamed.inc(len(fragment))
                yield fragment

        return StreamingResponse(instrumented(), headers={"ETag": etag})

    # -- endpoints -----------------------------------------------------

    def handle_datasets(self, request):
        summary = self.store.datasets()
        payload = {
            "datasets": summary,
            "granularities": GRANULARITIES,
            "directory": self.store.directory,
        }
        return Response.json(payload)

    @staticmethod
    def _page(refs, cursor, limit):
        """Exclusive-cursor paging over ``start_ts``-sorted *refs*.

        The page holds the first *limit* windows whose ``start_ts``
        is strictly greater than *cursor* (``None`` pages from the
        beginning); ``next_cursor`` is the last returned window's
        ``start_ts``, or ``None`` when the page exhausts the
        selection.  The cursor is derived only from rows the client
        already holds, so a window flushing (or backfilling) between
        pages shifts *where the next page begins searching*, never
        which windows are skipped or repeated.
        """
        lo = 0
        if cursor is not None:
            hi = len(refs)
            while lo < hi:
                mid = (lo + hi) // 2
                if refs[mid].start_ts <= cursor:
                    lo = mid + 1
                else:
                    hi = mid
        page = refs[lo:lo + limit]
        next_cursor = page[-1].start_ts if lo + limit < len(refs) \
            else None
        return page, next_cursor

    def handle_series(self, request, dataset):
        granularity = self._granularity(request)
        start, end = self._range(request)
        limit = self._int_param(request, "limit", MAX_WINDOWS, 1,
                                MAX_WINDOWS)
        if "follow" in request.params:
            return self._follow_series(request, dataset, granularity,
                                       start, end, limit)
        cursor = self._float_param(request, "cursor")
        refs = self._select_known(dataset, granularity, start, end)
        next_cursor = None
        if cursor is not None:
            refs, next_cursor = self._page(refs, cursor, limit)
        else:
            refs = refs[-limit:]  # newest windows win under a limit
        meta = {
            "dataset": dataset,
            "granularity": granularity,
            "next_cursor": next_cursor,
            "window_count": len(refs),
        }

        def fragments():
            return self._json_fragments(meta, "windows",
                                        self._window_texts(refs))

        return self._respond(
            "series", request, refs,
            (dataset, granularity, request.raw_query), fragments,
            self._should_stream(refs), cached=False)

    def _subscription(self):
        """Count a waiting follow/stream client on the broker."""
        return self.broker.subscribe() if self.broker is not None \
            else contextlib.nullcontext()

    async def _next_page(self, selection, cursor, limit, deadline):
        """The follow/stream wait: the next page of *selection*
        (``store.select`` arguments) past *cursor*, else sleep until a
        flush, the broker's close or *deadline*, and look again.
        Returns ``(page, closed)``; an empty page means the deadline
        passed or -- *closed* -- the daemon is draining.  With a flush
        broker the wait is push-based; without (plain ``serve
        --follow``) the store is re-polled every
        :data:`FOLLOW_POLL_SECONDS`.
        """
        broker = self.broker
        while True:
            page, _ = self._page(self.store.select(*selection), cursor,
                                 limit)
            if page:
                return page, False
            closed = broker is not None and broker.closed
            remaining = deadline - time.monotonic()
            if closed or remaining <= 0:
                return [], closed
            if broker is not None:
                await broker.wait(remaining)
            else:
                await asyncio.sleep(min(FOLLOW_POLL_SECONDS, remaining))

    async def _follow_series(self, request, dataset, granularity,
                             start, end, limit):
        """Long-poll: block until a window past the cursor exists.

        ``follow=<cursor>`` is the exclusive resume point (feed the
        previous answer's ``next_cursor`` back); an empty ``follow=``
        tails from "now", skipping windows already on disk.  The
        answer matches a paged ``/series`` body plus ``timed_out`` /
        ``eof`` flags, and ``next_cursor`` is always a valid next
        ``follow=`` value -- on an empty answer it echoes the request
        cursor.  Unknown datasets do not 404 here: at daemon start
        the first window has not flushed yet, and a dashboard must
        be allowed to subscribe before it exists.
        """
        selection = (dataset, granularity, start, end)
        raw = request.params.get("follow", "")
        if raw == "":
            refs = self.store.select(*selection)
            cursor = refs[-1].start_ts if refs else None
        else:
            cursor = _finite(raw, "parameter 'follow' must be a number "
                             "or empty, got %r" % raw)
        timeout = self._float_param(request, "timeout")
        if timeout is None:
            timeout = FOLLOW_TIMEOUT_DEFAULT
        timeout = max(0.0, min(timeout, FOLLOW_TIMEOUT_MAX))
        with self._subscription():
            page, eof = await self._next_page(
                selection, cursor, limit, time.monotonic() + timeout)
        meta = {
            "dataset": dataset,
            "granularity": granularity,
            "next_cursor": page[-1].start_ts if page else cursor,
            "window_count": len(page),
            "timed_out": not page and not eof,
            "eof": eof,
        }
        body = "".join(self._json_fragments(
            meta, "windows", self._window_texts(page))).encode("utf-8")
        return Response(200, body, {"Cache-Control": "no-store"})

    def handle_stream(self, request, dataset):
        """SSE: push each new window the moment it flushes.

        ``cursor=`` (or a ``Last-Event-ID`` header on reconnect)
        resumes exclusively, exactly like ``follow=``; absent, the
        stream tails from "now".  Every window goes out as an
        ``event: window`` with ``id: <start_ts>``, so a dropped
        ``EventSource`` resumes losslessly; idle stretches carry
        comment heartbeats (dead clients are detected within one
        :data:`SSE_HEARTBEAT_SECONDS` when the write fails), and a
        broker close emits a final ``event: eof`` so SIGTERM drains
        subscribers instead of severing them.
        """
        selection = (dataset, self._granularity(request), None, None)
        cursor = self._float_param(request, "cursor")
        if cursor is None:
            last_id = request.headers.get("last-event-id")
            if last_id:
                cursor = _finite(last_id, "malformed Last-Event-ID %r"
                                 % last_id)
        if cursor is None:
            refs = self.store.select(*selection)
            cursor = refs[-1].start_ts if refs else None
        streamed = self._stats["stream"].streamed_bytes

        async def events(cursor):
            def frame(text):
                streamed.inc(len(text))
                return text

            with self._subscription():
                # reconnect backoff hint for EventSource clients
                yield frame("retry: 2000\n\n")
                while True:
                    page, closed = await self._next_page(
                        selection, cursor, MAX_WINDOWS,
                        time.monotonic() + SSE_HEARTBEAT_SECONDS)
                    for ref in page:
                        text = self._window_text(ref)
                        if text is None:
                            continue  # vanished since it was selected
                        cursor = ref.start_ts
                        yield frame(
                            "id: %s\nevent: window\ndata: %s\n\n"
                            % (json.dumps(cursor), text))
                    if closed:
                        yield frame("event: eof\ndata: {}\n\n")
                        return
                    if not page:
                        yield frame(": heartbeat\n\n")

        return StreamingResponse(
            events(cursor), content_type="text/event-stream",
            headers={"Cache-Control": "no-store"}, flush_each=True)

    def handle_topk(self, request, dataset):
        granularity = self._granularity(request)
        start, end = self._range(request)
        n = self._int_param(request, "n", 10, 1, MAX_TOPK)
        by = request.params.get("by", "hits")
        refs = self._select_known(dataset, granularity, start, end)

        def fragments():
            self._known_column(refs, by)
            top = self.store.topk(dataset, n=n, by=by,
                                  granularity=granularity,
                                  start_ts=start, end_ts=end)
            return [_dumps({
                "dataset": dataset,
                "granularity": granularity,
                "by": by,
                "top": [{"key": key, "rank": rank + 1,
                         "value": row.get(by, 0), "row": row}
                        for rank, (key, row) in enumerate(top)],
                "windows": len(refs),
            }) + "\n"]

        return self._respond(
            "topk", request, refs,
            (dataset, granularity, request.raw_query), fragments)

    def handle_topk_windows(self, request, dataset):
        """Streamed per-window top-``n``: one ``{start_ts, top}``
        entry per window in the range, ranked inside each window
        (``/topk`` ranks over the accumulated range instead).  Backed
        by the store's one-window-at-a-time ranking iterator, so a
        yearly span streams in bounded memory exactly like
        ``/series``."""
        granularity = self._granularity(request)
        start, end = self._range(request)
        n = self._int_param(request, "n", 10, 1, MAX_TOPK)
        by = request.params.get("by", "hits")
        refs = self._select_known(dataset, granularity, start, end)
        meta = {
            "dataset": dataset,
            "granularity": granularity,
            "by": by,
            "n": n,
            "window_count": len(refs),
        }

        def entries():
            windows = self.store.iter_topk_windows(
                dataset, n=n, by=by, granularity=granularity,
                start_ts=start, end_ts=end)
            for start_ts, top in windows:
                yield {
                    "start_ts": start_ts,
                    "top": [{"key": key, "rank": rank + 1,
                             "value": row.get(by, 0), "row": row}
                            for rank, (key, row) in enumerate(top)],
                }

        def fragments():
            self._known_column(refs, by)
            return self._json_fragments(meta, "windows",
                                        map(_dumps, entries()))

        return self._respond(
            "topk_windows", request, refs,
            (dataset, granularity, request.raw_query), fragments,
            self._should_stream(refs))

    def handle_key(self, request, dataset, key):
        granularity = self._granularity(request)
        start, end = self._range(request)
        column = request.params.get("column", "hits")
        limit = self._int_param(request, "limit", MAX_WINDOWS, 1,
                                MAX_WINDOWS)
        cursor = self._float_param(request, "cursor")
        refs = self._select_known(dataset, granularity, start, end)
        next_cursor = None
        if cursor is not None:
            page, next_cursor = self._page(refs, cursor, limit)
        else:
            page = refs[-limit:]  # newest windows win under a limit
        meta = {
            "dataset": dataset,
            "key": key,
            "column": column,
            "granularity": granularity,
            "next_cursor": next_cursor,
        }

        def fragments():
            # the 404 contract is decided here, on the call, before
            # the first chunk goes out (a streamed status line cannot
            # be unsent); the scan runs through the window LRU, so the
            # 200 path reuses the parses.  It is decided over the full
            # selection, not the page: a key absent from one page of a
            # series it does appear in is an empty page, not a 404.
            if not self.store.has_key(dataset, key, granularity,
                                      start_ts=start, end_ts=end):
                raise HttpError(404, "key %r not found in dataset %r"
                                % (key, dataset))
            return self._json_fragments(
                meta, "series", map(_dumps, self._key_points(page, key,
                                                             column)))

        return self._respond(
            "key", request, refs,
            (dataset, granularity, key, request.raw_query), fragments,
            self._should_stream(page))

    def handle_vantage(self, request, group):
        """Latest per-ASN / per-country vantage indices.

        ``/vantage`` answers both groupings, ``/vantage/asn`` or
        ``/vantage/cc`` just one.  Each grouping reports its newest
        window's rows ranked by ``by=`` (default ``hits``, capped at
        ``n=``).  A directory without ``_vantage_*`` series (no
        ``--vantage`` derivation ran) answers an empty grouping
        rather than 404: dashboards poll this before the first window
        flushes.
        """
        granularity = self._granularity(request)
        n = self._int_param(request, "n", 100, 1, MAX_TOPK)
        by = request.params.get("by", "hits")
        if group is not None and group not in VANTAGE_GROUPS:
            raise HttpError(404, "unknown vantage grouping %r (one of "
                            "%s)" % (group,
                                     ", ".join(sorted(VANTAGE_GROUPS))))
        names = (group,) if group is not None \
            else tuple(sorted(VANTAGE_GROUPS))
        latest = {}
        refs = []
        for name in names:
            selection = self.store.select(VANTAGE_GROUPS[name],
                                          granularity, None, None)
            latest[name] = selection[-1] if selection else None
            if selection:
                refs.append(selection[-1])

        def fragments():
            groups = {}
            for name in names:
                ref = latest[name]
                data = self.store.read_window(ref) \
                    if ref is not None else None
                if data is None:
                    groups[name] = {"window_ts": None, "entries": []}
                    continue
                ranked = sorted(
                    data.rows,
                    key=lambda item: (-item[1].get(by, 0), item[0]))
                groups[name] = {
                    "window_ts": data.start_ts,
                    "entries": [{"key": key, "row": row}
                                for key, row in ranked[:n]],
                }
            yield _dumps({"granularity": granularity, "by": by,
                          "groups": groups}) + "\n"

        return self._respond(
            "vantage", request, refs,
            ("vantage", granularity, request.raw_query), fragments)

    def handle_health(self, request):
        granularity = self._granularity(request)
        windows = self._int_param(request, "windows", 60, 1, MAX_WINDOWS)
        # detector verdicts ride the same rule engine: the _detector
        # meta-dataset's summary components (exfil/ddos/noh) are
        # disjoint from every _platform component, so the two series
        # evaluate side by side without cross-matching.  Slice the
        # index, then read: a poll must not parse the whole history.
        def latest(dataset):
            refs = self.store.select(dataset, granularity)[-windows:]
            return list(self.store.iter_windows(refs))

        series = latest(PLATFORM_DATASET)
        detector = latest(DETECTOR_DATASET)
        verdicts = alerts.evaluate(series + detector, self.rules)
        payload = alerts.summarize(verdicts)
        payload.update({
            "verdicts": [v.as_dict() for v in verdicts],
            "platform_windows": len(series),
            "detector_windows": len(detector),
            "latest_window_ts": series[-1].start_ts if series else None,
            "store": self.store.cache_info(),
            "server": self._telemetry_row(None),
        })
        if self.broker is not None:
            payload["broker"] = self.broker.telemetry_row()
        if self.daemon_status is not None:
            payload["daemon"] = self.daemon_status()
        return Response.json(payload)
