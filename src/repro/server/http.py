"""Minimal asyncio HTTP/1.1 transport for the query API.

Stdlib-only by project constraint (``pyproject.toml`` dependencies
stay ``[]``), so this is a deliberately small HTTP/1.1 server: GET
requests, keep-alive, gzip content negotiation, ETag conditional
responses, a hard connection cap with 503 + ``Retry-After``
backpressure, and graceful drain on SIGTERM.  Everything
application-level (routing, JSON bodies, instrumentation) lives in
:mod:`repro.server.app`; this module only moves bytes.

Two response shapes:

* :class:`Response` -- a fully materialized body, sent with
  ``Content-Length`` (unchanged pre-streaming behaviour);
* :class:`StreamingResponse` -- an *iterator* of body fragments, sent
  with ``Transfer-Encoding: chunked`` so the server never holds the
  whole body: a yearly ``/series`` span is encoded and written one
  window at a time.  Chunked composes with gzip (one incremental
  :func:`zlib.compressobj` stream across all fragments) and
  keep-alive; a client that disconnects mid-stream just closes the
  fragment iterator -- the server survives and its connection slot is
  released.
"""

import asyncio
import gzip
import json
import logging
import signal
import socket
import zlib
from urllib.parse import parse_qsl, unquote, urlsplit

logger = logging.getLogger(__name__)

#: maximum request head (request line + headers) we will buffer
MAX_REQUEST_HEAD = 16 * 1024

#: bodies below this size are not worth compressing
GZIP_MIN_BYTES = 256

#: streamed fragments are coalesced into chunk frames of about this
#: size, so a row-per-fragment encoder does not emit a syscall per row
CHUNK_TARGET_BYTES = 16 * 1024

#: idle keep-alive connections are dropped after this many seconds
KEEPALIVE_TIMEOUT = 30.0

REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """Application-level error carrying an HTTP status."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed GET request."""

    __slots__ = ("method", "path", "segments", "raw_query", "params",
                 "headers", "client")

    def __init__(self, method, target, headers):
        self.method = method
        parts = urlsplit(target)
        self.path = unquote(parts.path)
        #: split on the raw ``/`` *then* decoded: ``%2F`` stays in a key
        self.segments = [unquote(part)
                         for part in parts.path.split("/") if part]
        self.raw_query = parts.query
        #: last-one-wins query parameters, keys/values decoded
        self.params = dict(parse_qsl(parts.query, keep_blank_values=True))
        #: header names lower-cased
        self.headers = headers
        #: peer IP string, attached by the connection loop (None for
        #: requests constructed directly in tests)
        self.client = None

    def bearer_token(self):
        """The ``Authorization: Bearer`` credential, or ``None``."""
        raw = self.headers.get("authorization", "")
        scheme, _, token = raw.partition(" ")
        if scheme.lower() != "bearer":
            return None
        token = token.strip()
        return token or None

    def wants_gzip(self):
        accept = self.headers.get("accept-encoding", "")
        return any(token.split(";")[0].strip() == "gzip"
                   for token in accept.split(","))

    def if_none_match(self):
        """Client validators from ``If-None-Match``, quotes preserved,
        for RFC 7232 §3.2's weak comparison: a ``W/`` prefix (what a
        compressing proxy makes of our strong ETag) is stripped; ``*``
        is passed through for the responder to interpret."""
        raw = self.headers.get("if-none-match")
        if not raw:
            return ()
        tokens = (token.strip() for token in raw.split(","))
        return tuple(token[2:] if token.startswith("W/") else token
                     for token in tokens)


class Response:
    """Status + JSON-ready payload + extra headers."""

    __slots__ = ("status", "body", "headers")

    content_type = "application/json"

    def __init__(self, status, body=b"", headers=None):
        self.status = status
        self.body = body
        self.headers = dict(headers or {})

    @classmethod
    def json(cls, payload, status=200):
        body = (json.dumps(payload, separators=(",", ":"), sort_keys=True,
                           allow_nan=False) + "\n").encode("utf-8")
        return cls(status, body)

    @classmethod
    def error(cls, status, message):
        return cls.json({"error": message, "status": status},
                        status=status)

    @classmethod
    def not_modified(cls, etag):
        return cls(304, b"", {"ETag": etag})


async def read_request(reader):
    """Read one request head; ``None`` on clean EOF / idle timeout
    (:data:`KEEPALIVE_TIMEOUT`).

    Raises :class:`HttpError` on malformed or oversized heads.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), KEEPALIVE_TIMEOUT)
    except (asyncio.IncompleteReadError, ConnectionResetError,
            asyncio.TimeoutError):
        return None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head too large")
    if len(head) > MAX_REQUEST_HEAD:
        raise HttpError(431, "request head too large")
    try:
        text = head.decode("latin-1")
        request_line, _, header_block = text.partition("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "unsupported HTTP version")
    headers = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    return Request(method, target, headers)


def _head(response, request, close):
    """Status line + headers for either response shape and the one gzip
    decision: client asked, status 200, body worth it (at least
    :data:`GZIP_MIN_BYTES` materialized; a stream unless ``flush_each``).
    Returns ``(head, gzipped, body)``: *body* as it goes on the wire,
    ``None`` for a :class:`StreamingResponse` (framed chunked)."""
    streamed = isinstance(response, StreamingResponse)
    body = None if streamed else response.body
    worth_it = not response.flush_each if streamed \
        else len(body) >= GZIP_MIN_BYTES
    gzipped = worth_it and request is not None \
        and response.status == 200 and request.wants_gzip()
    headers = dict(response.headers)
    if gzipped:
        if not streamed:
            body = gzip.compress(body, compresslevel=6)
        headers["Content-Encoding"] = "gzip"
        headers["Vary"] = "Accept-Encoding"
    if streamed or body or response.status != 304:
        headers.setdefault("Content-Type", response.content_type)
    if streamed:
        headers["Transfer-Encoding"] = "chunked"
    else:
        headers["Content-Length"] = str(len(body))
    headers["Connection"] = "close" if close else "keep-alive"
    head = "HTTP/1.1 %d %s\r\n" % (
        response.status, REASONS.get(response.status, "Unknown"))
    head += "".join("%s: %s\r\n" % item for item in headers.items())
    return (head + "\r\n").encode("latin-1"), gzipped, body


def render_response(response, request=None, close=False):
    """Serialize a :class:`Response`, applying gzip negotiation."""
    head, _, body = _head(response, request, close)
    return head + body


class StreamingResponse:
    """Status + headers + an iterator of body fragments.

    *chunks* yields ``str`` (encoded as UTF-8) or ``bytes`` fragments;
    they are framed as HTTP/1.1 chunked transfer-encoding by
    :func:`write_streaming_response`, so the response body never
    exists in one piece on the server.  Conditional handling happens
    *before* construction: the app computes the strong ETag from the
    file revisions it is about to stream and answers 304 without ever
    creating the iterator.

    *chunks* may also be an **async** iterator -- the live-push shape
    (Server-Sent Events tailing a flush broker), where the next
    fragment is not data already on disk but an awaited future.  Pair
    it with ``flush_each=True`` so every fragment goes out as its own
    chunk frame immediately: a subscriber must see an event when it
    fires, not when 16 KiB of events have accumulated.  ``flush_each``
    also disables gzip (a compressor would buffer the event past its
    delivery deadline).
    """

    __slots__ = ("chunks", "headers", "content_type", "flush_each")

    status = 200

    def __init__(self, chunks, headers=None,
                 content_type="application/json", flush_each=False):
        self.chunks = chunks
        self.headers = dict(headers or {})
        self.content_type = content_type
        self.flush_each = flush_each

    def close(self):
        """Release a *sync* fragment iterator (disconnect, error
        paths).  Async iterators are closed by
        :func:`write_streaming_response`, which can await ``aclose``.
        """
        close = getattr(self.chunks, "close", None)
        if close is not None:
            close()


def _chunk_frame(data):
    """One chunked transfer-encoding frame: hex size, CRLF, data, CRLF."""
    return b"%x\r\n%s\r\n" % (len(data), data)


async def write_streaming_response(writer, response, request=None,
                                   close=False):
    """Send a :class:`StreamingResponse` as chunked frames.

    Fragments are coalesced to ~:data:`CHUNK_TARGET_BYTES` frames and
    compressed incrementally when the client negotiated gzip (one
    gzip stream across the whole body -- ``Content-Encoding: gzip``
    composes with ``Transfer-Encoding: chunked``).  Returns ``True``
    when the terminal ``0\\r\\n\\r\\n`` frame was written, ``False``
    when the client went away mid-stream; either way the fragment
    iterator is closed, and a ``False`` return obliges the caller to
    drop the connection (the framing is unfinished).
    """
    head, gzipped, _ = _head(response, request, close)
    compressor = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS) \
        if gzipped else None
    writer.write(head)
    chunks, flush_each = response.chunks, response.flush_each
    pending = bytearray()

    async def emit(fragment):
        if isinstance(fragment, str):
            fragment = fragment.encode("utf-8")
        if compressor is not None:
            fragment = compressor.compress(fragment)
        pending.extend(fragment)
        if pending and (flush_each or len(pending) >= CHUNK_TARGET_BYTES):
            writer.write(_chunk_frame(bytes(pending)))
            pending.clear()
            await writer.drain()

    try:
        if hasattr(chunks, "__aiter__"):
            async for fragment in chunks:
                await emit(fragment)
        else:
            for fragment in chunks:
                await emit(fragment)
        if compressor is not None:
            pending += compressor.flush()
        if pending:
            writer.write(_chunk_frame(bytes(pending)))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return True
    except (ConnectionError, OSError):
        # mid-stream disconnect: abandon the body, surface "drop the
        # connection" to the caller; the iterator is closed below so
        # upstream generators (the store read path) unwind cleanly
        return False
    finally:
        aclose = getattr(chunks, "aclose", None)
        if aclose is not None:
            try:
                await aclose()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        else:
            response.close()


class ObservatoryServer:
    """Connection manager around an async ``handler(request)``.

    Parameters
    ----------
    handler:
        Async callable ``handler(Request) -> Response`` (usually an
        :class:`repro.server.app.ObservatoryApp`).
    host / port:
        Bind address; port 0 picks a free port (tests, CI smoke).
    max_connections:
        Hard cap on concurrently open client connections.  Connections
        past the cap are answered ``503`` with ``Retry-After`` and
        closed immediately -- the documented backpressure contract, so
        an overload sheds load instead of queueing unboundedly.
    """

    #: seconds to wait for in-flight requests on graceful shutdown
    #: before cancelling them
    shutdown_grace = 10.0

    def __init__(self, handler, host="127.0.0.1", port=8053,
                 max_connections=64):
        self.handler = handler
        self.host = host
        self.port = port
        self.max_connections = int(max_connections)
        self._server = None
        self._conn_tasks = set()
        self._closing = asyncio.Event()
        #: observability counters (sampled by the app's telemetry row)
        self.connections_total = 0
        self.rejected_total = 0

    @property
    def active_connections(self):
        return len(self._conn_tasks)

    async def start(self):
        """Bind and start accepting; resolves the actual port."""
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port,
            limit=MAX_REQUEST_HEAD)
        sockets = self._server.sockets or ()
        for sock in sockets:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.port = sock.getsockname()[1]
                break
        logger.info("serving on %s:%d (max %d connections)",
                    self.host, self.port, self.max_connections)
        return self

    def begin_shutdown(self):
        """Stop accepting new connections; in-flight requests finish."""
        if self._closing.is_set():
            return
        logger.info("graceful shutdown: draining %d connection(s)",
                    self.active_connections)
        self._closing.set()
        if self._server is not None:
            self._server.close()

    async def wait_closed(self):
        """Block until shutdown was requested and connections drained."""
        await self._closing.wait()
        if self._server is not None:
            await self._server.wait_closed()
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=self.shutdown_grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def serve_forever(self, on_signal=None):
        """Run until SIGTERM/SIGINT (or :meth:`begin_shutdown`).

        The one place signal handlers are installed: both signals call
        *on_signal* (default :meth:`begin_shutdown`; the ``run`` daemon
        passes its drain sequence, which ends there).  The dispositions
        in place before are restored on exit, so an embedding process
        gets its own handlers back, not a stopped server's.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        saved = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous = signal.getsignal(sig)
                loop.add_signal_handler(sig, on_signal or self.begin_shutdown)
            except (NotImplementedError, RuntimeError):
                continue  # non-POSIX event loop
            saved.append((sig, previous))
        try:
            await self.wait_closed()
        finally:
            for sig, previous in saved:
                try:
                    loop.remove_signal_handler(sig)
                    if previous is not None:
                        signal.signal(sig, previous)
                except (NotImplementedError, RuntimeError, OSError,
                        ValueError):  # pragma: no cover - teardown race
                    pass

    # ------------------------------------------------------------------

    def _client_connected(self, reader, writer):
        if self._closing.is_set() or \
                self.active_connections >= self.max_connections:
            task = asyncio.ensure_future(self._reject(writer))
            # Rejections are not tracked as connections: they must not
            # consume cap slots, but shutdown should not abandon them.
            task.add_done_callback(lambda t: t.exception())
            return
        self.connections_total += 1
        task = asyncio.ensure_future(self._serve_client(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _reject(self, writer):
        self.rejected_total += 1
        response = Response.error(503, "server at connection capacity")
        response.headers["Retry-After"] = "1"
        try:
            writer.write(render_response(response, close=True))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _serve_client(self, reader, writer):
        peername = writer.get_extra_info("peername")
        client = peername[0] if isinstance(peername, tuple) and peername \
            else None
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(render_response(
                        Response.error(exc.status, exc.message),
                        close=True))
                    await writer.drain()
                    return
                if request is None:
                    return
                # the auth / rate-limit layer keys its decisions on the
                # connection's peer address, not anything spoofable in
                # the request head
                request.client = client
                close = self._closing.is_set() or \
                    request.headers.get("connection", "").lower() == "close"
                if request.method != "GET":
                    response = Response.error(
                        405, "only GET is supported")
                    response.headers["Allow"] = "GET"
                else:
                    try:
                        response = await self.handler(request)
                    except HttpError as exc:
                        response = Response.error(exc.status, exc.message)
                    except Exception:
                        logger.exception("unhandled error serving %s",
                                         request.path)
                        response = Response.error(
                            500, "internal server error")
                if isinstance(response, StreamingResponse):
                    if not await write_streaming_response(
                            writer, response, request, close):
                        return  # client vanished mid-stream
                else:
                    writer.write(render_response(response, request, close))
                    await writer.drain()
                # Re-check after the response: shutdown may have begun
                # while a long-poll or stream was in flight, and a
                # drained connection must not park in the keep-alive
                # read for another idle timeout.
                if close or self._closing.is_set():
                    return
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass
