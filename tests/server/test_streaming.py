"""Protocol conformance for the streamed read path.

The contract under test: a streamed answer is the *same entity* as a
buffered one -- chunked transfer-encoding is a wire detail, invisible
once decoded.  So these tests decode the framing with a raw socket
client (no http library between us and the bytes), compare against
the buffered renderer byte for byte, and poke the edges: gzip over
chunks, 304 before the first chunk, a client that vanishes
mid-stream, and the non-streamed routes keeping their exact
pre-streaming shape.
"""

import asyncio
import gzip
import json

import pytest

from repro.analysis.vantage import VantageDb, VantageEmitter
from repro.observatory.pipeline import Observatory
from repro.server import build_server
from repro.server.http import ObservatoryServer, Response, StreamingResponse
from tests.server.util import http_get
from tests.util import make_txn

#: a threshold no fixture reaches: forces the buffered path
NEVER_STREAM = 1 << 30


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """Windows wide enough that /series/qname spans many chunk frames
    (plus the ``_vantage_*`` series ``/vantage`` answers from)."""
    directory = tmp_path_factory.mktemp("streaming")
    db = VantageDb()
    db.add("192.0.2.0/24", 64500, country="US", org="Example")
    obs = Observatory(datasets=[("srvip", 64), ("qname", 512)],
                      output_dir=str(directory), use_bloom_gate=False,
                      skip_recent_inserts=False,
                      vantage=VantageEmitter(db))
    for i in range(600):
        obs.ingest(make_txn(ts=i * 0.5,
                            qname="host%03d.example.com" % (i % 150),
                            server_ip="192.0.2.%d" % (1 + i % 5)))
    obs.finish()
    return directory


def run_with_server(series_dir, scenario, **server_kw):
    """Start a server on a free port, run *scenario(server, app)*."""

    async def _main():
        server, app = await build_server(str(series_dir), port=0,
                                         **server_kw)
        try:
            return await scenario(server, app)
        finally:
            server.begin_shutdown()
            await server.wait_closed()

    return asyncio.run(_main())


async def raw_get(port, target, headers=None):
    """GET over a raw socket; return (status, headers, raw body bytes).

    ``Connection: close`` so the response body is everything up to
    EOF -- the chunked framing is returned *undecoded* for the tests
    to pick apart themselves.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        lines = ["GET %s HTTP/1.1" % target, "Host: raw"]
        for name, value in (headers or {}).items():
            lines.append("%s: %s" % (name, value))
        lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        raw = await reader.read(-1)
    finally:
        writer.close()
    status_line, _, header_block = head.decode("latin-1").partition("\r\n")
    status = int(status_line.split(" ")[1])
    parsed = {}
    for line in header_block.split("\r\n"):
        if not line.strip():
            continue
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, raw


def decode_chunked(raw):
    """Walk the chunked framing by hand; return (body, frame count).

    Asserts the exact grammar: ``<hex size> CRLF <size bytes> CRLF``
    per frame, a terminal ``0 CRLF CRLF``, nothing after it.
    """
    body = bytearray()
    frames = 0
    rest = raw
    while True:
        size_line, sep, rest = rest.partition(b"\r\n")
        assert sep == b"\r\n", "frame missing its size-line CRLF"
        size = int(size_line, 16)  # hex per RFC 7230 section 4.1
        if size == 0:
            assert rest == b"\r\n", "trailer after the terminal chunk"
            return bytes(body), frames
        assert len(rest) >= size + 2, "truncated chunk data"
        body += rest[:size]
        assert rest[size:size + 2] == b"\r\n", "chunk data not CRLF-closed"
        rest = rest[size + 2:]
        frames += 1


class TestChunkedFraming:
    def test_streamed_body_is_byte_identical_to_buffered(self, series_dir):
        async def buffered(server, app):
            return await raw_get(server.port, "/series/qname")

        async def streamed(server, app):
            return await raw_get(server.port, "/series/qname")

        b_status, b_headers, b_raw = run_with_server(
            series_dir, buffered, stream_threshold=NEVER_STREAM)
        s_status, s_headers, s_raw = run_with_server(
            series_dir, streamed, stream_threshold=0)

        assert b_status == s_status == 200
        # buffered: the unchanged pre-streaming shape
        assert "content-length" in b_headers
        assert "transfer-encoding" not in b_headers
        assert int(b_headers["content-length"]) == len(b_raw)
        # streamed: chunked, no Content-Length (they are exclusive)
        assert s_headers["transfer-encoding"] == "chunked"
        assert "content-length" not in s_headers
        body, frames = decode_chunked(s_raw)
        assert frames >= 2, "fixture too small to exercise coalescing"
        # the same entity: bytes and validators match exactly
        assert body == b_raw
        assert s_headers["etag"] == b_headers["etag"]
        json.loads(body.decode("utf-8"))

    def test_chunked_composes_with_gzip(self, series_dir):
        async def scenario(server, app):
            plain = await raw_get(server.port, "/series/qname")
            zipped = await raw_get(server.port, "/series/qname",
                                   headers={"Accept-Encoding": "gzip"})
            return plain, zipped

        (_, p_headers, p_raw), (z_status, z_headers, z_raw) = \
            run_with_server(series_dir, scenario, stream_threshold=0)
        assert z_status == 200
        assert z_headers["transfer-encoding"] == "chunked"
        assert z_headers["content-encoding"] == "gzip"
        assert z_headers["vary"] == "Accept-Encoding"
        plain_body, _ = decode_chunked(p_raw)
        zipped_body, _ = decode_chunked(z_raw)
        assert len(zipped_body) < len(plain_body)
        # one gzip stream across all fragments, decodable only after
        # chunk de-framing (the layering the RFC prescribes)
        assert gzip.decompress(zipped_body) == plain_body

    def test_304_answers_before_any_chunk(self, series_dir):
        async def scenario(server, app):
            first = await raw_get(server.port, "/series/qname")
            parses = []
            inner = app.store.read_window

            def counting(ref):
                parses.append(ref)
                return inner(ref)

            app.store.read_window = counting
            etag = first[1]["etag"]
            second = await raw_get(server.port, "/series/qname",
                                   headers={"If-None-Match": etag})
            return first, second, len(parses)

        first, second, parses = run_with_server(series_dir, scenario,
                                                stream_threshold=0)
        assert first[0] == 200
        status, headers, raw = second
        assert status == 304
        assert raw == b""
        # a 304 is never chunked: the conditional check ran before the
        # streaming machinery was even constructed
        assert "transfer-encoding" not in headers
        assert headers["etag"] == first[1]["etag"]
        assert parses == 0

    def test_streamed_bytes_and_first_byte_instrumented(self, series_dir):
        async def scenario(server, app):
            _, _, raw = await raw_get(server.port, "/series/qname")
            body, _ = decode_chunked(raw)
            stats = app._stats["series"]
            return (len(body), stats.streamed_bytes.value,
                    stats.first_byte._hist.count)

        body_len, streamed, observed = run_with_server(
            series_dir, scenario, stream_threshold=0)
        assert streamed == body_len  # counts pre-gzip entity bytes
        assert observed == 1


class TestMidStreamDisconnect:
    def test_server_survives_and_slot_is_released(self, series_dir):
        async def scenario():
            state = {"closed": False}

            def forever():
                try:
                    while True:
                        yield b"x" * 65536
                finally:  # GeneratorExit lands here on response.close()
                    state["closed"] = True

            async def handler(request):
                if request.path == "/finite":
                    return Response.json({"ok": True})
                return StreamingResponse(forever())

            server = ObservatoryServer(handler, port=0, max_connections=1)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET /endless HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"Transfer-Encoding: chunked" in head
                await reader.readexactly(4096)  # we are mid-body
                writer.transport.abort()  # RST: a crash, not a close
                for _ in range(500):
                    if state["closed"] and server.active_connections == 0:
                        break
                    await asyncio.sleep(0.01)
                # the fragment iterator was closed (store read path
                # unwinds), the only connection slot came back...
                assert state["closed"]
                assert server.active_connections == 0
                # ...and the server still answers
                follow_up = await http_get(server.port, "/finite")
                return follow_up
            finally:
                server.begin_shutdown()
                await server.wait_closed()

        follow_up = asyncio.run(scenario())
        assert follow_up.status == 200
        assert follow_up.json() == {"ok": True}


class TestNonStreamedRoutesUnchanged:
    @pytest.mark.parametrize("target", ["/datasets", "/topk/srvip?n=3",
                                        "/platform/health"])
    def test_content_length_framing_kept(self, series_dir, target):
        async def scenario(server, app):
            return await raw_get(server.port, target)

        status, headers, raw = run_with_server(series_dir, scenario,
                                               stream_threshold=0)
        # stream_threshold=0 streams "everything with a body" only on
        # /series and /key; these routes keep Content-Length framing
        assert status == 200
        assert "transfer-encoding" not in headers
        assert int(headers["content-length"]) == len(raw)
        json.loads(raw.decode("utf-8"))

    def test_head_still_rejected_with_allow(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/series/qname",
                                  method="HEAD")

        resp = run_with_server(series_dir, scenario, stream_threshold=0)
        assert resp.status == 405
        assert resp.headers["allow"] == "GET"


class TestCursorPaging:
    def test_pages_reassemble_the_full_answer(self, series_dir):
        async def scenario(server, app):
            full = (await http_get(server.port,
                                   "/series/srvip")).json()
            pages = []
            cursor = -1  # exclusive: strictly below the first window
            while cursor is not None:
                page = (await http_get(
                    server.port,
                    "/series/srvip?limit=2&cursor=%s" % cursor)).json()
                pages.append(page)
                cursor = page["next_cursor"]
            return full, pages

        full, pages = run_with_server(series_dir, scenario)
        assert len(pages) >= 2
        assert all(len(p["windows"]) <= 2 for p in pages)
        walked = [w for p in pages for w in p["windows"]]
        # oldest-first pages concatenate to exactly the full answer
        assert walked == full["windows"]
        assert pages[-1]["next_cursor"] is None
        # the cursor is exclusive-of-returned-rows: it names the last
        # window the client already holds, never one it has not seen
        assert pages[0]["next_cursor"] == \
            pages[0]["windows"][-1]["start_ts"]

    def test_cursor_equal_to_a_window_excludes_it(self, series_dir):
        async def scenario(server, app):
            full = (await http_get(server.port,
                                   "/series/srvip")).json()
            first_ts = full["windows"][0]["start_ts"]
            after = (await http_get(
                server.port,
                "/series/srvip?cursor=%s" % first_ts)).json()
            return full, after

        full, after = run_with_server(series_dir, scenario)
        # resuming with a held window's start_ts must not re-send it
        assert [w["start_ts"] for w in after["windows"]] == \
            [w["start_ts"] for w in full["windows"][1:]]

    def test_flush_between_pages_skips_and_duplicates_nothing(
            self, tmp_path):
        """Regression: a window flushing mid-pagination must not
        shift the page walk -- every window is delivered exactly once
        and the late flush is picked up by the cursor chain."""
        def ingest(ts_range):
            obs = Observatory(datasets=[("srvip", 64)],
                              output_dir=str(tmp_path),
                              use_bloom_gate=False,
                              skip_recent_inserts=False)
            for i in ts_range:
                obs.ingest(make_txn(ts=float(i),
                                    server_ip="192.0.2.%d" % (1 + i % 5)))
            obs.finish()

        ingest(range(0, 240))  # windows at 0, 60, 120, 180

        async def scenario(server, app):
            pages = []
            cursor = -1
            while cursor is not None:
                page = (await http_get(
                    server.port,
                    "/series/srvip?limit=2&cursor=%s" % cursor)).json()
                pages.append(page)
                if len(pages) == 1:
                    # a new window flushes between page 1 and page 2
                    ingest(range(240, 300))  # window at 240
                cursor = page["next_cursor"]
            return pages

        pages = run_with_server(tmp_path, scenario, follow=True)
        walked = [w["start_ts"] for p in pages for w in p["windows"]]
        assert walked == [0, 60, 120, 180, 240]
        assert len(walked) == len(set(walked)), "duplicated a window"

    def test_cursor_past_the_end_is_empty_not_error(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port,
                                  "/series/srvip?cursor=999999999")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 200
        payload = resp.json()
        assert payload["windows"] == []
        assert payload["next_cursor"] is None


class TestDefaultBind:
    def test_cli_serve_defaults_to_loopback(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "somedir"])
        assert args.host == "127.0.0.1"

    def test_server_and_builder_default_to_loopback(self, series_dir):
        assert ObservatoryServer(None).host == "127.0.0.1"

        async def scenario(server, app):
            return server.host

        assert run_with_server(series_dir, scenario) == "127.0.0.1"

#: the five store-backed routes, all answered by ObservatoryApp._respond
RESPONDER_ROUTES = {
    "series": "/series/qname",
    "key": "/key/srvip/192.0.2.1",
    "topk": "/topk/srvip?n=5",
    "topk_windows": "/topk/windows/qname?n=4",
    "vantage": "/vantage?n=3",
}

#: ... of which these stream past the threshold; /topk and /vantage
#: always keep Content-Length framing
STREAMABLE = {"series", "key", "topk_windows"}


class TestOneResponder:
    @pytest.mark.parametrize("route", sorted(RESPONDER_ROUTES))
    def test_one_body_per_etag(self, series_dir, route):
        """First body == second (cached) body == streamed body, byte
        for byte, under one ETag; and a matching If-None-Match reads
        no window, buffered or streamed."""
        target = RESPONDER_ROUTES[route]

        async def scenario(server, app):
            first = await raw_get(server.port, target)
            second = await raw_get(server.port, target)
            before = app.store.cache_info()
            conditional = await raw_get(
                server.port, target,
                headers={"If-None-Match": first[1]["etag"]})
            return first, second, conditional, \
                before == app.store.cache_info()

        first, second, conditional, untouched = run_with_server(
            series_dir, scenario, stream_threshold=NEVER_STREAM)
        s_first, s_second, s_conditional, s_untouched = run_with_server(
            series_dir, scenario, stream_threshold=0)

        status, headers, body = first
        assert status == 200
        assert int(headers["content-length"]) == len(body)
        assert "transfer-encoding" not in headers
        json.loads(body.decode("utf-8"))
        assert second == first  # the (route, ETag) body cache
        for response in (s_first, s_second):
            s_status, s_headers, s_raw = response
            assert s_status == 200
            assert s_headers["etag"] == headers["etag"]
            if route in STREAMABLE:
                assert s_headers["transfer-encoding"] == "chunked"
                assert "content-length" not in s_headers
                assert decode_chunked(s_raw)[0] == body
            else:
                assert "transfer-encoding" not in s_headers
                assert s_raw == body
        for response, clean in ((conditional, untouched),
                                (s_conditional, s_untouched)):
            c_status, c_headers, c_raw = response
            assert (c_status, c_raw) == (304, b"")
            assert c_headers["etag"] == headers["etag"]
            assert "transfer-encoding" not in c_headers
            assert clean, "a 304 read windows on %s" % route
