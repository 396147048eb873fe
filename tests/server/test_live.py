"""Live-push serving tests: flush broker, ``/series?follow=``
long-polls, the SSE ``/stream`` endpoint, monotonic uptime and signal
restoration -- the serving half of the ``run`` daemon, exercised
in-process (the daemon itself is covered end-to-end in
``tests/test_daemon.py``)."""

import asyncio
import json
import signal
import threading
import time

import pytest

from repro.observatory.store import SeriesStore
from repro.observatory.tsv import TimeSeriesData, write_tsv
from repro.server import ObservatoryApp, build_server
from repro.server.http import HttpError, ObservatoryServer, Request
from repro.server.push import FlushBroker
from tests.server.util import http_get


def make_window(directory, start, dataset="srvip"):
    data = TimeSeriesData(dataset, "minutely", start,
                          columns=["hits", "ok"],
                          rows=[("192.0.2.1",
                                 {"hits": 10 + start, "ok": 9})],
                          stats={"seen": 20, "kept": 15})
    return write_tsv(str(directory), data)


@pytest.mark.parametrize("target, headers", [
    ("/series/srvip?follow=inf&timeout=0", {}),
    ("/series/srvip?follow=-inf&timeout=0", {}),
    ("/series/srvip?start=nan", {}),
    ("/series/srvip?cursor=nan", {}),
    ("/stream/srvip?cursor=inf", {}),
    ("/stream/srvip", {"last-event-id": "inf"}),
])
def test_non_finite_numbers_get_400(tmp_path, target, headers):
    """nan and +-inf parse as floats but have no JSON form: a
    ``follow=inf`` used to answer 200 with ``"next_cursor":Infinity``,
    which no JSON parser accepts."""
    make_window(tmp_path, 60)
    app = ObservatoryApp(SeriesStore(str(tmp_path)))
    with pytest.raises(HttpError) as caught:
        asyncio.run(app(Request("GET", target, headers)))
    assert caught.value.status == 400


def test_non_finite_store_cell_is_served_as_text(tmp_path):
    """A window file with an ``inf`` cell (bytes from outside the
    program) reads it as text, like any cell that is no number, so
    the body stays JSON (a bare ``Infinity`` is not)."""
    path = make_window(tmp_path, 60)
    with open(path, "w") as fh:
        fh.write("key\thits\tok\n192.0.2.1\tinf\t9\n"
                 "#stats\tkept=15\tseen=nan\n")
    app = ObservatoryApp(SeriesStore(str(tmp_path)))

    def no_constant(name):
        raise AssertionError("bare %s in a JSON body" % name)

    for target, expected in (
            ("/series/srvip", {"hits": "inf", "ok": 9}),
            ("/key/srvip/192.0.2.1?column=hits", [[60, "inf"]]),
            ("/topk/windows/srvip?by=ok", {"hits": "inf", "ok": 9})):
        response = asyncio.run(app(Request("GET", target, {})))
        assert response.status == 200
        body = json.loads(response.body, parse_constant=no_constant)
        if "windows" in body and "rows" in body["windows"][0]:
            assert body["windows"][0]["rows"][0][1] == expected
            assert body["windows"][0]["stats"]["seen"] == "nan"
        elif "series" in body:
            assert body["series"] == expected
        else:
            assert body["windows"][0]["top"][0]["row"] == expected


def test_text_cell_in_numeric_column_is_missing_for_topk(tmp_path):
    """``/topk`` sums its columns over windows: a text cell there
    (``inf`` or ``n/a`` in a window file edited outside the program)
    used to raise ``TypeError`` and answer 500.  The fold reads such a
    cell as missing -- 0 for a counter, no weight for a gauge -- and
    counts it in ``text_cells``."""
    for start in (60, 120):
        data = TimeSeriesData(
            "srvip", "minutely", start, columns=["hits", "ok", "srvips"],
            rows=[("192.0.2.1", {"hits": 10, "ok": 9, "srvips": 2.0}),
                  ("192.0.2.2", {"hits": 4, "ok": 4, "srvips": 1.0})],
            stats={"seen": 20, "kept": 14})
        path = write_tsv(str(tmp_path), data)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("192.0.2.1\t10\t9\t2",
                              "192.0.2.1\tinf\tn/a\t2"))
    store = SeriesStore(str(tmp_path))
    app = ObservatoryApp(store)
    for by in ("hits", "ok", "srvips"):
        response = asyncio.run(app(Request(
            "GET", "/topk/srvip?by=%s" % by, {})))
        assert response.status == 200
        top = {item["key"]: item["row"]
               for item in json.loads(response.body)["top"]}
        assert top["192.0.2.1"]["hits"] == 10
        assert top["192.0.2.1"]["ok"] == 9
        assert top["192.0.2.1"]["srvips"] == 2.0  # second window: no hits
        assert top["192.0.2.2"] == {"hits": 8, "ok": 8, "srvips": 1.0}
    assert store.cache_info()["text_cells"] > 0
    assert dict(store.topk("srvip", by="ok")) == \
        dict(store.topk("srvip", by="hits"))


def run_live(directory, scenario, **server_kw):
    """Serve *directory* with a flush broker wired, daemon-style.

    *scenario(server, app, broker, flush)* gets a ``flush(start)``
    helper reproducing the daemon's flush hook: write the TSV,
    reconcile the store via ``notify_flush``, ring the broker.
    """

    async def _main():
        loop = asyncio.get_running_loop()
        broker = FlushBroker(loop)
        server, app = await build_server(str(directory), port=0,
                                         broker=broker, **server_kw)

        def flush(start, dataset="srvip"):
            path = make_window(directory, start, dataset)
            app.store.notify_flush(path)
            broker.publish(path)
            return path

        try:
            return await scenario(server, app, broker, flush)
        finally:
            broker.close()
            server.begin_shutdown()
            await server.wait_closed()

    return asyncio.run(_main())


class TestFlushBroker:
    def test_publish_wakes_waiter(self):
        async def main():
            broker = FlushBroker()
            task = asyncio.ensure_future(broker.wait(5.0))
            await asyncio.sleep(0)
            broker.publish()
            return await asyncio.wait_for(task, 1.0)

        assert asyncio.run(main()) is True

    def test_timeout_returns_false(self):
        async def main():
            return await FlushBroker().wait(0.05)

        assert asyncio.run(main()) is False

    def test_close_wakes_every_waiter_and_later_ones(self):
        async def main():
            broker = FlushBroker()
            tasks = [asyncio.ensure_future(broker.wait(5.0))
                     for _ in range(3)]
            await asyncio.sleep(0)
            broker.close()
            woken = await asyncio.gather(*tasks)
            late = await broker.wait(5.0)  # immediate once closed
            return woken, late

        woken, late = asyncio.run(main())
        assert woken == [True, True, True]
        assert late is True

    def test_publish_threadsafe_crosses_threads(self):
        async def main():
            broker = FlushBroker()
            task = asyncio.ensure_future(broker.wait(5.0))
            await asyncio.sleep(0)
            thread = threading.Thread(target=broker.publish_threadsafe)
            thread.start()
            woke = await asyncio.wait_for(task, 2.0)
            thread.join()
            return woke, broker.flushes

        woke, flushes = asyncio.run(main())
        assert woke is True
        assert flushes == 1

    def test_subscription_counts(self):
        async def main():
            broker = FlushBroker()
            with broker.subscribe():
                inside = broker.subscribers
            return inside, broker.subscribers

        assert asyncio.run(main()) == (1, 0)


class TestFollowLongPoll:
    def test_waiter_woken_by_flush(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            task = asyncio.ensure_future(http_get(
                server.port, "/series/srvip?follow=0&timeout=10"))
            await asyncio.sleep(0.1)
            started = time.monotonic()
            flush(60)
            resp = await asyncio.wait_for(task, 5.0)
            return resp, time.monotonic() - started

        resp, elapsed = run_live(tmp_path, scenario)
        assert resp.status == 200
        doc = resp.json()
        assert [w["start_ts"] for w in doc["windows"]] == [60]
        assert doc["next_cursor"] == 60
        assert doc["timed_out"] is False
        assert doc["eof"] is False
        assert elapsed < 2.0, "woke by push, not by timeout"

    def test_empty_follow_tails_from_now(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            flush(60)
            task = asyncio.ensure_future(http_get(
                server.port, "/series/srvip?follow=&timeout=10"))
            await asyncio.sleep(0.1)
            flush(120)
            return await asyncio.wait_for(task, 5.0)

        doc = run_live(tmp_path, scenario).json()
        # windows already on disk are skipped; only the live one lands
        assert [w["start_ts"] for w in doc["windows"]] == [120]

    def test_timeout_echoes_the_cursor(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            return await http_get(
                server.port, "/series/srvip?follow=0&timeout=0.2")

        doc = run_live(tmp_path, scenario).json()
        assert doc["windows"] == []
        assert doc["timed_out"] is True
        # the echoed cursor is a valid next follow= value: no window
        # is skipped by re-subscribing after a timeout
        assert doc["next_cursor"] == 0

    def test_subscribing_before_the_dataset_exists(self, tmp_path):
        async def scenario(server, app, broker, flush):
            task = asyncio.ensure_future(http_get(
                server.port, "/series/srvip?follow=&timeout=10"))
            await asyncio.sleep(0.1)
            flush(0)  # the daemon's very first window
            return await asyncio.wait_for(task, 5.0)

        resp = run_live(tmp_path, scenario)
        assert resp.status == 200, "follow must not 404 an empty store"
        assert [w["start_ts"] for w in resp.json()["windows"]] == [0]

    def test_broker_close_drains_with_eof(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            task = asyncio.ensure_future(http_get(
                server.port, "/series/srvip?follow=0&timeout=10"))
            await asyncio.sleep(0.1)
            broker.close()  # SIGTERM's drain signal
            return await asyncio.wait_for(task, 5.0)

        doc = run_live(tmp_path, scenario).json()
        assert doc["eof"] is True
        assert doc["windows"] == []

    def test_subscriber_counted_while_waiting(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            task = asyncio.ensure_future(http_get(
                server.port, "/series/srvip?follow=0&timeout=10"))
            await asyncio.sleep(0.2)
            during = broker.subscribers
            flush(60)
            await asyncio.wait_for(task, 5.0)
            await asyncio.sleep(0.05)
            return during, broker.subscribers

        during, after = run_live(tmp_path, scenario)
        assert during == 1
        assert after == 0

    def test_bad_follow_value_is_400(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            return await http_get(server.port,
                                  "/series/srvip?follow=banana")

        assert run_live(tmp_path, scenario).status == 400


def dechunk_prefix(raw):
    """Decode as much complete chunked framing as *raw* holds."""
    body = bytearray()
    rest = raw
    while rest:
        size_line, sep, after = rest.partition(b"\r\n")
        if not sep:
            break
        try:
            size = int(size_line, 16)
        except ValueError:
            break
        if size == 0 or len(after) < size + 2:
            break
        body += after[:size]
        rest = after[size + 2:]
    return bytes(body)


def parse_sse(body):
    """Split an SSE byte stream into [{field: value}] event dicts."""
    events = []
    for block in body.decode("utf-8").split("\n\n"):
        if not block.strip():
            continue
        event = {}
        for line in block.split("\n"):
            if line.startswith(":"):
                event.setdefault("comment", line[1:].strip())
                continue
            name, _, value = line.partition(":")
            event[name.strip()] = value.strip()
        events.append(event)
    return events


async def sse_connect(port, target, headers=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    lines = ["GET %s HTTP/1.1" % target, "Host: sse",
             "Accept: text/event-stream"]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    return reader, writer, head


async def read_until(reader, buf, predicate, timeout=5.0):
    while not predicate(buf):
        chunk = await asyncio.wait_for(reader.read(4096), timeout)
        if not chunk:
            break
        buf += chunk
    return buf


class TestSseStream:
    def test_framing_pushes_and_eof(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            reader, writer, head = await sse_connect(
                server.port, "/stream/srvip?cursor=-1")
            buf = await read_until(reader, b"",
                                   lambda b: b"event: window" in b)
            flush(60)
            buf = await read_until(
                reader, buf, lambda b: b.count(b"event: window") >= 2)
            broker.close()
            buf = await read_until(reader, buf,
                                   lambda b: b"event: eof" in b)
            writer.close()
            return head, buf

        head, raw = run_live(tmp_path, scenario)
        text = head.decode("latin-1")
        assert " 200 " in text.split("\r\n")[0]
        assert "text/event-stream" in text
        assert "Transfer-Encoding: chunked" in text
        assert "Content-Encoding" not in text, "SSE must not buffer in gzip"
        events = parse_sse(dechunk_prefix(raw))
        assert events[0].get("retry") == "2000"
        windows = [e for e in events if e.get("event") == "window"]
        assert [e["id"] for e in windows] == ["0", "60"]
        for event in windows:
            payload = json.loads(event["data"])
            assert payload["start_ts"] == int(event["id"])
            assert payload["rows"]
        assert events[-1].get("event") == "eof"

    def test_last_event_id_resumes_exclusively(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            flush(60)
            reader, writer, _ = await sse_connect(
                server.port, "/stream/srvip",
                headers={"Last-Event-ID": "0"})
            buf = await read_until(reader, b"",
                                   lambda b: b"event: window" in b)
            writer.close()
            return buf

        events = parse_sse(dechunk_prefix(run_live(tmp_path, scenario)))
        windows = [e for e in events if e.get("event") == "window"]
        # window 0 is what the client already holds: not re-sent
        assert [e["id"] for e in windows] == ["60"]

    def test_stream_counts_subscribers(self, tmp_path):
        async def scenario(server, app, broker, flush):
            flush(0)
            reader, writer, _ = await sse_connect(
                server.port, "/stream/srvip?cursor=-1")
            await read_until(reader, b"",
                             lambda b: b"event: window" in b)
            await asyncio.sleep(0.05)
            during = broker.subscribers
            writer.close()
            return during

        assert run_live(tmp_path, scenario) == 1


class TestHealthCoversTheDaemon:
    def test_daemon_and_broker_sections(self, tmp_path):
        make_window(tmp_path, 0)

        def status():
            return {"running": True, "windows_flushed": 7}

        async def scenario(server, app, broker, flush):
            return await http_get(server.port, "/platform/health")

        doc = run_live(tmp_path, scenario, daemon_status=status).json()
        assert doc["daemon"] == {"running": True, "windows_flushed": 7}
        assert doc["broker"]["closed"] == 0
        assert doc["broker"]["subscribers"] == 0


class TestMonotonicUptime:
    def test_uptime_ignores_wall_clock_steps(self, tmp_path):
        make_window(tmp_path, 0)

        async def scenario(server, app, broker, flush):
            # simulate 100 s of runtime without touching wall clock
            app._started_monotonic = time.monotonic() - 100.0
            wall = app.started_at_unix
            resp = await http_get(server.port, "/platform/health")
            return wall, resp.json()["server"]

        wall, row = run_live(tmp_path, scenario)
        assert 99.0 <= row["uptime_s"] <= 105.0
        # the wall-clock field is display-only and unaffected
        assert abs(row["started_at_unix"] - round(wall, 1)) < 0.2


class TestSignalRestore:
    def test_serve_forever_restores_prior_handlers(self):
        def custom_handler(signum, frame):  # pragma: no cover
            pass

        previous_term = signal.signal(signal.SIGTERM, custom_handler)
        previous_int = signal.signal(signal.SIGINT, custom_handler)
        try:
            async def main():
                server = ObservatoryServer(None, port=0)
                await server.start()
                asyncio.get_running_loop().call_later(
                    0.05, server.begin_shutdown)
                await server.serve_forever()

            asyncio.run(main())
            # the embedding process's handlers are back, not SIG_DFL
            # and not asyncio's internal trampoline
            assert signal.getsignal(signal.SIGTERM) is custom_handler
            assert signal.getsignal(signal.SIGINT) is custom_handler
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
