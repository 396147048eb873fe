"""End-to-end tests for the asyncio HTTP query API."""

import asyncio
import gzip
import json
import os
import signal

import pytest

from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.tsv import TimeSeriesData, write_tsv
from repro.server import build_server
from repro.server.app import ObservatoryApp
from repro.server.http import ObservatoryServer
from tests.server.util import http_get, read_response
from tests.util import make_txn


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """A replayed fixture directory: srvip windows + _platform rows."""
    directory = tmp_path_factory.mktemp("series")
    obs = Observatory(datasets=[("srvip", 64)], output_dir=str(directory),
                      use_bloom_gate=False, skip_recent_inserts=False,
                      telemetry=True)
    for i in range(600):
        obs.ingest(make_txn(ts=i * 0.5,
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


class TestEndpoints:
    def test_datasets(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/datasets")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 200
        payload = resp.json()
        assert "srvip" in payload["datasets"]
        assert "_platform" in payload["datasets"]
        assert payload["datasets"]["srvip"]["minutely"]["windows"] >= 4

    def test_series_with_range_and_limit(self, series_dir):
        async def scenario(server, app):
            full = await http_get(server.port, "/series/srvip")
            limited = await http_get(
                server.port, "/series/srvip?limit=2&start=60")
            return full, limited

        full, limited = run_with_server(series_dir, scenario)
        assert full.status == limited.status == 200
        windows = full.json()["windows"]
        assert len(windows) >= 4
        assert all(w["rows"] for w in windows)
        lim = limited.json()["windows"]
        assert len(lim) == 2
        # limit keeps the newest windows of the range
        assert lim[-1]["start_ts"] == windows[-1]["start_ts"]

    def test_topk_matches_store(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/topk/srvip?n=3")

        resp = run_with_server(series_dir, scenario)
        top = resp.json()["top"]
        assert len(top) == 3
        store = SeriesStore(str(series_dir))
        want = store.topk("srvip", n=3)
        assert [item["key"] for item in top] == [k for k, _ in want]
        assert top[0]["rank"] == 1
        assert top[0]["value"] >= top[1]["value"]

    def test_key_series(self, series_dir):
        async def scenario(server, app):
            return await http_get(
                server.port, "/key/srvip/192.0.2.1?column=hits")

        resp = run_with_server(series_dir, scenario)
        payload = resp.json()
        assert payload["key"] == "192.0.2.1"
        assert len(payload["series"]) >= 4
        assert sum(v for _, v in payload["series"]) > 0

    def test_platform_health(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/platform/health")

        resp = run_with_server(series_dir, scenario)
        payload = resp.json()
        assert payload["status"] in ("ok", "fail")
        assert payload["platform_windows"] >= 1
        rules = {v["rule"] for v in payload["verdicts"]}
        assert "capture-floor" in rules
        assert "store" in payload and "server" in payload

    def test_health_failing_rule_trips(self, series_dir):
        from repro.observatory.alerts import parse_rules

        rules = parse_rules(
            "impossible: tracker.*.capture_ratio >= 2.0")

        async def scenario(server, app):
            return await http_get(server.port, "/platform/health")

        resp = run_with_server(series_dir, scenario, rules=rules)
        payload = resp.json()
        assert payload["status"] == "fail"
        failing = [v for v in payload["verdicts"]
                   if v["status"] == "fail"]
        assert failing and failing[0]["rule"] == "impossible"
        assert failing[0]["value"] is not None


    def test_health_poll_reads_only_the_windows_it_uses(self, tmp_path):
        """Regression: health read (and pushed through the LRU) every
        _platform and _detector window on disk, then sliced."""
        for dataset, rows in (
                ("_platform", [("window", {"txns": 5, "seen": 5})]),
                ("_detector", [("exfil", {"flagged": 0})])):
            for start in range(0, 20 * 60, 60):
                write_tsv(str(tmp_path), TimeSeriesData(
                    dataset, "minutely", start,
                    columns=sorted(rows[0][1]), rows=rows, stats={}))

        async def scenario(server, app):
            resp = await http_get(server.port,
                                  "/platform/health?windows=3")
            return resp.json()

        # an LRU smaller than either series: nothing hides a re-read
        payload = run_with_server(tmp_path, scenario, cache_windows=4)
        assert payload["platform_windows"] == 3
        assert payload["detector_windows"] == 3
        assert payload["latest_window_ts"] == 19 * 60
        assert payload["store"]["misses"] <= 2 * 3
        assert payload["store"]["indexed_windows"] == 40


    def test_window_removed_under_the_server_is_not_a_500(
            self, series_dir, tmp_path):
        """Regression: without ``--follow`` a removed window stayed in
        the index and every range touching it answered 500 until
        restart; now it is dropped on first touch and counted."""
        import shutil

        live = tmp_path / "live"
        shutil.copytree(series_dir, live)

        async def scenario(server, app):
            before = (await http_get(server.port,
                                     "/series/srvip?limit=999")).json()
            victim = app.store.select("srvip")[1]
            os.remove(victim.path)
            answers = [await http_get(server.port, target) for target in (
                "/series/srvip", "/topk/srvip", "/key/srvip/192.0.2.1",
                "/topk/windows/srvip", "/series/srvip?limit=2")]
            health = await http_get(server.port, "/platform/health")
            return before, victim.start_ts, answers, health.json()

        # no LRU: nothing answers from memory what is gone from disk
        before, gone, answers, health = run_with_server(
            live, scenario, cache_windows=0)
        assert [resp.status for resp in answers] == [200] * 5
        starts = [w["start_ts"] for w in answers[0].json()["windows"]]
        assert starts == [w["start_ts"] for w in before["windows"]
                          if w["start_ts"] != gone]
        assert health["store"]["vanished_reads"] == 1
        assert health["store"]["indexed_windows"] == len(os.listdir(live))


class TestConditionalAndCompression:
    def test_etag_roundtrip_yields_304(self, series_dir):
        async def scenario(server, app):
            first = await http_get(server.port, "/topk/srvip?n=5")
            etag = first.headers["etag"]
            second = await http_get(server.port, "/topk/srvip?n=5",
                                    headers={"If-None-Match": etag})
            differs = await http_get(server.port, "/topk/srvip?n=6",
                                     headers={"If-None-Match": etag})
            return first, second, differs

        first, second, differs = run_with_server(series_dir, scenario)
        assert first.status == 200
        assert second.status == 304
        assert second.body == b""
        assert second.headers["etag"] == first.headers["etag"]
        assert differs.status == 200  # different query, different entity

    @pytest.mark.parametrize("validator, status", [
        ("W/%s", 304),            # a gzip-ing proxy weakened our ETag
        ('"other", W/%s', 304),
        ("*", 304),
        ('W/"not-ours"', 200),
    ])
    def test_if_none_match_is_a_weak_comparison(self, series_dir,
                                                validator, status):
        """RFC 7232 §3.2: ``If-None-Match`` compares weakly, and ``*``
        matches whatever the selection currently is."""
        async def scenario(server, app):
            first = await http_get(server.port, "/topk/srvip?n=5")
            header = validator % first.headers["etag"] \
                if "%s" in validator else validator
            again = await http_get(server.port, "/topk/srvip?n=5",
                                   headers={"If-None-Match": header})
            empty = await http_get(
                server.port, "/topk/srvip?start=9e9&end=9.1e9",
                headers={"If-None-Match": "*"})
            return first, again, empty

        first, again, empty = run_with_server(series_dir, scenario)
        assert again.status == status
        if status == 304:  # the 304 still carries our strong ETag
            assert again.headers["etag"] == first.headers["etag"]
        assert empty.status == 200  # nothing selected: nothing to match

    def test_etag_changes_when_data_changes(self, series_dir, tmp_path):
        import shutil

        live = tmp_path / "live"
        shutil.copytree(series_dir, live)

        async def scenario(server, app):
            first = await http_get(server.port, "/topk/srvip")
            # a new window lands
            obs = Observatory(datasets=[("srvip", 64)],
                              output_dir=str(live),
                              use_bloom_gate=False,
                              skip_recent_inserts=False)
            for i in range(120):
                obs.ingest(make_txn(ts=100000 + i,
                                    server_ip="203.0.113.77"))
            obs.finish()
            second = await http_get(
                server.port, "/topk/srvip",
                headers={"If-None-Match": first.headers["etag"]})
            return first, second

        first, second = run_with_server(live, scenario, follow=True)
        assert first.status == 200
        assert second.status == 200  # not a 304: the entity changed
        assert second.headers["etag"] != first.headers["etag"]

    def test_repeat_query_served_from_body_cache(self, series_dir):
        async def scenario(server, app):
            calls = []
            inner = app.store.topk

            def counting(*args, **kwargs):
                calls.append(1)
                return inner(*args, **kwargs)

            app.store.topk = counting
            first = await http_get(server.port, "/topk/srvip?n=5")
            second = await http_get(server.port, "/topk/srvip?n=5")
            return first, second, len(calls)

        first, second, calls = run_with_server(series_dir, scenario)
        assert first.status == second.status == 200
        assert second.body == first.body
        # the repeat was answered from the (route, ETag) body cache
        assert calls == 1

    def test_gzip_negotiation(self, series_dir):
        async def scenario(server, app):
            plain = await http_get(server.port, "/series/srvip")
            zipped = await http_get(server.port, "/series/srvip",
                                    headers={"Accept-Encoding": "gzip"})
            return plain, zipped

        plain, zipped = run_with_server(series_dir, scenario)
        assert "content-encoding" not in plain.headers
        assert zipped.headers["content-encoding"] == "gzip"
        assert len(zipped.body) < len(plain.body)
        assert gzip.decompress(zipped.body) == plain.body

    def test_tiny_bodies_not_compressed(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/key/srvip/192.0.2.1",
                                  headers={"Accept-Encoding": "gzip"})

        resp = run_with_server(series_dir, scenario)
        # the error path and small payloads skip compression
        if len(resp.body) < 256:
            assert "content-encoding" not in resp.headers


class TestErrorSurface:
    def test_unknown_dataset_404_json(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/topk/nosuch")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 404
        payload = resp.json()
        assert "nosuch" in payload["error"]
        assert payload["status"] == 404

    def test_unknown_by_400_names_the_columns(self, series_dir):
        """Regression: a ``by=`` no window carries answered 200, every
        key ranked at 0 in key order.  The streamed per-window route
        decides it before its status line; an empty selection of a
        known dataset stays an empty 200."""
        async def scenario(server, app):
            return [await http_get(server.port, target) for target in (
                "/topk/srvip?by=nosuch", "/topk/windows/srvip?by=nosuch",
                "/topk/srvip?by=nosuch&start=9e9&end=9.1e9",
                "/topk/srvip?by=delay_q50")]

        ranked, windows, empty, known = run_with_server(
            series_dir, scenario, stream_threshold=0)
        for resp in (ranked, windows):
            assert resp.status == 400
            error = resp.json()["error"]
            assert "nosuch" in error and "hits" in error
        assert empty.status == 200 and empty.json()["top"] == []
        assert known.status == 200 and known.json()["top"]

    def test_unknown_key_404_json(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/key/srvip/10.9.9.9")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 404
        assert "10.9.9.9" in resp.json()["error"]

    def test_escaped_slash_stays_inside_the_key(self, tmp_path):
        """Regression: the path was unquoted before it was split, so a
        key holding ``/`` (an RFC 2317 reverse name) was unaddressable;
        ``%7C`` keys (srcsrv, aafqdn) answer as they always did."""
        keys = ["0/25.2.0.192.in-addr.arpa", "10.0.0.1|192.0.2.1"]
        write_tsv(str(tmp_path), TimeSeriesData(
            "qname", "minutely", 0, columns=["hits"],
            rows=[(key, {"hits": 7}) for key in keys], stats={}))

        async def scenario(server, app):
            return [await http_get(server.port, "/key/qname/" + escaped)
                    for escaped in ("0%2F25.2.0.192.in-addr.arpa",
                                    "10.0.0.1%7C192.0.2.1",
                                    "0/25.2.0.192.in-addr.arpa")]

        slash, pipe, unescaped = run_with_server(tmp_path, scenario)
        for resp, key in zip((slash, pipe), keys):
            assert resp.status == 200
            assert resp.json()["key"] == key
            assert resp.json()["series"] == [[0, 7]]
        # a literal slash still separates segments: no such endpoint
        assert unescaped.status == 404
        assert "no such endpoint" in unescaped.json()["error"]

    def test_damaged_sidecar_is_never_a_5xx(self, tmp_path):
        """Regression: a fresh sidecar whose key blob does not decode
        raised out of the store into a 500; the TSV beside it answers,
        byte for byte, and ``/platform/health`` counts the reject."""
        from repro.observatory import segments

        path = write_tsv(str(tmp_path), TimeSeriesData(
            "qname", "minutely", 0, columns=["hits"],
            rows=[("a.example", {"hits": 7}), ("b.example", {"hits": 2})]))
        targets = ("/series/qname", "/topk/qname?n=1", "/key/qname/a.example")

        async def scenario(server, app):
            bodies = [await http_get(server.port, t) for t in targets]
            return bodies, await http_get(server.port, "/platform/health")

        text, _ = run_with_server(tmp_path, scenario)
        seg = segments.build_segment(path)
        reader = segments.SegmentReader(seg)
        off, length = reader._key_block["blob"]
        with open(seg, "r+b") as fh:
            fh.seek(off)
            fh.write(b"\xff" * length)
        damaged, health = run_with_server(tmp_path, scenario)
        assert [r.status for r in damaged] == [200, 200, 200]
        assert [r.body for r in damaged] == [r.body for r in text]
        assert health.json()["store"]["segment_rejects"] == 1

    def test_unknown_endpoint_404(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/nope")

        assert run_with_server(series_dir, scenario).status == 404

    @pytest.mark.parametrize("target", [
        "/topk/srvip?n=abc",
        "/topk/srvip?n=0",
        "/topk/srvip?n=999999999",
        "/series/srvip?start=xyz",
        "/series/srvip?granularity=weekly",
        "/series/srvip?start=100&end=50",
        "/key/srvip/192.0.2.1?end=nope",
    ])
    def test_malformed_params_400_json(self, series_dir, target):
        async def scenario(server, app):
            return await http_get(server.port, target)

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 400
        assert "error" in resp.json()

    def test_post_is_405_with_allow(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/datasets",
                                  method="POST")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 405
        assert resp.headers["allow"] == "GET"

    def test_garbage_request_line_400(self, series_dir):
        async def scenario(server, app):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            resp = await read_response(reader)
            writer.close()
            return resp

        assert run_with_server(series_dir, scenario).status == 400

    def test_handler_crash_is_500_json(self, series_dir):
        async def broken(server, app):
            original = app.handle_datasets

            def explode(request):
                raise RuntimeError("boom")

            app.handle_datasets = explode
            try:
                return await http_get(server.port, "/datasets")
            finally:
                app.handle_datasets = original

        resp = run_with_server(series_dir, broken)
        assert resp.status == 500
        assert resp.json()["error"] == "internal server error"


class TestBackpressure:
    def test_over_cap_connection_gets_503_retry_after(self, series_dir):
        async def scenario():
            store = SeriesStore(str(series_dir))
            app = ObservatoryApp(store)
            release = asyncio.Event()

            async def slow_handler(request):
                await release.wait()
                return await app(request)

            server = ObservatoryServer(slow_handler, port=0,
                                       max_connections=1)
            await server.start()
            try:
                first = asyncio.ensure_future(
                    http_get(server.port, "/datasets"))
                # wait for the first connection to occupy the only slot
                for _ in range(100):
                    if server.active_connections >= 1:
                        break
                    await asyncio.sleep(0.01)
                overflow = await http_get(server.port, "/datasets")
                release.set()
                ok = await first
                return ok, overflow, server.rejected_total
            finally:
                server.begin_shutdown()
                await server.wait_closed()

        ok, overflow, rejected = asyncio.run(scenario())
        assert ok.status == 200
        assert overflow.status == 503
        assert overflow.headers["retry-after"] == "1"
        assert "capacity" in overflow.json()["error"]
        assert rejected == 1

    def test_capacity_frees_after_close(self, series_dir):
        async def scenario(server, app):
            results = []
            for _ in range(5):  # sequential one-shot connections
                resp = await http_get(server.port, "/datasets")
                results.append(resp.status)
            return results

        statuses = run_with_server(series_dir, scenario,
                                   max_connections=1)
        assert statuses == [200] * 5


class TestKeepAlive:
    def test_two_requests_one_connection(self, series_dir):
        async def scenario(server, app):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(b"GET /datasets HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                first = await read_response(reader)
                writer.write(b"GET /topk/srvip HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                second = await read_response(reader)
                return first, second
            finally:
                writer.close()

        first, second = run_with_server(series_dir, scenario)
        assert first.status == 200
        assert first.headers["connection"] == "keep-alive"
        assert second.status == 200
        assert "top" in second.json()


class TestGracefulShutdown:
    def test_sigterm_completes_inflight_then_closes_listener(
            self, series_dir):
        async def scenario():
            store = SeriesStore(str(series_dir))
            app = ObservatoryApp(store)
            entered = asyncio.Event()

            async def slow_handler(request):
                entered.set()
                await asyncio.sleep(0.3)
                return await app(request)

            server = ObservatoryServer(slow_handler, port=0)
            await server.start()
            serve_task = asyncio.ensure_future(
                server.serve_forever())
            inflight = asyncio.ensure_future(
                http_get(server.port, "/datasets"))
            await asyncio.wait_for(entered.wait(), 5)
            os.kill(os.getpid(), signal.SIGTERM)  # mid-request
            resp = await asyncio.wait_for(inflight, 5)
            await asyncio.wait_for(serve_task, 5)
            refused = None
            try:
                await http_get(server.port, "/datasets")
            except OSError as exc:
                refused = exc
            return resp, refused

        resp, refused = asyncio.run(scenario())
        # the in-flight response completed with full payload...
        assert resp.status == 200
        assert "srvip" in resp.json()["datasets"]
        # ...and the listener is closed to new connections
        assert refused is not None

    def test_begin_shutdown_is_idempotent(self, series_dir):
        async def scenario(server, app):
            server.begin_shutdown()
            server.begin_shutdown()
            await server.wait_closed()
            return True

        assert run_with_server(series_dir, scenario)


def test_json_payloads_are_sorted_and_terminated(series_dir):
    async def scenario(server, app):
        return await http_get(server.port, "/datasets")

    resp = run_with_server(series_dir, scenario)
    text = resp.body.decode("utf-8")
    assert text.endswith("\n")
    json.loads(text)


class TestTopkWindows:
    def test_matches_store_per_window_ranking(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port,
                                  "/topk/windows/srvip?n=2&by=hits")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 200
        payload = resp.json()
        assert payload["dataset"] == "srvip"
        assert payload["n"] == 2
        assert payload["by"] == "hits"
        store = SeriesStore(str(series_dir))
        want = list(store.iter_topk_windows("srvip", n=2))
        assert payload["window_count"] == len(want)
        assert len(payload["windows"]) == len(want)
        for got, (start_ts, top) in zip(payload["windows"], want):
            assert got["start_ts"] == start_ts
            assert [t["key"] for t in got["top"]] == [k for k, _ in top]
            assert [t["rank"] for t in got["top"]] == \
                list(range(1, len(top) + 1))
            for entry, (_, row) in zip(got["top"], top):
                assert entry["value"] == row.get("hits", 0)
                assert entry["row"] == row
        # within every window the ranking is non-increasing
        for got in payload["windows"]:
            values = [t["value"] for t in got["top"]]
            assert values == sorted(values, reverse=True)

    def test_range_narrows_the_stream(self, series_dir):
        async def scenario(server, app):
            full = await http_get(server.port, "/topk/windows/srvip")
            part = await http_get(
                server.port, "/topk/windows/srvip?start=60&end=180")
            return full, part

        full, part = run_with_server(series_dir, scenario)
        all_ts = [w["start_ts"] for w in full.json()["windows"]]
        part_ts = [w["start_ts"] for w in part.json()["windows"]]
        assert part_ts == [ts for ts in all_ts if 60 <= ts < 180]
        assert 0 < len(part_ts) < len(all_ts)

    def test_unknown_dataset_404(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/topk/windows/nosuch")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 404
        assert "unknown dataset" in resp.json()["error"]

    def test_etag_covers_the_query_shape(self, series_dir):
        async def scenario(server, app):
            first = await http_get(server.port, "/topk/windows/srvip?n=2")
            etag = first.headers["etag"]
            repeat = await http_get(server.port, "/topk/windows/srvip?n=2",
                                    headers={"If-None-Match": etag})
            other = await http_get(server.port, "/topk/windows/srvip?n=3",
                                   headers={"If-None-Match": etag})
            return first, repeat, other

        first, repeat, other = run_with_server(series_dir, scenario)
        assert first.status == 200
        assert repeat.status == 304
        assert other.status == 200  # a different n is a different entity


class TestKeyPaging:
    def test_pages_reassemble_the_full_key_series(self, series_dir):
        async def scenario(server, app):
            full = (await http_get(
                server.port, "/key/srvip/192.0.2.1")).json()
            pages = []
            cursor = -1  # exclusive: strictly below the first window
            while cursor is not None:
                page = (await http_get(
                    server.port,
                    "/key/srvip/192.0.2.1?limit=2&cursor=%s"
                    % cursor)).json()
                pages.append(page)
                cursor = page["next_cursor"]
            return full, pages

        full, pages = run_with_server(series_dir, scenario)
        assert len(pages) >= 2
        assert all(len(p["series"]) <= 2 for p in pages)
        walked = [point for p in pages for point in p["series"]]
        # oldest-first pages concatenate to exactly the full answer
        assert walked == full["series"]
        assert pages[-1]["next_cursor"] is None
        # the cursor names the last window the client already holds
        assert pages[0]["next_cursor"] == pages[0]["series"][-1][0]

    def test_limit_without_cursor_keeps_newest(self, series_dir):
        async def scenario(server, app):
            full = (await http_get(
                server.port, "/key/srvip/192.0.2.1")).json()
            tail = (await http_get(
                server.port, "/key/srvip/192.0.2.1?limit=2")).json()
            return full, tail

        full, tail = run_with_server(series_dir, scenario)
        # no cursor: /key keeps its original newest-windows semantics
        assert tail["series"] == full["series"][-2:]
        assert tail["next_cursor"] is None

    def test_cursor_past_the_end_is_empty_not_error(self, series_dir):
        async def scenario(server, app):
            return await http_get(
                server.port, "/key/srvip/192.0.2.1?cursor=999999999")

        resp = run_with_server(series_dir, scenario)
        assert resp.status == 200
        payload = resp.json()
        assert payload["series"] == []
        assert payload["next_cursor"] is None

    def test_unknown_key_404_unchanged_by_paging_params(self, series_dir):
        async def scenario(server, app):
            return await http_get(
                server.port,
                "/key/srvip/198.51.100.99?limit=1&cursor=-1")

        resp = run_with_server(series_dir, scenario)
        # the 404 check runs over the full selection, not the page
        assert resp.status == 404
        assert "not found" in resp.json()["error"]
