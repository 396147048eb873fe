"""Auth gate, rate limiting, and the /vantage endpoint."""

import asyncio

import pytest

from repro.analysis.vantage import VantageDb, VantageEmitter
from repro.observatory.pipeline import Observatory
from repro.server import build_server
from tests.server.util import http_get
from tests.util import make_txn


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """A store with srvip plus derived _vantage_* series."""
    directory = tmp_path_factory.mktemp("series-auth")
    db = VantageDb()
    db.add("192.0.2.0/25", 64500, country="US", org="Example US")
    db.add("192.0.2.128/25", 64501, country="DE", org="Example DE")
    obs = Observatory(datasets=[("srvip", 64)], output_dir=str(directory),
                      use_bloom_gate=False, skip_recent_inserts=False,
                      vantage=VantageEmitter(db))
    for i in range(600):
        # 30 distinct servers (< srvip capacity), split across both
        # /25s so each window carries both ASNs / countries
        n = i % 30
        host = n + 1 if n < 15 else n + 114
        obs.ingest(make_txn(ts=i * 0.5,
                            server_ip="192.0.2.%d" % host,
                            answered=i % 7 != 0,
                            rcode=0 if i % 7 != 0 else None))
    obs.finish()
    return directory


def run_with_server(series_dir, scenario, **server_kw):
    async def _main():
        server, app = await build_server(str(series_dir), port=0,
                                         **server_kw)
        try:
            return await scenario(server, app)
        finally:
            server.begin_shutdown()
            await server.wait_closed()

    return asyncio.run(_main())


class TestAuth:
    def test_no_token_configured_leaves_api_open(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/datasets")

        assert run_with_server(series_dir, scenario).status == 200

    def test_missing_or_wrong_token_is_401(self, series_dir):
        async def scenario(server, app):
            bare = await http_get(server.port, "/datasets")
            wrong = await http_get(
                server.port, "/datasets",
                headers={"Authorization": "Bearer nope"})
            malformed = await http_get(
                server.port, "/datasets",
                headers={"Authorization": "Basic c2VjcmV0"})
            return bare, wrong, malformed

        bare, wrong, malformed = run_with_server(
            series_dir, scenario, auth_tokens=["secret"])
        for resp in (bare, wrong, malformed):
            assert resp.status == 401
            assert "bearer" in resp.headers["www-authenticate"].lower()

    def test_valid_token_passes(self, series_dir):
        async def scenario(server, app):
            ok = await http_get(
                server.port, "/datasets",
                headers={"Authorization": "Bearer secret"})
            other = await http_get(
                server.port, "/platform/health",
                headers={"authorization": "bearer  backup "})
            return ok, other

        ok, other = run_with_server(series_dir, scenario,
                                    auth_tokens=["secret", "backup"])
        assert ok.status == 200
        assert "srvip" in ok.json()["datasets"]
        # scheme is case-insensitive and the token is whitespace-trimmed
        assert other.status == 200

    def test_unauthorized_requests_never_hit_routes(self, series_dir):
        async def scenario(server, app):
            resp = await http_get(server.port, "/series/srvip")
            return resp, app.telemetry.snapshot()

        resp, snap = run_with_server(series_dir, scenario,
                                     auth_tokens=["secret"])
        assert resp.status == 401
        assert dict(snap)["server"]["unauthorized"] == 1


class TestRateLimit:
    def test_burst_past_bucket_gets_429_with_retry_after(self, series_dir):
        async def scenario(server, app):
            out = []
            for _ in range(6):
                out.append(await http_get(server.port, "/datasets"))
            return out

        responses = run_with_server(series_dir, scenario,
                                    rate_limit=0.5, rate_burst=2)
        statuses = [r.status for r in responses]
        assert statuses[:2] == [200, 200]
        assert statuses.count(429) >= 3
        throttled = next(r for r in responses if r.status == 429)
        assert int(throttled.headers["retry-after"]) >= 1

    def test_bucket_refills(self, series_dir):
        async def scenario(server, app):
            first = await http_get(server.port, "/datasets")
            second = await http_get(server.port, "/datasets")
            await asyncio.sleep(0.15)
            third = await http_get(server.port, "/datasets")
            return first, second, third

        first, second, third = run_with_server(
            series_dir, scenario, rate_limit=20, rate_burst=1)
        assert first.status == 200
        assert second.status == 429
        assert third.status == 200

    def test_rate_limit_must_be_positive(self, series_dir):
        with pytest.raises(ValueError):
            run_with_server(series_dir, lambda s, a: None, rate_limit=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rate_limit_must_be_finite(self, series_dir, rate):
        """nan passed the old ``<= 0`` check and turned the limiter
        off; inf limited nothing either."""
        with pytest.raises(ValueError, match="finite"):
            run_with_server(series_dir, lambda s, a: None, rate_limit=rate)


class TestVantageEndpoint:
    def test_vantage_groups(self, series_dir):
        async def scenario(server, app):
            both = await http_get(server.port, "/vantage")
            asn = await http_get(server.port, "/vantage/asn?n=1")
            return both, asn

        both, asn = run_with_server(series_dir, scenario)
        assert both.status == 200
        payload = both.json()
        assert payload["granularity"] == "minutely"
        assert set(payload["groups"]) == {"asn", "cc"}
        asn_entries = payload["groups"]["asn"]["entries"]
        assert {e["key"] for e in asn_entries} == {"AS64500", "AS64501"}
        for entry in asn_entries:
            row = entry["row"]
            assert 0.0 <= row["reach"] <= 1.0
            assert 0.0 <= row["tta"] <= 1.0
            assert row["hits"] > 0
        cc_entries = payload["groups"]["cc"]["entries"]
        assert {e["key"] for e in cc_entries} == {"US", "DE"}
        # single-group view ranks by the requested column and caps n
        single = asn.json()
        assert set(single["groups"]) == {"asn"}
        top = single["groups"]["asn"]["entries"]
        assert len(top) == 1
        assert top[0]["row"]["hits"] == max(
            e["row"]["hits"] for e in asn_entries)

    def test_vantage_unknown_group_404(self, series_dir):
        async def scenario(server, app):
            return await http_get(server.port, "/vantage/bogus")

        assert run_with_server(series_dir, scenario).status == 404

    def test_vantage_empty_store(self, tmp_path):
        async def scenario(server, app):
            return await http_get(server.port, "/vantage")

        resp = run_with_server(tmp_path, scenario)
        assert resp.status == 200
        groups = resp.json()["groups"]
        assert groups["asn"] == {"window_ts": None, "entries": []}
        assert groups["cc"] == {"window_ts": None, "entries": []}
