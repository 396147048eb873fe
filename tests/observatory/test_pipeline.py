"""Integration tests for the Observatory facade."""

import random

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.rdata import A
from repro.netsim.packet import build_udp_ipv4
from repro.observatory.pipeline import Observatory
from repro.observatory.preprocess import summarize_transaction
from repro.observatory.tsv import list_series, read_tsv
from tests.util import make_nxdomain, make_txn


def stream(n=500, servers=5, seed=1):
    """Zipf-ish synthetic transaction stream spanning several windows."""
    rng = random.Random(seed)
    txns = []
    for i in range(n):
        ts = i * 0.5  # 2 tps -> 250 s -> 4+ windows
        server = "192.0.2.%d" % (min(int(rng.paretovariate(1.2)), servers),)
        if rng.random() < 0.2:
            txns.append(make_nxdomain(ts=ts, server_ip=server,
                                      qname="x%d.example.com" % i))
        else:
            txns.append(make_txn(ts=ts, server_ip=server,
                                 qname="www%d.example.com" % (i % 10)))
    return txns


class TestObservatory:
    def test_basic_ingest_and_top(self):
        obs = Observatory(datasets=[("srvip", 16)], use_bloom_gate=False)
        obs.consume(stream())
        obs.finish()
        assert obs.total_seen == 500
        top = obs.tracker("srvip").top(3)
        assert top[0].key.startswith("192.0.2.")
        assert top[0].hits >= top[1].hits or top[0].weight >= top[1].weight

    def test_dumps_accumulate_per_dataset(self):
        obs = Observatory(datasets=[("srvip", 16), ("qname", 32)],
                          use_bloom_gate=False)
        obs.consume(stream())
        obs.finish()
        assert len(obs.dumps["srvip"]) >= 4
        assert len(obs.dumps["qname"]) >= 4
        # Rows carry feature values.
        last = obs.dumps["srvip"][-1]
        if last.rows:
            assert "hits" in last.rows[0][1]

    def test_capture_ratio_reported(self):
        obs = Observatory(datasets=[("srvip", 16)], use_bloom_gate=False)
        obs.consume(stream())
        ratios = obs.capture_ratios()
        assert 0.5 < ratios["srvip"] <= 1.0

    def test_tsv_output(self, tmp_path):
        obs = Observatory(datasets=[("srvip", 16)], output_dir=str(tmp_path),
                          use_bloom_gate=False)
        obs.consume(stream())
        obs.finish()
        files = list_series(str(tmp_path), "srvip", "minutely")
        assert len(files) >= 4
        data = read_tsv(files[0][0])
        assert data.stats["seen"] > 0

    def test_dataset_spec_resolution(self):
        with pytest.raises(ValueError):
            Observatory(datasets=["nope"])
        with pytest.raises(ValueError):
            Observatory(datasets=["srvip", ("srvip", 10)])
        with pytest.raises(TypeError):
            Observatory(datasets=[42])

    def test_full_packet_path(self):
        """End-to-end: raw wire packets through parsing to top lists."""
        obs = Observatory(datasets=[("srvip", 8)], use_bloom_gate=False,
                          skip_recent_inserts=False)
        for i in range(20):
            query = Message.make_query("www.example.com", QTYPE.A, msg_id=i)
            response = Message.make_response(query, authoritative=True)
            response.answer.append(ResourceRecord(
                "www.example.com", QTYPE.A, 300, A("198.51.100.1")))
            qpkt = build_udp_ipv4("10.0.0.1", "192.0.2.53", 30000 + i, 53,
                                  query.to_wire())
            rpkt = build_udp_ipv4("192.0.2.53", "10.0.0.1", 53, 30000 + i,
                                  response.to_wire(), ttl=57)
            txn = summarize_transaction(qpkt, rpkt, float(i),
                                        float(i) + 0.015)
            assert txn.noerror
            obs.ingest(txn)
        obs.finish()
        top = obs.tracker("srvip").top(1)
        assert top[0].key == "192.0.2.53"
        dump = obs.dumps["srvip"][-1]
        row = dump.row_map()["192.0.2.53"]
        assert row["hits"] == 20
        assert row["ttl_top1"] == 300
        assert 10 < row["delay_q50"] < 25
        assert row["hops_q50"] == pytest.approx(7, abs=1)

    def test_qtype_and_rcode_datasets(self):
        obs = Observatory(datasets=["qtype", "rcode"], use_bloom_gate=False,
                          skip_recent_inserts=False)
        obs.consume(stream())
        obs.finish()
        qtype_keys = {e.key for e in obs.tracker("qtype").top()}
        assert "A" in qtype_keys
        rcode_keys = {e.key for e in obs.tracker("rcode").top()}
        assert {"NOERROR", "NXDOMAIN"} <= rcode_keys
