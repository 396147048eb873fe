"""Unit tests for the encrypted-channel (_encrypted) aggregation."""

import pytest

from repro.observatory.encrypted import (
    ENCRYPTED_DATASET, TRANSPORT_OVERHEAD, EncryptedChannelAggregator,
    BLIND_MARK, blind_transport, encrypt_observation, padded_size)
from repro.observatory.pipeline import Observatory
from tests.util import cut_windows, make_txn


def test_padded_size_rounds_up_to_block():
    assert padded_size(1, 128) == 128
    assert padded_size(128, 128) == 128
    assert padded_size(129, 128) == 256
    assert padded_size(300, 468) == 468
    # block <= 1 disables padding
    assert padded_size(300, 1) == 300
    assert padded_size(300, 0) == 300


def test_encrypt_observation_blinds_content():
    txn = make_txn(qname="secret.example.com", response_size=200,
                   delay_ms=12.5, source="src3")
    blinded = encrypt_observation(txn, "doh", padding_block=128)
    assert blinded.source[:1] == BLIND_MARK != txn.source[:1]
    assert blind_transport(blinded) == "doh"
    assert blinded.source == "!doh:src3"
    # payload-derived fields are gone
    assert blinded.qname == "" and blinded.qtype == 0
    assert blinded.rcode is None
    # size/timing survive: padded size plus the DoH framing overhead
    assert blinded.response_size == 256 + TRANSPORT_OVERHEAD["doh"]
    assert blinded.delay_ms == txn.delay_ms
    assert blinded.answered == txn.answered


def test_encrypt_observation_unanswered_has_no_wire_size():
    txn = make_txn(answered=False, rcode=None, response_size=0)
    blinded = encrypt_observation(txn, "dot")
    assert blinded.response_size == 0
    assert not blinded.answered


def test_encrypt_observation_rejects_unknown_transport():
    with pytest.raises(ValueError):
        encrypt_observation(make_txn(), "quic")


def test_blinded_transaction_survives_line_roundtrip():
    """``simulate`` writes and ``replay`` re-parses transaction lines,
    so a blinded observation must roundtrip the frozen line format."""
    from repro.observatory.transaction import Transaction

    blinded = encrypt_observation(
        make_txn(response_size=300, delay_ms=7.25), "doh")
    back = Transaction.from_line(blinded.to_line())
    assert back.source[:1] == BLIND_MARK
    assert back.source == blinded.source
    assert back.response_size == blinded.response_size
    assert back.answered == blinded.answered


def test_aggregator_summary_and_per_resolver_rows():
    agg = EncryptedChannelAggregator()
    for i in range(4):
        agg.observe(encrypt_observation(
            make_txn(ts=float(i), resolver_ip="10.0.0.1",
                     response_size=100, delay_ms=10.0), "doh"))
    agg.observe(encrypt_observation(
        make_txn(ts=4.0, resolver_ip="10.0.0.2", response_size=700,
                 delay_ms=30.0), "dot"))
    assert agg.seen() == 5
    rows = dict(agg.cut(0.0, 60.0))
    # transport summaries first, then per-resolver detail rows
    assert set(rows) == {"doh", "dot", "doh.10.0.0.1", "dot.10.0.0.2"}
    doh = rows["doh"]
    assert doh["queries"] == 4 and doh["answered"] == 4
    assert doh["resolvers"] == 1
    assert doh["size_min"] == doh["size_max"] == \
        128 + TRANSPORT_OVERHEAD["doh"]
    assert doh["delay_ms_mean"] == pytest.approx(10.0)
    # a cut resets the window
    assert agg.seen() == 0 and agg.cut(60.0, 120.0) == []


def test_pipeline_diverts_blinded_from_trackers():
    """Blinded records count toward seen but never reach the content
    trackers; they surface only in the _encrypted dump."""
    obs = Observatory(datasets=[("qname", 100)], encrypted=True,
                      use_bloom_gate=False, skip_recent_inserts=False)
    windows = cut_windows(obs, [
        make_txn(ts=1.0, qname="plain.example.com"),
        encrypt_observation(make_txn(ts=2.0, qname="hidden.example.com"),
                            "dot")])
    assert obs.total_seen == 2
    qname_keys = {key for d in windows["qname"] for key, _ in d.rows}
    assert qname_keys == {"plain.example.com"}
    enc = windows[ENCRYPTED_DATASET]
    assert len(enc) == 1 and dict(enc[0].rows)["dot"]["queries"] == 1


def test_pipeline_without_encrypted_channel_drops_nothing():
    """encrypted=None (the default) keeps historical behaviour: every
    record, blinded or not, feeds the trackers."""
    obs = Observatory(datasets=[("srvip", 100)], use_bloom_gate=False,
                      skip_recent_inserts=False)
    windows = cut_windows(obs, [
        make_txn(ts=1.0), encrypt_observation(make_txn(ts=2.0), "doh")])
    assert obs.total_seen == 2
    assert ENCRYPTED_DATASET not in windows
    hits = sum(row["hits"] for d in windows["srvip"]
               for _, row in d.rows)
    assert hits == 2
