"""The per-transaction prepared record (:class:`TxnHashes`) contract.

``FeatureSet.update`` has one code path: apply a prepared record.
These tests pin what that path must keep true -- sharing a record
between FeatureSets changes nothing, a bad transaction changes no
state at all, and the TSV bytes of a fixed replay stay what they were
before the record existed.
"""

import hashlib
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import memo
from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.name import count_labels
from repro.dnswire.psl import default_psl
from repro.netsim.hops import infer_hops
from repro.observatory import features
from repro.observatory.features import FeatureSet, TxnHashes
from repro.observatory.keys import make_dataset
from repro.observatory.pipeline import Observatory
from repro.observatory.tracker import TopKTracker
from repro.observatory.transaction import Transaction
from repro.observatory.window import WindowManager
from repro.simulation import Scenario, SieChannel
from repro.sketches.histogram import LogHistogram
from repro.sketches.hyperloglog import HyperLogLog, index_rank
from repro.sketches._hashing import derive64, hash64
from tests.util import make_nxdomain, make_txn, tuned

# -- strategies ---------------------------------------------------------

#: hostile and empty names next to ordinary ones
qnames = st.sampled_from([
    "", ".", "com", "example.com", "www.example.com", "a.b.c.d.example.org",
    "bbc.co.uk", "www.ck", "x.y.ck", "UPPER.Example.COM.", "xn--caf-dma.fr",
    "a" * 63 + ".example.net", "_dmarc.example.com", "weird\\.label.test",
    "sp ace.example.com", "é.example.com",
])
addresses = st.sampled_from([
    "198.51.100.1", "198.51.100.2", "0.0.0.0", "2001:db8::1", "::",
    "::ffff:102:304",
])
ttl_tuples = st.lists(st.sampled_from([0, 30, 300, 3600, 86400]),
                      max_size=4).map(tuple)


@st.composite
def transactions(draw):
    """Unanswered, every rcode class, AAAA NoData, DO+RRSIG, empty TTL
    tuples, mixed v4+v6 answers, ANY."""
    answered = draw(st.booleans())
    answer_ttls = draw(ttl_tuples)
    return Transaction(
        ts=draw(st.floats(0, 50, allow_nan=False)),
        resolver_ip=draw(st.sampled_from(["10.0.0.1", "10.0.0.2",
                                          "2001:db8::53"])),
        server_ip=draw(st.sampled_from(["192.0.2.53", "192.0.2.54"])),
        source=draw(st.sampled_from(["src0", "src1"])),
        qname=draw(qnames),
        qtype=draw(st.sampled_from([QTYPE.A, QTYPE.AAAA, QTYPE.ANY,
                                    QTYPE.NS, QTYPE.TXT])),
        rcode=draw(st.sampled_from(list(RCODE))) if answered else None,
        answered=answered,
        edns_do=draw(st.booleans()),
        has_rrsig=draw(st.booleans()),
        delay_ms=draw(st.floats(0, 5000, allow_nan=False)),
        observed_ttl=draw(st.integers(0, 255)),
        response_size=draw(st.integers(0, 65535)),
        answer_count=len(answer_ttls),
        authority_ns_count=draw(st.integers(0, 2)),
        additional_count=draw(st.integers(0, 2)),
        answer_ttls=answer_ttls,
        ns_ttls=draw(ttl_tuples),
        answer_ips=tuple(draw(st.lists(addresses, max_size=3))),
    )


def frozen(features):
    """``to_buffers()`` with every buffer copied to bytes."""
    meta, buffers = features.to_buffers()
    return meta, [bytes(b) for b in buffers]


# -- (a) sharing a record changes nothing -------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(transactions(), st.integers(1, 7)),
                min_size=1, max_size=40))
def test_shared_record_equals_fresh_record_equals_observe(tagged):
    """Three FeatureSets, each admitting the transactions its bit of
    the mask selects (as trackers do): one shared record per
    transaction, a fresh record per update, and ``update(txn)`` with
    no record at all leave identical state and rows."""
    shared = [FeatureSet() for _ in range(3)]
    fresh = [FeatureSet() for _ in range(3)]
    bare = [FeatureSet() for _ in range(3)]
    for txn, mask in tagged:
        record = TxnHashes(txn)
        for bit in range(3):
            if mask >> bit & 1:
                shared[bit].update(txn, record)
                fresh[bit].update(txn, TxnHashes(txn))
                bare[bit].update(txn)
    for one, two, three in zip(shared, fresh, bare):
        assert frozen(one) == frozen(two) == frozen(three)
        assert one.as_row() == two.as_row() == three.as_row()


@settings(max_examples=25, deadline=None)
@given(st.lists(transactions(), min_size=1, max_size=40))
def test_observe_per_transaction_equals_consume_batch(txns):
    """``WindowManager.observe`` is ``consume_batch`` of one: feeding
    a stream one transaction at a time, or as one batch, leaves the
    same entries stateless (inserted inside the open window) and every
    other tracked object with identical feature state, and cuts the
    same windows, rows and ``#stats`` alike."""
    txns = sorted(txns, key=lambda t: t.ts)

    def manager():
        return WindowManager(
            [TopKTracker(make_dataset(name, 64), use_bloom_gate=False)
             for name in ("srvip", "qname", "qtype", "rcode", "aafqdn")],
            window_seconds=20)

    one_by_one, batched = manager(), manager()
    left_windows = []
    for txn in txns:
        left_windows.extend(one_by_one.observe(txn))
    right_windows = batched.consume_batch(txns)
    assert one_by_one.total_seen == batched.total_seen == len(txns)
    for left, right in zip(one_by_one.trackers, batched.trackers):
        assert (left.filtered, left.processed, left.unfolded) == \
            (right.filtered, right.processed, right.unfolded)
        assert [e.key for e in left.top()] == [e.key for e in right.top()]
        assert [e.key for e in left.top() if e.state is None] == \
            [e.key for e in right.top() if e.state is None]
        for entry in left.top():
            if entry.state is not None:
                assert frozen(entry.state) == \
                    frozen(right.cache.get(entry.key).state)
    left_windows.extend(one_by_one.flush())
    right_windows.extend(batched.flush())
    assert [(w.dataset, w.start_ts) for w in left_windows] == \
        [(w.dataset, w.start_ts) for w in right_windows]
    for left, right in zip(left_windows, right_windows):
        assert left.rows == right.rows and left.stats == right.stats


def test_consume_batch_chunks_a_long_segment():
    """A window segment longer than the chunk bound is walked in
    several chunks with the same outcome as transaction-at-a-time."""
    from repro.observatory import window

    txns = [make_txn(ts=i * 0.01, server_ip="192.0.2.%d" % (i % 7),
                     qname="h%d.example.com" % (i % 11))
            for i in range(2 * window._CHUNK + 5)]

    def manager():
        return WindowManager(
            [TopKTracker(make_dataset(name, 64), use_bloom_gate=False)
             for name in ("srvip", "qname")], window_seconds=60)

    one_by_one, batched = manager(), manager()
    for txn in txns:
        one_by_one.observe(txn)
    batched.consume_batch(txns)
    for left, right in zip(one_by_one.flush(), batched.flush()):
        assert left.rows == right.rows and left.stats == right.stats


def test_record_stays_lazy_until_used():
    """Construction hashes nothing: a transaction every tracker
    filters out pays for no derivation."""
    record = TxnHashes(make_txn())
    for name in ("server", "resolver", "qname", "qdots", "prepared"):
        with pytest.raises(AttributeError):
            object.__getattribute__(record, name)
    record.prepared
    for name in ("server", "resolver", "qname", "qdots", "prepared"):
        object.__getattribute__(record, name)


def test_failing_names_skip_the_noerror_facts(monkeypatch):
    """A name seen only unanswered or failing (a random subdomain
    attack's one-off names) costs no PSL lookup and leaves its memo
    entry's NoError part unset; its first NoError record fills it."""
    name = "x7f3q9.victim.example.com"

    def no_psl():
        raise AssertionError("PSL consulted for a failing name")

    monkeypatch.setattr(features, "default_psl", no_psl)
    for txn in (make_nxdomain(qname=name), make_txn(qname=name,
                                                    answered=False),
                make_txn(qname=name, rcode=RCODE.SERVFAIL,
                         answer_count=0, answer_ttls=(), answer_ips=())):
        assert TxnHashes(txn).prepared == reference_record(txn)[1]
    assert features._QNAMES[name][4] is None
    monkeypatch.undo()
    txn = make_txn(qname=name)
    prepared = TxnHashes(txn).prepared
    assert prepared == reference_record(txn)[1]
    assert features._QNAMES[name][4] == prepared[10][:4]


# -- (c) the memoized record equals a from-scratch derivation ----------

def reference_record(txn):
    """The record derived from scratch, as ``_prepare`` did before it
    kept memos: ``(server, resolver, qname, qdots), prepared``."""
    p = features.HLL_PRECISION
    server, resolver = hash64(txn.server_ip), hash64(txn.resolver_ip)
    qname = hash64(txn.qname)
    qdots = count_labels(txn.qname)
    slots = (server, resolver, qname, qdots)
    head = index_rank(derive64(server, 1), p) \
        + index_rank(derive64(resolver, 2), p) \
        + index_rank(derive64(qname, 3), p) + (txn.source, txn.qtype, qdots)
    if not txn.answered:
        return slots, head + (0, None, None)
    txn.check_domains()
    delay, size = txn.delay_ms, txn.response_size
    hops = infer_hops(txn.observed_ttl)
    answered = (txn.answer_count, txn.authority_ns_count, txn.answer_ttls,
                txn.ns_ttls, LogHistogram(min_value=0.05).bucket_index(delay),
                delay, LogHistogram(min_value=0.5).bucket_index(hops), hops,
                LogHistogram(min_value=1.0).bucket_index(size), size)
    response = {RCODE.NOERROR: 1, RCODE.NXDOMAIN: 2, RCODE.REFUSED: 3,
                RCODE.SERVFAIL: 4}.get(txn.rcode, 5)
    if response != 1:
        return slots, head + (response, None, answered)
    tld = default_psl().effective_tld(txn.qname)
    esld = default_psl().effective_sld(txn.qname)
    an, ns = txn.answer_count, txn.authority_ns_count
    nodata = an == 0 and ns == 0
    ips = ()
    if txn.qtype in (QTYPE.A, QTYPE.AAAA, QTYPE.ANY):
        ips = tuple((True,) + index_rank(hash64(a, 8), p) if ":" in a
                    else (False,) + index_rank(hash64(a, 7), p)
                    for a in txn.answer_ips)
    aaaa = txn.qtype == QTYPE.AAAA
    noerror = index_rank(derive64(qname, 4), p) + (
        index_rank(hash64(tld, 5), p) if tld else None,
        index_rank(hash64(esld, 6), p) if esld else None,
        an > 0, ns > 0, txn.additional_count > 0, nodata, aaaa,
        nodata and aaaa, txn.edns_do and txn.has_rrsig and (an > 0 or ns > 0),
        ips)
    return slots, head + (1, noerror, answered)


@st.composite
def hostile_transactions(draw):
    """:func:`transactions` with the hostile names and addresses in
    every string the record memoizes."""
    txn = draw(transactions())
    txn.server_ip = draw(addresses)
    txn.resolver_ip = draw(addresses)
    return txn


@pytest.mark.parametrize("limit", [None, 2])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(hostile_transactions(), min_size=1, max_size=30))
def test_memoized_record_equals_reference(limit, txns):
    """``prepared`` and the four hash slots equal the from-scratch
    derivation, on memo hits and misses alike; at a cap of 2 entries
    the memos are cleared wholesale over and over, which changes
    nothing either."""
    saved = features.RECORD_MEMO_LIMIT
    if limit is not None:
        tuned(features, RECORD_MEMO_LIMIT=limit)
        # start from empty memos: entries of earlier examples would
        # turn every lookup into a hit
        for cache in (features._SERVERS, features._RESOLVERS,
                      features._QNAMES, features._ADDRESSES):
            cache.clear()
    clears = memo.CLEARS["record"]
    try:
        for txn in txns + txns:  # every string a second time: memo hits
            slots, prepared = reference_record(txn)
            record = TxnHashes(txn)
            assert record.prepared == prepared
            assert tuple(object.__getattribute__(record, name)
                         for name in ("server", "resolver", "qname",
                                      "qdots")) == slots
            lazy = TxnHashes(txn)
            assert (lazy.server, lazy.resolver, lazy.qname, lazy.qdots) \
                == slots
        if limit is not None and len({t.qname for t in txns}) > limit:
            # a third distinct name always meets a full memo
            assert memo.CLEARS["record"] > clears
    finally:
        features.RECORD_MEMO_LIMIT = saved


# -- the sketch methods the record relies on ----------------------------

def test_add_indexed_equals_add_hash_and_add():
    """Raising register ``index`` to ``rank`` for each
    :func:`index_rank` pair -- the bump ``FeatureSet.update`` writes
    out inline -- leaves the registers ``add_hash`` leaves."""
    for precision in (4, 8, 14):
        by_hash = HyperLogLog(precision, seed=3)
        by_pair = bytearray(1 << precision)
        for h in (0, 1, (1 << 64) - 1, 1 << 63, 0x9E3779B97F4A7C15,
                  *(i * 0x0123456789ABCDEF & (1 << 64) - 1
                    for i in range(500))):
            by_hash.add_hash(h)
            index, rank = index_rank(h, precision)
            if rank > by_pair[index]:
                by_pair[index] = rank
        assert by_hash._registers == by_pair
    plain, indexed = LogHistogram(min_value=0.05), LogHistogram(min_value=0.05)
    for value in (0, 0.0, 0.05, 0.051, 1, 7.5, 120, 1e9):
        plain.add(value)
        indexed.add_indexed(indexed.bucket_index(value), value)
    assert plain.to_buffers() == indexed.to_buffers()


# -- bugfix: out-of-domain numeric fields -------------------------------

BAD_FIELDS = [
    ("delay_ms", -1.0), ("delay_ms", math.nan), ("delay_ms", math.inf),
    ("observed_ttl", -1), ("observed_ttl", 256), ("response_size", -1),
]


@pytest.mark.parametrize("field, value", BAD_FIELDS)
def test_bad_transaction_changes_no_state(field, value):
    """Good, bad, good leaves exactly two hits: the bad transaction
    raises before the FeatureSet is touched (update used to die after
    ``hits``, ``_sources`` and three HLLs were already bumped)."""
    features = FeatureSet()
    features.update(make_txn(ts=0.0))
    before = frozen(features)
    with pytest.raises(ValueError, match=field):
        features.update(make_txn(ts=1.0, qname="bad.example.org",
                                 **{field: value}))
    assert frozen(features) == before
    features.update(make_txn(ts=2.0))
    assert features.hits == 2
    assert features.resp_delays.count == 2


@pytest.mark.parametrize("field, value", BAD_FIELDS + [("ts", math.nan)])
def test_from_line_rejects_out_of_domain_field(field, value):
    fields = make_txn().to_line().split("\t")
    position = {"ts": 0, "delay_ms": 9, "observed_ttl": 10,
                "response_size": 11}[field]
    fields[position] = repr(value)
    with pytest.raises(ValueError, match=field):
        Transaction.from_line("\t".join(fields))


# -- (b) the pinned golden ----------------------------------------------

#: sha256 of the TSV tree below, computed on the commit *before* the
#: prepared record existed (9bf6244) -- an oracle for this and later
#: hot-path changes that is not a second implementation
GOLDEN_TREE_SHA256 = (
    "a6cf0fea6bd7c81e73088f7e16fa69aa12039ee0f8ece7752073c7fe174cb6c9")
LEDGER_DATASETS = ("srvip", "qname", "esld", "qtype", "rcode", "aafqdn")


def replay_tree_digest(out):
    """A fixed-seed three-window single-process replay (the ledger's
    six datasets, detectors and telemetry on) into *out*; sha256 over
    the sorted ``name, bytes`` of every file but ``_platform*``
    (whose rows carry wall-clock timings)."""
    scenario = Scenario.tiny(seed=2019, duration=170.0, client_qps=30.0,
                             encrypted_fraction=0.1)
    obs = Observatory(datasets=[(name, 2000) for name in LEDGER_DATASETS],
                      output_dir=out, window_seconds=60.0, telemetry=True,
                      detectors=True, encrypted=True)
    obs.consume(SieChannel(scenario).run())
    obs.finish()
    digest = hashlib.sha256()
    names = sorted(n for n in os.listdir(out)
                   if not n.startswith("_platform"))
    for name in names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return len(names), digest.hexdigest()


def test_replay_tree_matches_pinned_golden(tmp_path):
    files, digest = replay_tree_digest(str(tmp_path))
    assert files == 15
    assert digest == GOLDEN_TREE_SHA256
