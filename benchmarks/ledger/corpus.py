"""Seeded inputs: the transaction corpus, its wire and line renderings
and the fixed query list.  The program under test only ever sees the
files and requests made here, never the seed.
"""

import random
import time

from repro.dnswire.constants import FLAGS, QTYPE
from repro.dnswire.edns import make_opt
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.rdata import AAAA, CNAME, NS, RRSIG, TXT, A
from repro.netsim.addr import is_ipv6
from repro.netsim.packet import build_udp_ipv4, build_udp_ipv6
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel

#: main corpus: ~17 k transactions over 120 s, two full 60 s windows.
#: ISSUE 15 asked for 300 s; under the driver's time cap (92 runs in
#: 3420 s) several short passes repeat better than two long ones,
#: because a pass has to fit between the box's slow bursts to count
MAIN = dict(duration=120.0, client_qps=150.0)
#: live corpus: ~590 txn/s of stream time; its length is
#: ``workloads.LIVE_SECONDS`` of wall time
LIVE_QPS = 800.0
#: share of extra, undecodable responses rendered into the wire corpus
TRUNCATED_SHARE = 0.005


def scenario(seed, duration, client_qps):
    """The ledger's scenario (parameters copied from
    ``benchmarks/conftest.py``, which cannot be imported without
    pytest)."""
    return Scenario(
        seed=seed, duration=duration, client_qps=client_qps,
        n_resolvers=48, n_contributors=10, n_tlds=80, n_slds=1200,
        fqdns_per_sld=4, popular_fqdns=1500,
        qmin_resolver_fraction=0.05)


def generate(seed, duration, client_qps):
    """Run the simulator; returns ``(transactions, seconds_taken)``."""
    started = time.perf_counter()
    txns = list(SieChannel(scenario(seed, duration, client_qps)).run())
    return txns, time.perf_counter() - started


def write_lines(txns, path):
    with open(path, "w", encoding="utf-8") as fh:
        for txn in txns:
            fh.write(txn.to_line())
            fh.write("\n")


# -- wire rendering ------------------------------------------------------


def _response_message(txn, query):
    """A DNS response that summarizes back to *txn*'s DNS facts: one
    answer record per ``answer_ttls`` entry (CNAME chain first, then
    the addresses, the rest as NS or TXT), one authority NS per
    ``ns_ttls`` entry, ``additional_count`` glue records."""
    response = Message.make_response(query, rcode=txn.rcode,
                                     authoritative=txn.aa)
    if txn.tc:
        response.set_flag(FLAGS.TC)
    names = list(txn.ns_names)
    rdatas = [CNAME(target) for target in txn.cname_targets]
    rdatas += [AAAA(ip) if is_ipv6(ip) else A(ip) for ip in txn.answer_ips]
    owner = txn.qname
    for index, ttl in enumerate(txn.answer_ttls):
        if index < len(rdatas):
            rdata = rdatas[index]
        elif txn.qtype == QTYPE.NS and names:
            rdata = NS(names.pop(0))
        else:
            rdata = TXT("v=ledger")
        response.answer.append(
            ResourceRecord(owner, rdata.rtype, ttl, rdata))
        if isinstance(rdata, CNAME):
            owner = rdata.target
    apex = txn.qname.split(".", 1)[-1] if "." in txn.qname else txn.qname
    for index, ttl in enumerate(txn.ns_ttls):
        host = names.pop(0) if names else "ns%d.%s" % (index, apex)
        response.authority.append(
            ResourceRecord(apex, QTYPE.NS, ttl, NS(host)))
    for index in range(txn.additional_count):
        response.additional.append(ResourceRecord(
            "ns%d.%s" % (index, apex), QTYPE.A, 3600, A("192.0.2.53")))
    if txn.has_rrsig:
        section = response.answer if response.answer \
            else response.authority
        section.append(ResourceRecord(
            txn.qname, QTYPE.RRSIG, 3600,
            RRSIG(type_covered=txn.qtype, signer=apex)))
    if txn.edns_do:
        response.additional.append(make_opt(dnssec_ok=True))
    return response


def render_packets(txn, msg_id):
    """One transaction as ``(query_packet, response_packet|None,
    query_ts, response_ts)`` -- the record ``summarize_batch`` takes."""
    build = build_udp_ipv6 if is_ipv6(txn.server_ip) else build_udp_ipv4
    query = Message.make_query(txn.qname, txn.qtype, msg_id=msg_id)
    if txn.edns_do:
        query.additional.append(make_opt(dnssec_ok=True))
    qpkt = build(txn.resolver_ip, txn.server_ip, 30000, 53,
                 query.to_wire(), 64)
    if not txn.answered:
        return qpkt, None, txn.ts, None
    payload = _response_message(txn, query).to_wire()
    rpkt = build(txn.server_ip, txn.resolver_ip, 53, 30000, payload,
                 txn.observed_ttl)
    return qpkt, rpkt, txn.ts, txn.ts + txn.delay_ms / 1000.0


def render_wire_corpus(txns, seed):
    """Every transaction as a wire record, plus
    :data:`TRUNCATED_SHARE` extra records whose response is cut short
    (valid IP/UDP framing, undecodable DNS payload) which
    ``summarize_batch`` must skip.  Returns ``(records, injected)``."""
    rng = random.Random(seed ^ 0x5EED)
    records = []
    injected = 0
    for index, txn in enumerate(txns):
        record = render_packets(txn, index & 0xFFFF)
        records.append(record)
        if record[1] is not None and rng.random() < TRUNCATED_SHARE:
            build = build_udp_ipv6 if is_ipv6(txn.server_ip) \
                else build_udp_ipv4
            payload = _response_message(
                txn, Message.make_query(txn.qname, txn.qtype,
                                        msg_id=index & 0xFFFF)).to_wire()
            cut = build(txn.server_ip, txn.resolver_ip, 53, 30000,
                        payload[:max(13, len(payload) // 2)],
                        txn.observed_ttl)
            records.append((record[0], cut, record[2], record[3]))
            injected += 1
    return records, injected


def dns_facts(txn):
    """The fields the wire check compares, as one line."""
    return "%s\t%d\t%s\t%d\t%s\t%s" % (
        txn.qname, txn.qtype, txn.rcode, txn.answer_count,
        ",".join(map(str, txn.answer_ttls)),
        ",".join(map(str, txn.ns_ttls)))


# -- query list ----------------------------------------------------------

def query_list(seed, count, keys, window, first_ts, last_ts,
               range_windows=20, page_windows=3):
    """A fixed list of *count* distinct request paths over a tree.

    55 % ``/topk`` over *range_windows*-window ranges, 25 % ``/key``
    with Zipf-distributed keys from *keys*, 12 % ``/series`` pages of
    *page_windows* windows, the rest unranged ``/topk``, ``/datasets``
    and ``/platform/health`` in turn.  Nothing about how much work the
    list holds is left to a draw: the shares are exact counts, datasets
    rotate, range starts are spread evenly over the tree and key ranks
    are the quantiles of the Zipf distribution (rank 1 most often), so
    two seeds' lists cost the same up to what their corpora differ in.
    The seed picks where the even spread begins and the order of the
    list.  Ranged requests never repeat (a second use of the same
    request gets another ``n=``/``limit=``).  Returns ``[(kind,
    path)]``; the same seed and tree give the same list.
    """
    rng = random.Random(seed ^ 0xA11CE)
    datasets = ("srvip", "qname", "esld", "qtype", "rcode", "aafqdn")
    keyed = sorted(keys)
    slots = int((last_ts - first_ts) / window) + 1
    used = {}

    def starts(n, span):
        """*n* range starts, evenly spread over the places a *span*-
        window range fits, from a seeded first place."""
        places = max(1, slots - span + 1)
        first = rng.randrange(places)
        return [first_ts + window * ((first + i * places // n) % places)
                for i in range(n)]

    def zipf_ranks(n, size):
        """The ranks at the *n* mid-quantiles of Zipf(1) over *size*."""
        weights = [1.0 / (rank + 1) for rank in range(size)]
        total = sum(weights)
        ranks, rank, below = [], 0, weights[0]
        for i in range(n):
            while below < (i + 0.5) / n * total:
                rank += 1
                below += weights[rank]
            ranks.append(rank)
        return ranks

    def distinct(template, default):
        """Vary the size parameter on a repeated use."""
        repeat = used[template] = used.get(template, -1) + 1
        return template % (default + repeat)

    n_topk = round(count * 0.55)
    n_key = round(count * 0.25) if keyed else 0
    n_series = round(count * 0.12)
    out = []
    for i, start in enumerate(starts(n_topk, range_windows)):
        out.append(("topk", distinct(
            "/topk/%s?n=%%d&start=%d&end=%d" % (
                datasets[i % 6], start, start + range_windows * window),
            10)))
    for turn, ds in enumerate(keyed):
        share = len(range(turn, n_key, len(keyed)))
        for rank in zipf_ranks(share, len(keys[ds])):
            out.append(("key", distinct(
                "/key/%s/%s?limit=%%d" % (ds, keys[ds][rank]), 1000)))
    for i, start in enumerate(starts(n_series, page_windows)):
        out.append(("series", distinct(
            "/series/%s?limit=%%d&start=%d&end=%d" % (
                datasets[i % 6], start, start + page_windows * window),
            1000)))
    for i in range(count - len(out)):
        out.append(("light", ("/topk/%s" % datasets[i // 3 % 6],
                              "/datasets", "/platform/health")[i % 3]))
    rng.shuffle(out)
    return out
