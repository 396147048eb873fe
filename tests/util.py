"""Shared test helpers: compact transaction factories."""

from repro.dnswire.constants import QTYPE, RCODE
from repro.observatory.transaction import Transaction


def make_txn(ts=0.0, resolver_ip="10.0.0.1", server_ip="192.0.2.53",
             qname="www.example.com", qtype=QTYPE.A, rcode=RCODE.NOERROR,
             answered=True, aa=False, answer_count=1, authority_ns_count=0,
             additional_count=0, answer_ttls=(300,), ns_ttls=(),
             answer_ips=("198.51.100.1",), delay_ms=20.0, observed_ttl=57,
             response_size=120, edns_do=False, has_rrsig=False,
             source="src0", tc=False, cname_targets=()):
    """Build a plausible NoError A-record transaction; override freely."""
    if not answered:
        rcode = None
    if rcode == RCODE.NXDOMAIN or (rcode == RCODE.NOERROR and answer_count == 0):
        answer_ttls = answer_ttls if answer_count else ()
        answer_ips = answer_ips if answer_count else ()
    return Transaction(
        ts=ts, resolver_ip=resolver_ip, server_ip=server_ip, qname=qname,
        qtype=qtype, rcode=rcode, answered=answered, aa=aa, tc=tc,
        edns_do=edns_do, has_rrsig=has_rrsig, delay_ms=delay_ms,
        observed_ttl=observed_ttl, response_size=response_size,
        answer_count=answer_count, authority_ns_count=authority_ns_count,
        additional_count=additional_count, answer_ttls=answer_ttls,
        ns_ttls=ns_ttls, answer_ips=answer_ips,
        cname_targets=cname_targets, source=source,
    )


def make_nodata(ts=0.0, qname="ipv4only.example.com", qtype=QTYPE.AAAA, **kw):
    """A NoData (empty NoError) response, e.g. AAAA for an IPv4-only name."""
    kw.setdefault("answer_count", 0)
    kw.setdefault("authority_ns_count", 0)
    kw.setdefault("answer_ttls", ())
    kw.setdefault("answer_ips", ())
    return make_txn(ts=ts, qname=qname, qtype=qtype, **kw)


def make_nxdomain(ts=0.0, qname="nope.example.com", **kw):
    """An NXDOMAIN response."""
    kw.setdefault("answer_count", 0)
    kw.setdefault("answer_ttls", ())
    kw.setdefault("answer_ips", ())
    return make_txn(ts=ts, qname=qname, rcode=RCODE.NXDOMAIN, **kw)


def run_scenario(scenario):
    """Run the full scenario: ``(channel, transactions)``."""
    from repro.simulation.sie import SieChannel

    channel = SieChannel(scenario)
    return channel, list(channel.run())
