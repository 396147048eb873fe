"""Authoritative service: turn zone answers into observed transactions.

Given (resolver, nameserver, zone, question), this module produces the
:class:`~repro.observatory.transaction.Transaction` a passive sensor
above the resolver would record: response delay sampled from the
resolver-nameserver path profile, the on-wire IP TTL implied by the
path's hop count, loss (unanswered queries), and the DNS payload
summary derived from the zone's :class:`~repro.simulation.zones.Answer`.

Two paths exist:

* the **fast path** constructs the Transaction directly (used for the
  bulk of simulated traffic);
* the **wire path** (`wire_check_fraction` > 0, or tests) additionally
  renders the real DNS messages, wraps them in IPv4/UDP packets, and
  runs them through :func:`repro.observatory.preprocess.summarize_transaction`
  -- proving the whole §2.1 parser agrees with the fast path.
"""

from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.edns import make_opt
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.rdata import AAAA, CNAME, MX, NS, PTR, RRSIG, SOA, TXT, A, Rdata
from repro.netsim.hops import ttl_after_path
from repro.netsim.latency import DelayModel
from repro.observatory.preprocess import summarize_transaction
from repro.observatory.transaction import Transaction


class AuthoritativeService:
    """Samples transactions for queries against the simulated zones."""

    def __init__(self, topology, hub, unanswered_rate, wire_check_fraction):
        self.topology = topology
        self._rng = hub.stream("authoritative")
        self.delay_model = DelayModel()
        self.unanswered_rate = float(unanswered_rate)
        self.wire_check_fraction = float(wire_check_fraction)
        #: count of wire-path verifications performed
        self.wire_checks = 0

    def serve(self, resolver, ns, zone, qname, qtype, now):
        """Serve one query; returns ``(transaction, answer_or_None)``.

        *answer* is None when the query went unanswered (timeout).
        """
        rng = self._rng
        # Transport selection: a v6-capable resolver reaches dual-stack
        # nameservers over IPv6 about half the time; the srvip dataset
        # then sees both address families (§3.1).
        use_v6 = (resolver.ipv6_addr is not None and ns.ipv6 is not None
                  and rng.random() < 0.5)
        resolver_ip = resolver.ipv6_addr if use_v6 else resolver.ip
        server_ip = ns.ipv6 if use_v6 else ns.ip
        loss = self.unanswered_rate
        if loss and rng.random() < loss:
            txn = Transaction(
                ts=now, resolver_ip=resolver_ip, server_ip=server_ip,
                qname=qname, qtype=qtype, rcode=None, answered=False,
                edns_do=resolver.dnssec_ok, source=resolver.source,
            )
            return txn, None

        answer = zone.answer(qname, qtype)
        profile = self.topology.path_profile(resolver.ip, ns)
        delay_ms = self.delay_model.sample_ms(profile, rng)
        observed_ttl = ttl_after_path(profile.initial_ttl, profile.hops)
        signed = answer.signed and resolver.dnssec_ok

        answer_ttls = tuple(ttl for _, ttl, _ in answer.records)
        answer_ips = answer.answer_ips
        has_data = bool(answer.records)
        ns_count = len(answer.referral_ns)
        ns_ttls = (answer.ns_ttl,) * ns_count
        # Referrals carry glue addresses in ADDITIONAL (roughly one per
        # NS); authoritative data answers usually carry none.
        additional = ns_count if answer.is_referral else 0

        txn = Transaction(
            ts=now,
            resolver_ip=resolver_ip,
            server_ip=server_ip,
            qname=qname,
            qtype=qtype,
            rcode=answer.rcode,
            answered=True,
            aa=answer.aa,
            edns_do=resolver.dnssec_ok,
            has_rrsig=signed and (has_data or ns_count > 0),
            delay_ms=delay_ms,
            observed_ttl=observed_ttl,
            response_size=answer.estimated_size(qname),
            answer_count=len(answer.records),
            authority_ns_count=ns_count,
            additional_count=additional,
            answer_ttls=answer_ttls,
            ns_ttls=ns_ttls,
            answer_ips=answer_ips,
            cname_targets=answer.cname_targets,
            ns_names=answer.referral_ns + tuple(
                value for rec_qtype, _, value in answer.records
                if rec_qtype == QTYPE.NS),
            source=resolver.source,
        )
        if self.wire_check_fraction and rng.random() < self.wire_check_fraction:
            txn = self._wire_roundtrip(txn, resolver, ns, resolver_ip,
                                       server_ip, qname, qtype, answer,
                                       now, delay_ms)
        return txn, answer

    # ------------------------------------------------------------------

    def _wire_roundtrip(self, txn, resolver, ns, resolver_ip, server_ip,
                        qname, qtype, answer, now, delay_ms):
        """Render real packets and re-derive the transaction from them."""
        from repro.netsim.addr import is_ipv6
        from repro.netsim.packet import build_udp_ipv4, build_udp_ipv6

        build = build_udp_ipv6 if is_ipv6(server_ip) else build_udp_ipv4
        msg_id = self._rng.randrange(0x10000)
        query = Message.make_query(qname, qtype, msg_id=msg_id)
        if resolver.dnssec_ok:
            query.additional.append(make_opt(dnssec_ok=True))
        response = _answer_to_message(query, answer, qname, qtype)
        qpkt = build(resolver_ip, server_ip, 30000, 53,
                     query.to_wire(), 64)
        profile = self.topology.path_profile(resolver.ip, ns)
        rpkt = build(
            server_ip, resolver_ip, 53, 30000, response.to_wire(),
            ttl_after_path(profile.initial_ttl, profile.hops),
        )
        wire_txn = summarize_transaction(
            qpkt, rpkt, now, now + delay_ms / 1000.0, source=resolver.source)
        self.wire_checks += 1
        # The wire path must agree with the fast path on the DNS facts.
        assert wire_txn.rcode == txn.rcode
        assert wire_txn.qname == txn.qname
        assert wire_txn.answer_count == txn.answer_count
        assert wire_txn.authority_ns_count == txn.authority_ns_count
        assert wire_txn.answer_ttls == txn.answer_ttls
        return wire_txn


def _rdata_for(qtype, value):
    qtype = int(qtype)
    if qtype == QTYPE.A:
        return A(value)
    if qtype == QTYPE.AAAA:
        return AAAA(value)
    if qtype == QTYPE.CNAME:
        return CNAME(value)
    if qtype == QTYPE.NS:
        return NS(value)
    if qtype == QTYPE.PTR:
        return PTR(value)
    if qtype == QTYPE.MX:
        return MX(10, value)
    if qtype == QTYPE.TXT:
        return TXT(str(value))
    if qtype == QTYPE.SOA:
        return SOA(str(value), "hostmaster.%s" % value)
    if qtype == QTYPE.SRV:
        from repro.dnswire.rdata import SRV

        return SRV(0, 5, 5060, str(value))
    if qtype == QTYPE.DS:
        from repro.dnswire.rdata import DS

        return DS(12345, 8, 2, str(value).encode("utf-8")[:32])
    return Rdata(str(value).encode("utf-8"))


def _answer_to_message(query, answer, qname, qtype):
    """Render a zone :class:`Answer` as a real DNS message."""
    response = Message.make_response(query, rcode=answer.rcode,
                                     authoritative=answer.aa)
    owner = qname
    for rec_qtype, ttl, value in answer.records:
        response.answer.append(
            ResourceRecord(owner, rec_qtype, ttl, _rdata_for(rec_qtype, value)))
        if rec_qtype == QTYPE.CNAME:
            owner = value  # chain continues at the target
    zone_apex = qname.split(".", 1)[-1] if "." in qname else qname
    for hostname in answer.referral_ns:
        response.authority.append(
            ResourceRecord(zone_apex, QTYPE.NS, answer.ns_ttl, NS(hostname)))
    if answer.soa_negttl is not None:
        response.authority.append(ResourceRecord(
            zone_apex, QTYPE.SOA, answer.soa_negttl,
            SOA("ns1.%s" % zone_apex, "hostmaster.%s" % zone_apex,
                minimum=answer.soa_negttl)))
    if answer.signed and answer.records:
        response.answer.append(ResourceRecord(
            qname, QTYPE.RRSIG, answer.records[0][1],
            RRSIG(type_covered=int(qtype), signer=zone_apex)))
    return response
