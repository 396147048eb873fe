"""Caching recursive resolvers with iterative resolution.

Each resolver is one vantage point: it serves client queries from its
caches and, on a miss, walks the delegation tree -- root, TLD, SLD --
emitting one upstream transaction per authoritative query.  Those
transactions are exactly what the SIE sensor above the resolver
captures (Section 2.1).

QNAME minimization (Section 3.6): a qmin-enabled resolver sends only
as many QNAME labels as the queried zone needs (``com`` to the root,
``example.com`` to the TLD, RFC 7816, using NS-type probe queries),
while a conventional resolver leaks the full QNAME everywhere -- the
behavioural difference Table 3 detects.
"""

from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.name import last_labels, split_labels
from repro.simulation.resolvercache import (
    NEG_NODATA,
    NEG_NXDOMAIN,
    NegativeCache,
    TtlCache,
)

_MAX_RETRIES = 2


class ResolveResult:
    """Outcome of one client query as seen below the resolver."""

    __slots__ = ("status", "from_cache", "transactions")

    def __init__(self, status, from_cache, transactions):
        #: "data" | "nodata" | "nxdomain" | "servfail"
        self.status = status
        #: True when no upstream traffic was needed
        self.from_cache = from_cache
        #: upstream transactions emitted for this query
        self.transactions = transactions


class RecursiveResolver:
    """One recursive resolver vantage point."""

    def __init__(self, ip, global_dns, service, hub, source="src0",
                 qmin=False, dnssec_ok=True, cache_size=200_000,
                 prefetch=False, prefetch_window=15.0):
        self.ip = ip
        self.global_dns = global_dns
        self.service = service
        self.source = source
        #: QNAME minimization enabled (RFC 7816)
        self.qmin = qmin
        #: sets the EDNS0 DO bit on queries
        self.dnssec_ok = dnssec_ok
        #: optional clamp on negative-caching TTLs (some resolvers do
        #: not respect high negative TTLs -- the Figure 9 rank-140 case)
        self.neg_ttl_cap = None
        #: refresh popular entries shortly before expiry ("query
        #: prefetching", one of the §5.1 traffic factors)
        self.prefetch = prefetch
        self.prefetch_window = float(prefetch_window)
        #: upstream refreshes triggered by prefetching
        self.prefetches = 0
        #: the resolver's own IPv6 address, when it can query
        #: dual-stack nameservers over v6 (None = v4-only transport)
        self.ipv6_addr = None
        #: upstream channel transport: ``"plain"`` (UDP/53, sensors
        #: see full payloads) or ``"doh"``/``"dot"`` (the sensor above
        #: this resolver captures only size/timing observations)
        self.transport = "plain"
        self._rng = hub.fork("resolver:%s" % ip)
        self.rrcache = TtlCache(cache_size)
        self.negcache = NegativeCache(cache_size)
        #: zone apex -> (expire_ts, zone object) delegation cache
        self._delegations = TtlCache(cache_size)
        #: client-facing accounting
        self.client_queries = 0
        self.cache_answers = 0

    # ------------------------------------------------------------------

    def resolve(self, qname, qtype, now, emit):
        """Resolve (qname, qtype) at time *now*.

        *emit* is called with every upstream transaction (the sensor
        hook).  Returns a :class:`ResolveResult`.
        """
        self.client_queries += 1
        qname = qname.lower().rstrip(".")
        qtype = int(qtype)

        cached = self.rrcache.get((qname, qtype), now)
        if cached is not None:
            self.cache_answers += 1
            if not (self.prefetch and
                    self.rrcache.remaining_ttl((qname, qtype), now)
                    <= self.prefetch_window):
                return ResolveResult("data", True, [])
            # Prefetch: the client is served from cache, but the entry
            # is about to expire -- refresh it upstream now.
            self.prefetches += 1
            self.rrcache.invalidate((qname, qtype))
        neg = self.negcache.get(qname, qtype, now)
        if neg is not None:
            self.cache_answers += 1
            status = "nxdomain" if neg == NEG_NXDOMAIN else "nodata"
            return ResolveResult(status, True, [])

        transactions = []
        clock = now

        def ask(zone, nameservers, send_qname, send_qtype):
            """Query the zone, retrying across its nameservers."""
            nonlocal clock
            candidates = list(nameservers)
            self._rng.shuffle(candidates)
            for ns in candidates[:_MAX_RETRIES + 1]:
                txn, answer = self.service.serve(
                    self, ns, zone, send_qname, send_qtype, clock)
                transactions.append(txn)
                emit(txn)
                if answer is not None:
                    clock += txn.delay_ms / 1000.0
                    return answer
                clock += 0.4  # timeout before retrying elsewhere
            return None

        # --- find the deepest cached delegation --------------------------
        labels = split_labels(qname)
        sld_zone = None
        for i in range(len(labels) - 1):
            candidate = ".".join(labels[i:])
            zone = self._delegations.get(("sld", candidate), now)
            if zone is not None:
                sld_zone = zone
                break

        root = self.global_dns.root
        if sld_zone is None:
            tld_name = labels[-1] if labels else ""
            tld_zone = self._delegations.get(("tld", tld_name), now)
            if tld_zone is None:
                # --- query the root ---------------------------------
                send = last_labels(qname, 1) if self.qmin else qname
                send_qtype = QTYPE.NS if self.qmin else qtype
                answer = ask(root, root.nameservers, send, send_qtype)
                if answer is None:
                    return ResolveResult("servfail", False, transactions)
                if answer.rcode == RCODE.NXDOMAIN:
                    self.negcache.put_nxdomain(
                        qname, answer.soa_negttl or root.SOA_NEGTTL, now)
                    return ResolveResult("nxdomain", False, transactions)
                tld_zone = root.tlds.get(tld_name)
                if tld_zone is None:
                    return ResolveResult("servfail", False, transactions)
                self._delegations.put(("tld", tld_name), tld_zone,
                                      answer.ns_ttl, now)
            # --- query the TLD servers ------------------------------
            send = self._minimized_for_tld(qname, tld_zone) \
                if self.qmin else qname
            send_qtype = QTYPE.NS if self.qmin and send != qname else qtype
            answer = ask(tld_zone, tld_zone.nameservers, send, send_qtype)
            if answer is None:
                return ResolveResult("servfail", False, transactions)
            if answer.rcode == RCODE.NXDOMAIN:
                self.negcache.put_nxdomain(
                    qname, answer.soa_negttl or tld_zone.soa_negttl, now)
                return ResolveResult("nxdomain", False, transactions)
            sld_zone = tld_zone.delegation_for(qname)
            if sld_zone is None:
                # TLD apex query or registry-internal name: treat the
                # TLD answer as terminal NoData.
                self.negcache.put_nodata(qname, qtype,
                                         tld_zone.soa_negttl, now)
                return ResolveResult("nodata", False, transactions)
            self._delegations.put(("sld", sld_zone.name), sld_zone,
                                  answer.ns_ttl, now)

        # --- query the SLD authoritative servers ---------------------
        answer = ask(sld_zone, sld_zone.nameservers, qname, qtype)
        if answer is None:
            return ResolveResult("servfail", False, transactions)
        if answer.rcode == RCODE.NXDOMAIN:
            self.negcache.put_nxdomain(
                qname, self._neg_ttl(answer.soa_negttl), now)
            return ResolveResult("nxdomain", False, transactions)
        if answer.records:
            ttl = min(ttl for _, ttl, _ in answer.records)
            self.rrcache.put((qname, qtype), answer.answer_ips or True,
                             ttl, now)
            return ResolveResult("data", False, transactions)
        # NoData: cache negatively for the SOA minimum.
        self.negcache.put_nodata(
            qname, qtype, self._neg_ttl(answer.soa_negttl or 0), now)
        return ResolveResult("nodata", False, transactions)

    def _neg_ttl(self, negttl):
        """Apply the resolver's negative-TTL clamp, if configured."""
        if self.neg_ttl_cap is not None:
            return min(negttl, self.neg_ttl_cap)
        return negttl

    # ------------------------------------------------------------------

    @staticmethod
    def _minimized_for_tld(qname, tld_zone):
        """The QNAME a qmin resolver sends to a TLD server: one label
        below the zone cut, i.e. usually 2 labels (example.com), or 3
        for registry suffixes hosted in the TLD zone (bbc.co.uk -> the
        Table 3 whitelist case)."""
        labels = split_labels(qname)
        depth = 2
        for suffix in tld_zone.registry_suffixes:
            if qname == suffix or qname.endswith("." + suffix):
                depth = len(split_labels(suffix)) + 1
                break
        return ".".join(labels[-depth:]) if len(labels) >= depth else qname

    def __repr__(self):
        return "RecursiveResolver(%s, qmin=%s)" % (self.ip, self.qmin)
