"""Scenario configuration: every knob of the simulated DNS.

A :class:`Scenario` fully determines a simulation run (together with
its seed).  Presets scale from :meth:`Scenario.tiny` (unit tests,
<10 k transactions) through :meth:`Scenario.small` to
:meth:`Scenario.medium` (benchmark harness).

Scripted infrastructure events drive the Section 4 and 5 experiments:
TTL changes (Figure 7/8), renumbering and NS changes (Table 4), and
IPv6 activation (Section 5.3).
"""


class TtlChange:
    """At time *at*, change the TTL of *name*'s records of *rtype*."""

    def __init__(self, at, name, new_ttl, rtype="A"):
        self.at = float(at)
        self.name = name.lower().rstrip(".")
        self.new_ttl = int(new_ttl)
        self.rtype = rtype

    def __repr__(self):
        return "TtlChange(%.0fs, %s %s -> %d)" % (
            self.at, self.name, self.rtype, self.new_ttl)


class Renumber:
    """At time *at*, change *fqdn*'s A records to *new_ips*
    (optionally also its TTL -- the ns2.oh-isp.com case of Table 4)."""

    def __init__(self, at, fqdn, new_ips, new_ttl=None):
        self.at = float(at)
        self.fqdn = fqdn.lower().rstrip(".")
        self.new_ips = tuple(new_ips)
        self.new_ttl = None if new_ttl is None else int(new_ttl)

    def __repr__(self):
        return "Renumber(%.0fs, %s)" % (self.at, self.fqdn)


class NsChange:
    """At time *at*, repoint *sld*'s delegation to new nameservers
    (hostnames resolved within the simulation; Table 4 "Change NS")."""

    def __init__(self, at, sld, new_ns_org, new_ttl=None):
        self.at = float(at)
        self.sld = sld.lower().rstrip(".")
        #: organization that will host the new nameservers
        self.new_ns_org = new_ns_org
        self.new_ttl = None if new_ttl is None else int(new_ttl)

    def __repr__(self):
        return "NsChange(%.0fs, %s -> %s)" % (self.at, self.sld, self.new_ns_org)


class EnableIpv6:
    """At time *at*, publish AAAA records for *fqdn* (Section 5.3)."""

    def __init__(self, at, fqdn):
        self.at = float(at)
        self.fqdn = fqdn.lower().rstrip(".")

    def __repr__(self):
        return "EnableIpv6(%.0fs, %s)" % (self.at, self.fqdn)


class JunkSurge:
    """From time *at* on, *qps* of junk queries hit *sld*: random
    nonexistent subdomains (PRSD-style), all answered NXDOMAIN.

    This reproduces the paper's Figure 8 "inconsistent" cases: query
    volume grows although the TTL went *up*, because the growth is
    query-only -- "resolvers are increasingly querying for
    non-existent FQDNs" (§4.1).  Handled by the workload mix, not the
    zone mutator.
    """

    def __init__(self, at, sld, qps):
        self.at = float(at)
        self.sld = sld.lower().rstrip(".")
        self.qps = float(qps)

    def __repr__(self):
        return "JunkSurge(%.0fs, %s, %.1f qps)" % (self.at, self.sld,
                                                   self.qps)


class TunnelAttack:
    """From *at* until *until*, a DNS-tunnel client exfiltrates data
    through a victim SLD: every query carries a fresh high-entropy
    payload encoded in the subdomain labels (the detection target of
    the ``exfil`` and ``noh`` detectors, see :mod:`repro.detect`).

    The victim is a deterministic wildcard-answering zone picked at
    workload-build time, so queries are *answered* -- a live tunnel
    endpoint, not an NXDOMAIN storm.  Ground truth for the resolved
    victim is exposed via ``WorkloadMix.attack_labels()``.
    """

    kind = "tunnel"

    #: characters per payload label
    label_len = 40
    #: payload labels per query
    payload_labels = 2

    def __init__(self, at, qps, until=None):
        self.at = float(at)
        self.qps = float(qps)
        self.until = None if until is None else float(until)

    def __repr__(self):
        return "TunnelAttack(%.0fs, %.1f qps)" % (self.at, self.qps)


class WaterTorture:
    """From *at* until *until*, a random-subdomain (water-torture)
    DDoS floods a victim SLD with *qps* queries for random nonexistent
    subdomains -- the ``ddos`` detector's target workload.  Unlike
    :class:`JunkSurge` (a PRSD nuisance against whatever SLD the
    Figure 8 experiment names), this is a labeled attack: the victim
    (a deterministic non-wildcard zone) appears in
    ``WorkloadMix.attack_labels()`` ground truth.
    """

    kind = "watertorture"
    #: characters in the random subdomain label
    label_len = 12

    def __init__(self, at, qps, until=None):
        self.at = float(at)
        self.qps = float(qps)
        self.until = None if until is None else float(until)

    def __repr__(self):
        return "WaterTorture(%.0fs, %.1f qps)" % (self.at, self.qps)


class Scenario:
    """All simulation parameters.  See :meth:`tiny` for a quick start.

    The defaults aim at the qualitative shape of the paper's Big
    Picture: Zipf-concentrated domain popularity, the Table 1
    organization cast, the Table 2 QTYPE mix, four delay regimes, a
    DGA botnet, Happy-Eyeballs dual-stack clients, and a handful of
    IPv4-only domains with pathologically low negative-caching TTLs.
    """

    # Model constants no run varies; a test sets one on its instance.
    #: Zipf exponent of SLD popularity
    sld_zipf_s = 1.05
    #: probability a nameserver drops a query (unans feature)
    unanswered_rate = 0.02
    #: share of client events querying nonexistent TLDs (root NXD)
    tld_typo_share = 0.01
    #: fraction of SLDs with AAAA records (server-side IPv6)
    ipv6_sld_fraction = 0.45
    #: fraction of SLDs that are DNSSEC-signed
    dnssec_sld_fraction = 0.25
    #: fraction of transactions round-tripped through real wire bytes
    #: (slow; integration tests set 1.0)
    wire_check_fraction = 0.0
    #: fraction of resolvers with query prefetching enabled (§5.1)
    prefetch_resolver_fraction = 0.0
    #: fraction of resolvers that reach dual-stack nameservers over
    #: IPv6 (the srvip dataset tracks v4 and v6 addresses)
    resolver_ipv6_fraction = 0.3

    def __init__(self, seed=2019, duration=600.0, client_qps=200.0,
                 n_resolvers=64, n_contributors=12, n_tlds=120,
                 n_slds=2000, fqdns_per_sld=4, popular_fqdns=2000,
                 dualstack_fraction=0.35, qmin_resolver_fraction=0.02,
                 botnet_share=0.10, scripted_events=(),
                 diurnal_amplitude=0.0, diurnal_period=86400.0,
                 encrypted_fraction=0.0, doh_share=0.5, padding_block=128):
        #: master seed for all RNG substreams
        self.seed = int(seed)
        #: simulated duration in seconds
        self.duration = float(duration)
        #: client-level query events per second (upstream transactions
        #: emerge from cache misses, typically 0.3-1.5x this rate)
        self.client_qps = float(client_qps)
        #: number of recursive resolvers (vantage points)
        self.n_resolvers = int(n_resolvers)
        #: number of SIE contributors the resolvers are grouped into
        self.n_contributors = int(n_contributors)
        #: active TLDs beyond com/net (ccTLDs and new gTLDs)
        self.n_tlds = int(n_tlds)
        #: registered SLD zones
        self.n_slds = int(n_slds)
        #: average FQDNs per SLD zone
        self.fqdns_per_sld = int(fqdns_per_sld)
        #: size of the popular-FQDN list clients browse
        self.popular_fqdns = int(popular_fqdns)
        #: fraction of clients doing Happy Eyeballs (A + AAAA)
        self.dualstack_fraction = float(dualstack_fraction)
        #: fraction of resolvers with QNAME minimization enabled
        self.qmin_resolver_fraction = float(qmin_resolver_fraction)
        #: share of client events that are botnet DGA queries
        self.botnet_share = float(botnet_share)
        #: scripted infrastructure events (TtlChange, Renumber, ...)
        self.scripted_events = list(scripted_events)
        #: diurnal traffic modulation: client rates swing by this
        #: fraction (0 = flat) over *diurnal_period* seconds -- the
        #: "user interest and diurnal patterns" behind the hourly top
        #: lists of §4.2 [55]
        self.diurnal_amplitude = float(diurnal_amplitude)
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        self.diurnal_period = float(diurnal_period)
        #: fraction of resolvers whose upstream channel is encrypted
        #: (DoH/DoT): their sensors see only size/timing observations,
        #: feeding the ``_encrypted`` dataset instead of the plaintext
        #: trackers.  Per-resolver membership is a pure hash of the
        #: resolver IP, so the encrypted sets *nest* as the fraction
        #: rises -- the blindness sweep is monotone by construction.
        self.encrypted_fraction = float(encrypted_fraction)
        if not 0.0 <= self.encrypted_fraction <= 1.0:
            raise ValueError("encrypted_fraction must be in [0, 1]")
        #: among encrypted resolvers, the share using DoH (the rest
        #: use DoT); DoH adds more per-message framing overhead
        self.doh_share = float(doh_share)
        if not 0.0 <= self.doh_share <= 1.0:
            raise ValueError("doh_share must be in [0, 1]")
        #: RFC 8467-style padding block size applied on encrypted
        #: channels before TLS framing
        self.padding_block = int(padding_block)
        if self.padding_block < 1:
            raise ValueError("padding_block must be >= 1")

    # -- presets --------------------------------------------------------

    @classmethod
    def tiny(cls, **overrides):
        """Unit-test scale: a few thousand transactions, seconds to run."""
        params = dict(
            duration=180.0, client_qps=40.0, n_resolvers=12,
            n_contributors=4, n_tlds=30, n_slds=150, fqdns_per_sld=3,
            popular_fqdns=200,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def small(cls, **overrides):
        """Integration scale: ~50 k transactions."""
        params = dict(
            duration=420.0, client_qps=120.0, n_resolvers=32,
            n_contributors=8, n_tlds=60, n_slds=600, fqdns_per_sld=3,
            popular_fqdns=800,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def medium(cls, **overrides):
        """Benchmark scale: a few hundred thousand transactions."""
        params = dict(
            duration=900.0, client_qps=300.0, n_resolvers=64,
            n_contributors=12, n_tlds=120, n_slds=2500,
            fqdns_per_sld=4, popular_fqdns=2500,
        )
        params.update(overrides)
        return cls(**params)

    def __repr__(self):
        return "Scenario(seed=%d, duration=%.0fs, qps=%.0f, slds=%d)" % (
            self.seed, self.duration, self.client_qps, self.n_slds)
