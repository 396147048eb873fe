"""Client query workload generators.

Produces the stream of *client-level* DNS queries that hit the
recursive resolvers; cache misses then become the upstream
transactions the Observatory measures.  The mixture reflects the
paper's Table 2: A queries dominate, dual-stack clients add paired
AAAA lookups (Happy Eyeballs, RFC 8305), PTR traffic comes from server
infrastructure, TXT from anti-virus-style protocols-over-DNS, NS
probes are dominated by PRSD-like junk, plus MX/SRV/CNAME/SOA/DS tail.

Each generator is an independent Poisson process; the merged stream is
time-ordered.  Everything is deterministic given the scenario seed.
"""

import heapq

from repro.dnswire.constants import QTYPE
from repro.simulation.rng import ZipfSampler

#: QTYPE mixture weights at the *client* level (before caching).
#: Botnet and TLD-typo shares are configured separately on Scenario.
DEFAULT_WEIGHTS = {
    "web": 0.520,       # A (+ AAAA for dual-stack clients)
    "ephemeral": 0.070,  # one-off disposable names
    "ptr": 0.065,
    "iot": 0.015,       # devices polling their vendor domain (Fig. 7)
    "polling": 0.030,   # OS services polling NTP/update/ad hosts (Fig. 9)
    "txt": 0.016,
    "mx": 0.014,
    "ns_probe": 0.014,
    "srv": 0.011,
    "cname": 0.010,
    "soa": 0.006,
    "ds": 0.006,
}


class ClientEvent:
    """One client query arriving at a resolver."""

    __slots__ = ("ts", "resolver_index", "qname", "qtype", "tag")

    def __init__(self, ts, resolver_index, qname, qtype, tag):
        self.ts = ts
        self.resolver_index = resolver_index
        self.qname = qname
        self.qtype = qtype
        #: originating generator (diagnostics)
        self.tag = tag

    def __repr__(self):
        return "ClientEvent(%.3f, r%d, %s %s)" % (
            self.ts, self.resolver_index, self.qname,
            QTYPE.name_of(self.qtype))


class WorkloadMix:
    """The merged client workload for one scenario."""

    def __init__(self, scenario, dns):
        self.scenario = scenario
        self.dns = dns
        self.hub = dns.hub
        weights = DEFAULT_WEIGHTS
        total = sum(weights.values())
        base_share = max(
            0.0, 1.0 - scenario.botnet_share - scenario.tld_typo_share)
        self.rates = {
            name: scenario.client_qps * base_share * w / total
            for name, w in weights.items()
        }
        if scenario.botnet_share > 0:
            self.rates["botnet"] = scenario.client_qps * scenario.botnet_share
        if scenario.tld_typo_share > 0:
            self.rates["tld_typo"] = (
                scenario.client_qps * scenario.tld_typo_share)
        self._resolver_sampler = ZipfSampler(scenario.n_resolvers, s=0.5)
        self._catalog_sampler = ZipfSampler(
            max(len(dns.catalog), 1), s=0.95)
        self._sld_sampler = ZipfSampler(max(len(dns.slds), 1), s=0.8)
        from repro.simulation.attacks import resolve_attacks

        #: scripted attacks bound to concrete victim zones (ground truth)
        self.attacks = resolve_attacks(self)

    # ------------------------------------------------------------------

    def events(self):
        """Yield all :class:`ClientEvent` in time order."""
        from repro.simulation.attacks import attack_events
        from repro.simulation.scenario import JunkSurge

        generators = []
        for name, rate in self.rates.items():
            if rate <= 0:
                continue
            make = getattr(self, "_gen_%s" % name)
            generators.append(make(rate))
        for i, event in enumerate(self.scenario.scripted_events):
            if isinstance(event, JunkSurge):
                generators.append(self._gen_junk_surge(event, i))
        for attack in self.attacks:
            generators.append(attack_events(self, attack))
        return heapq.merge(*generators, key=lambda e: e.ts)

    def attack_labels(self):
        """Ground-truth labels for every scripted attack: a list of
        ``{kind, esld, start, end, qps}`` dicts (see
        :mod:`repro.simulation.attacks`)."""
        return [attack.label(self.scenario.duration)
                for attack in self.attacks]

    def _gen_junk_surge(self, surge, index):
        """PRSD-style junk against one SLD, starting mid-run (the
        scripted :class:`~repro.simulation.scenario.JunkSurge`)."""
        rng = self.hub.stream("junk_surge:%d" % index)
        t = surge.at + rng.expovariate(surge.qps)
        counter = 0
        while t < self.scenario.duration:
            counter += 1
            qname = "junk%06d-%04x.%s" % (counter, rng.getrandbits(16),
                                          surge.sld)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.A,
                              "junk_surge")
            t += rng.expovariate(surge.qps)

    def _arrivals(self, tag, rate):
        """Poisson arrival times with a per-generator RNG.

        When the scenario configures diurnal modulation, the process is
        inhomogeneous: arrivals at peak rate are thinned to follow
        ``rate * (1 + A*sin(2*pi*t/period))`` (Lewis-Shedler thinning).
        """
        import math as _math

        rng = self.hub.stream("workload:%s" % tag)
        amplitude = self.scenario.diurnal_amplitude
        duration = self.scenario.duration
        if amplitude <= 0.0:
            t = rng.expovariate(rate)
            while t < duration:
                yield t, rng
                t += rng.expovariate(rate)
            return
        period = self.scenario.diurnal_period
        peak = rate * (1.0 + amplitude)
        t = rng.expovariate(peak)
        while t < duration:
            current = rate * (1.0 + amplitude
                              * _math.sin(2.0 * _math.pi * t / period))
            if rng.random() < current / peak:
                yield t, rng
            t += rng.expovariate(peak)

    def _resolver(self, rng):
        return self._resolver_sampler.sample(rng)

    def _random_sld(self, rng):
        return self.dns.slds[self._sld_sampler.sample(rng)]

    # -- generators ------------------------------------------------------

    def _gen_web(self, rate):
        """Web browsing: A lookups of popular FQDNs; dual-stack
        clients pair each with an AAAA (Happy Eyeballs)."""
        catalog = self.dns.catalog
        dual = self.scenario.dualstack_fraction
        for t, rng in self._arrivals("web", rate):
            fqdn, _zone = catalog[self._catalog_sampler.sample(rng)]
            resolver = self._resolver(rng)
            yield ClientEvent(t, resolver, fqdn, QTYPE.A, "web")
            if rng.random() < dual:
                yield ClientEvent(t, resolver, fqdn, QTYPE.AAAA, "web6")

    def _gen_ephemeral(self, rate):
        """Disposable one-off names (Chen et al.): unique subdomains,
        mostly under wildcard-answering zones."""
        wildcards = self.dns.wildcard_slds
        counter = 0
        for t, rng in self._arrivals("ephemeral", rate):
            counter += 1
            if wildcards and rng.random() < 0.6:
                zone = wildcards[rng.randrange(len(wildcards))]
            else:
                zone = self._random_sld(rng)
            qname = "u%06d-%04x.%s" % (counter, rng.randrange(0xFFFF),
                                       zone.name)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.A,
                              "ephemeral")

    def _gen_ptr(self, rate):
        """Reverse DNS from server infrastructure (Table 2: PTR 6.4%)."""
        octets = [int(z.name.split(".")[0]) for z in self.dns.reverse_zones] \
            or [198]
        for t, rng in self._arrivals("ptr", rate):
            first = rng.choice(octets)
            # Busy mail servers look up the same client ranges over and
            # over: bias towards a small pool of /24s so caching bites.
            if rng.random() < 0.5:
                b, c = rng.randrange(4), rng.randrange(4)
            else:
                b, c = rng.randrange(256), rng.randrange(256)
            qname = "%d.%d.%d.%d.in-addr.arpa" % (
                rng.randrange(1, 255), c, b, first)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.PTR, "ptr")

    def _gen_iot(self, rate):
        """IoT devices constantly polling their vendor web domain --
        the xmsecu.com population behind Figure 7."""
        from repro.simulation.buildout import XMSECU_FQDN

        target = XMSECU_FQDN if self.dns.find_sld_zone(XMSECU_FQDN) else None
        for t, rng in self._arrivals("iot", rate):
            if target is None:
                fqdn, _ = self.dns.catalog[
                    self._catalog_sampler.sample(rng)]
            else:
                fqdn = target
            yield ClientEvent(t, self._resolver(rng), fqdn, QTYPE.A, "iot")

    def _gen_polling(self, rate):
        """Operating-system services constantly polling NTP, update
        and ad-delivery hosts -- the Figure 9 population.  Every
        machine queries these names, so the per-resolver client rate
        is high and A answers are almost always served from cache,
        while short negative-caching TTLs force AAAA queries upstream."""
        from repro.simulation.buildout import SPECIAL_V4ONLY

        targets = [fqdn for fqdn, _, _, _ in SPECIAL_V4ONLY
                   if self.dns.find_sld_zone(fqdn) is not None]
        # NTP hosts are polled hardest (the paper's worst offenders).
        weights = [3.0 if "ntp" in fqdn else 1.0 for fqdn in targets]
        dual = self.scenario.dualstack_fraction
        for t, rng in self._arrivals("polling", rate):
            if not targets:
                return
            fqdn = rng.choices(targets, weights=weights, k=1)[0]
            resolver = self._resolver(rng)
            yield ClientEvent(t, resolver, fqdn, QTYPE.A, "polling")
            if rng.random() < dual:
                yield ClientEvent(t, resolver, fqdn, QTYPE.AAAA,
                                  "polling6")

    def _gen_txt(self, rate):
        """Anti-virus style protocol-over-DNS: unique hash labels,
        TTL-5 wildcard TXT answers (Table 2's TXT row)."""
        avzones = [z for z in self.dns.wildcard_slds
                   if z.wildcard and "TXT" in z.wildcard]
        counter = 0
        for t, rng in self._arrivals("txt", rate):
            counter += 1
            if avzones:
                zone = avzones[counter % len(avzones)]
                qname = "%08x.%04x.sig.%s" % (
                    rng.getrandbits(32), rng.getrandbits(16), zone.name)
            else:
                qname = self._random_sld(rng).name
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.TXT, "txt")

    def _gen_mx(self, rate):
        for t, rng in self._arrivals("mx", rate):
            zone = self._random_sld(rng)
            # Mostly existing apexes; some junk (Table 2: MX 34% err).
            if rng.random() < 0.85:
                qname = zone.name
            else:
                qname = "mx%04d.%s" % (rng.randrange(10000), zone.name)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.MX, "mx")

    def _gen_ns_probe(self, rate):
        """NS scans / PRSD junk: 86 % NXDOMAIN in the paper."""
        for t, rng in self._arrivals("ns_probe", rate):
            if rng.random() < 0.12:
                qname = self._random_sld(rng).name
            else:
                qname = "brand%06d.com" % rng.randrange(1_000_000)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.NS,
                              "ns_probe")

    def _gen_srv(self, rate):
        for t, rng in self._arrivals("srv", rate):
            zone = self._random_sld(rng)
            service = "_sip._tcp" if rng.random() < 0.5 else "_xmpp._tcp"
            qname = "%s.%s" % (service, zone.name)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.SRV, "srv")

    def _gen_cname(self, rate):
        for t, rng in self._arrivals("cname", rate):
            zone = self._random_sld(rng)
            host = "cdn" if rng.random() < 0.4 else \
                "alias%04d" % rng.randrange(10000)
            qname = "%s.%s" % (host, zone.name)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.CNAME,
                              "cname")

    def _gen_soa(self, rate):
        for t, rng in self._arrivals("soa", rate):
            zone = self._random_sld(rng)
            if rng.random() < 0.55:
                qname = zone.name
            else:
                qname = "z%05d.%s" % (rng.randrange(100000), zone.name)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.SOA, "soa")

    def _gen_ds(self, rate):
        for t, rng in self._arrivals("ds", rate):
            zone = self._random_sld(rng)
            yield ClientEvent(t, self._resolver(rng), zone.name, QTYPE.DS,
                              "ds")

    def _gen_botnet(self, rate):
        """DGA traffic (see :mod:`repro.simulation.botnet`)."""
        from repro.simulation.botnet import dga_events

        return dga_events(self, rate)

    def _gen_tld_typo(self, rate):
        """Queries under nonexistent TLDs: the root's NXDOMAIN diet
        (Section 3.5: 96.2 % of root responses are NXDOMAIN)."""
        for t, rng in self._arrivals("tld_typo", rate):
            tld = "".join(rng.choice("bcdfghjklmnpqrstvwxz")
                          for _ in range(rng.randint(4, 8)))
            qname = "www.site%04d.%s" % (rng.randrange(10000), tld)
            yield ClientEvent(t, self._resolver(rng), qname, QTYPE.A,
                              "tld_typo")
