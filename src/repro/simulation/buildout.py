"""Scenario buildout: assemble the simulated global DNS.

Creates the topology (Table 1 cast), the root and gTLD letters A-M,
ccTLD/new-gTLD zones, the Zipf-popular SLD population with their
hosting assignments, FQDN records (A/AAAA/MX/TXT/CNAME), reverse-DNS
zones, the Figure 9 special domains with low negative-caching TTLs,
and the popular-FQDN catalog the client workload browses.
"""

import math

from repro.dnswire.constants import QTYPE
from repro.simulation.rng import RngHub, ZipfSampler
from repro.simulation.scenario import (
    EnableIpv6,
    JunkSurge,
    NsChange,
    Renumber,
    Scenario,
    TtlChange,
    TunnelAttack,
    WaterTorture,
)
from repro.simulation.topology import Nameserver, Topology
from repro.simulation.zones import RootZone, SldZone, TldZone

#: Root letters with their Figure 3c delay character: the heavily
#: mirrored letters (E, F, L) are "colocated"-fast, most are regional,
#: a few are distant.
_ROOT_LETTER_CLASSES = {
    "a": "regional", "b": "distant", "c": "regional", "d": "regional",
    "e": "colocated", "f": "colocated", "g": "distant", "h": "distant",
    "i": "regional", "j": "regional", "k": "regional", "l": "colocated",
    "m": "regional",
}

#: gTLD letters (Figure 3d): consistent, grouped; B is the fastest.
_GTLD_LETTER_CLASSES = {
    "b": "colocated",
    "a": "regional", "c": "regional", "d": "regional", "e": "regional",
    "f": "regional", "g": "regional", "h": "regional", "i": "regional",
    "j": "distant", "k": "distant", "l": "distant", "m": "distant",
}

#: Real-ish ccTLDs / new gTLDs used before falling back to generated
#: names.  uk/il/me host multi-label registry suffixes (Table 3).
_NAMED_TLDS = (
    "arpa", "net", "org", "de", "uk", "il", "me", "nl", "ru", "br",
    "jp", "cn", "fr", "it", "pl", "au", "ke", "by", "io", "co",
    "info", "biz", "top", "xyz", "online", "site", "dev", "app",
    "cloud", "shop", "club", "icu", "vip", "store", "tech", "us",
    "ca", "es", "se", "ch", "at", "be",
)

_REGISTRY_SUFFIXES = {
    "uk": ("co.uk", "org.uk", "ac.uk"),
    "il": ("co.il", "org.il"),
    "me": ("net.me", "org.me"),
    "au": ("com.au", "net.au"),
}

_HOSTNAMES = ("www", "api", "cdn", "mail", "img", "static", "m", "app",
              "edge", "assets")

_A_TTL_CHOICES = (60, 60, 300, 300, 300, 300, 600, 3600, 3600, 86400)
_NEGTTL_CHOICES = (300, 900, 3600, 3600, 86400)

#: Figure 9 cast: (fqdn, catalog rank, A-TTL, negative TTL).  The two
#: NTP hosts of "a popular operating system" (ranks 81/116), the ad
#: network (141), the CDN update host (167), and the blog host whose
#: *high* negTTL some resolvers ignore (140).
SPECIAL_V4ONLY = (
    ("time-a.ntpsync.com", 81, 900, 15),
    ("time-b.ntpsync.com", 116, 600, 15),
    ("blogs.webjournal.net", 140, 600, 3600),
    ("ads.clickgrid.net", 141, 300, 60),
    ("updates.softcdn.com", 167, 3600, 600),
)

#: Figure 7 subject: the IoT video-surveillance web domain.
XMSECU_FQDN = "www.xmsecu.com"


class GlobalDns:
    """The fully built simulated DNS: topology + zone tree + catalog."""

    def __init__(self, scenario, hub, topology, root, slds, catalog,
                 wildcard_slds, reverse_zones):
        self.scenario = scenario
        self.hub = hub
        self.topology = topology
        #: :class:`~repro.simulation.zones.RootZone`
        self.root = root
        #: list of SldZone in popularity-rank order
        self.slds = slds
        #: popular FQDN catalog: list of (fqdn, SldZone), rank order
        self.catalog = catalog
        #: SLD zones answering wildcard TXT/A (disposable-domain hosts)
        self.wildcard_slds = wildcard_slds
        #: reverse-DNS zones (N.in-addr.arpa)
        self.reverse_zones = reverse_zones
        #: pending scripted events, sorted by time
        self._events = sorted(scenario.scripted_events, key=lambda e: e.at)
        self._next_event = 0
        self.applied_events = []

    # ------------------------------------------------------------------

    def find_sld_zone(self, name):
        """Ground-truth lookup of the SLD zone covering *name*."""
        name = name.lower().rstrip(".")
        tld = name.rsplit(".", 1)[-1]
        tld_zone = self.root.tlds.get(tld)
        if tld_zone is None:
            return None
        return tld_zone.delegation_for(name)

    # -- scripted infrastructure events ---------------------------------

    def apply_events_until(self, now):
        """Apply all scripted events with ``at <= now``."""
        while (self._next_event < len(self._events)
               and self._events[self._next_event].at <= now):
            event = self._events[self._next_event]
            self._next_event += 1
            self._apply(event)
            self.applied_events.append(event)

    def _apply(self, event):
        if isinstance(event, TtlChange):
            zone = self.find_sld_zone(event.name)
            if zone is None:
                raise KeyError("TtlChange target %r not found" % event.name)
            if event.rtype == "NS":
                zone.ns_ttl = event.new_ttl
            elif event.rtype == "SOA":
                zone.soa_negttl = event.new_ttl
            else:
                qtype = QTYPE[event.rtype]
                if event.name != zone.name and event.name in zone.records:
                    zone.set_ttl(event.name, qtype, event.new_ttl)
                else:
                    # Apex target: apply to every record of the type in
                    # the zone (an operator slashing the zone's TTLs).
                    for fqdn, by_type in zone.records.items():
                        if int(qtype) in by_type:
                            zone.set_ttl(fqdn, qtype, event.new_ttl)
        elif isinstance(event, Renumber):
            zone = self.find_sld_zone(event.fqdn)
            if zone is None:
                raise KeyError("Renumber target %r not found" % event.fqdn)
            old = zone.get_record(event.fqdn, QTYPE.A)
            ttl = event.new_ttl if event.new_ttl is not None else \
                (old.ttl if old else 300)
            zone.add_record(event.fqdn, QTYPE.A, ttl, event.new_ips)
        elif isinstance(event, NsChange):
            zone = self.find_sld_zone(event.sld)
            if zone is None:
                raise KeyError("NsChange target %r not found" % event.sld)
            new_ns = [
                self.topology.allocate_nameserver(
                    event.new_ns_org,
                    hostname="ns%d.%s" % (i + 1, event.sld))
                for i in range(2)
            ]
            zone.nameservers = new_ns
            if event.new_ttl is not None:
                zone.ns_ttl = event.new_ttl
            # Keep the apex NS RRset in sync with the delegation.
            if zone.get_record(event.sld, QTYPE.NS) is not None:
                zone.add_record(event.sld, QTYPE.NS, zone.ns_ttl,
                                tuple(ns.hostname for ns in new_ns))
        elif isinstance(event, EnableIpv6):
            zone = self.find_sld_zone(event.fqdn)
            if zone is None:
                raise KeyError("EnableIpv6 target %r not found" % event.fqdn)
            a_record = zone.get_record(event.fqdn, QTYPE.A)
            ttl = a_record.ttl if a_record else 300
            v6 = tuple("2001:db8:%x::%d" % (abs(hash(event.fqdn)) % 0xFFFF,
                                            i + 1)
                       for i in range(len(a_record.values) if a_record else 1))
            zone.add_record(event.fqdn, QTYPE.AAAA, ttl, v6)
        elif isinstance(event, (JunkSurge, TunnelAttack, WaterTorture)):
            pass  # traffic-side events; realized by the workload mix
        else:
            raise TypeError("unknown scripted event %r" % (event,))


def build_global_dns(scenario=None):
    """Build a :class:`GlobalDns` for *scenario* (default: tiny)."""
    scenario = scenario or Scenario.tiny()
    hub = RngHub(scenario.seed)
    rng = hub.stream("buildout")
    topology = Topology(hub, n_tail_orgs=max(20, scenario.n_slds // 40))

    root = _build_root(topology)
    gtld_servers = _build_gtld_servers(topology)
    _build_tlds(scenario, topology, root, gtld_servers, rng)
    slds, wildcard_slds = _build_slds(scenario, topology, root, rng)
    reverse_zones = _build_reverse_dns(topology, root, rng)
    catalog = _build_catalog(scenario, root, slds, rng)

    return GlobalDns(scenario, hub, topology, root, slds, catalog,
                     wildcard_slds, reverse_zones)


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------

def _build_root(topology):
    roots = []
    for letter, distance_class in sorted(_ROOT_LETTER_CLASSES.items()):
        org_name = "ROOT%s" % letter.upper()
        # Each root letter is its own operator with its own AS.
        if org_name not in topology.orgs:
            from repro.simulation.topology import Organization

            org = Organization(org_name, "root", [], True,
                               {distance_class: 1.0}, 0.4)
            asn = topology._next_asn
            topology._next_asn += 1
            org.asns.append(asn)
            topology.asnames.add(
                asn, "%s-OPS - %s.root-servers.net operator"
                % (org_name, letter))
            prefix = topology._allocate_prefix()
            org.prefixes.append(prefix)
            topology.asdb.add_prefix(prefix, asn)
            v6_prefix = topology._allocate_v6_prefix()
            org.v6_prefixes.append(v6_prefix)
            topology.asdb.add_prefix(v6_prefix, asn)
            topology.orgs[org_name] = org
        ns = topology.allocate_nameserver(
            org_name, hostname="%s.root-servers.net" % letter)
        ns.distance_class = distance_class
        roots.append(ns)
    return RootZone(roots)


def _build_gtld_servers(topology):
    """The 13 VERISIGN gTLD letters, shared by com and net."""
    servers = []
    for letter, distance_class in sorted(_GTLD_LETTER_CLASSES.items()):
        ns = topology.allocate_nameserver(
            "VERISIGN", hostname="%s.gtld-servers.net" % letter)
        ns.anycast = False  # per-letter consistency (Figure 3d)
        ns.distance_class = distance_class
        servers.append(ns)
    return servers


def _build_tlds(scenario, topology, root, gtld_servers, rng):
    com = TldZone("com", gtld_servers, soa_negttl=900)
    net = TldZone("net", gtld_servers, soa_negttl=900)
    root.register(com)
    root.register(net)
    dns_orgs = ("PCH", "ULTRADNS", "DYNDNS")
    names = [t for t in _NAMED_TLDS if t != "net"]
    while len(names) < scenario.n_tlds - 2:
        names.append("t%03d" % len(names))
    for tld_name in names[: scenario.n_tlds - 2]:
        n_servers = rng.randint(2, 5)
        servers = []
        for i in range(n_servers):
            org = rng.choice(dns_orgs)
            servers.append(topology.allocate_nameserver(
                org, hostname="ns%d.nic.%s" % (i + 1, tld_name)))
        zone = TldZone(tld_name, servers, soa_negttl=900,
                       registry_suffixes=_REGISTRY_SUFFIXES.get(tld_name, ()))
        root.register(zone)


def _hosting_org(topology, rng, popularity=0.0):
    """Draw a hosting org by Table 1 weight.

    *popularity* in [0, 1] (1 = most popular SLD): popular domains
    live disproportionately on CDN/cloud infrastructure -- that is
    what makes the most popular nameservers faster and closer in
    Figure 3b -- while the tail sits on small hosters.
    """
    names = []
    weights = []
    for name, org in topology.orgs.items():
        if org.hosting_weight <= 0:
            continue
        weight = org.hosting_weight
        if org.kind in ("cdn", "dns"):
            # Anycast CDN/DNS operators host the head of the ranking.
            weight *= 0.2 + 3.5 * popularity ** 1.5
        elif org.kind == "cloud":
            weight *= 0.6 + 1.2 * popularity
        else:  # hosting/isp tail
            weight *= 1.7 - 1.6 * popularity
        names.append(name)
        weights.append(weight)
    return rng.choices(names, weights=weights, k=1)[0]


def _sld_tld(scenario, root, rng, rank):
    """Pick the TLD for SLD of *rank*: com-heavy, rest Zipf-ish."""
    r = rng.random()
    if r < 0.52:
        return "com"
    if r < 0.60:
        return "net"
    others = [t for t in root.tlds if t not in ("com", "net", "arpa")]
    if not others:
        return "com"
    index = min(int(rng.paretovariate(0.9)) - 1, len(others) - 1)
    return others[index]


# Per-org nameserver pooling: anycast operators reuse small fleets
# (CLOUDFLARE's 995 servers vs AKAMAI's 6,844 in Table 1); cloud and
# hosting providers allocate fresh VPS-style IPs per customer zone.
_POOLED_ORGS = {
    "CLOUDFLARE": 24, "PCH": 16, "ULTRADNS": 24, "GOOGLE": 20,
    "MICROSOFT": 40, "DYNDNS": 40, "GODADDY": 40,
}


def _sld_nameservers(topology, org_name, sld_name, rng, pools):
    org = topology.orgs[org_name]
    pool_size = _POOLED_ORGS.get(org_name)
    if pool_size is not None:
        pool = pools.get(org_name)
        if pool is None:
            pool = []
            pools[org_name] = pool
        while len(pool) < pool_size:
            pool.append(topology.allocate_nameserver(org_name))
        return rng.sample(pool, k=min(2, len(pool)))
    # Fresh per-zone allocation (AMAZON, AKAMAI, tail hosting).
    count = 3 if org_name == "AKAMAI" else 2
    in_bailiwick = org.kind in ("hosting", "isp")
    return [
        topology.allocate_nameserver(
            org_name,
            hostname="ns%d.%s" % (i + 1, sld_name) if in_bailiwick else None)
        for i in range(count)
    ]


def _content_ips(rng, count=1):
    return tuple(
        "198.%d.%d.%d" % (rng.randint(16, 255), rng.randint(0, 255),
                          rng.randint(1, 254))
        for _ in range(count)
    )


def _build_slds(scenario, topology, root, rng):
    slds = []
    wildcard_slds = []
    pools = {}
    special_slds = _special_sld_plan(scenario)
    for rank in range(scenario.n_slds):
        special = special_slds.get(rank)
        if special is not None:
            name = special["sld"]
        else:
            tld = _sld_tld(scenario, root, rng, rank)
            name = "domain%05d.%s" % (rank, tld)
        tld_name = name.rsplit(".", 1)[-1]
        tld_zone = root.tlds.get(tld_name)
        if tld_zone is None:
            continue
        # Log-scaled popularity: Zipf traffic concentrates on the very
        # first ranks, so rank 10 of 1000 is already "head" territory.
        popularity = max(0.0, 1.0 - math.log10(1.0 + rank)
                         / math.log10(1.0 + scenario.n_slds))
        org_name = special["org"] if special and "org" in special else \
            _hosting_org(topology, rng, popularity=popularity)
        zone = SldZone(
            name,
            _sld_nameservers(topology, org_name, name, rng, pools),
            soa_negttl=special["negttl"] if special else
            rng.choice(_NEGTTL_CHOICES),
            signed=rng.random() < scenario.dnssec_sld_fraction,
            dynamic_ttl=(special or {}).get("dynamic_ttl", False),
        )
        has_ipv6 = (special or {}).get(
            "ipv6", rng.random() < scenario.ipv6_sld_fraction)
        base_ttl = special["ttl"] if special else rng.choice(_A_TTL_CHOICES)
        n_hosts = max(1, min(len(_HOSTNAMES),
                             int(rng.gauss(scenario.fqdns_per_sld, 1.5))))
        hosts = [""] + list(_HOSTNAMES[:n_hosts])
        for host in hosts:
            fqdn = "%s.%s" % (host, name) if host else name
            ips = _content_ips(rng, rng.choice((1, 1, 1, 2, 3)))
            zone.add_record(fqdn, QTYPE.A, base_ttl, ips)
            if has_ipv6:
                v6 = tuple("2001:db8:%04x::%d" % (rank % 0xFFFF, i + 1)
                           for i in range(len(ips)))
                zone.add_record(fqdn, QTYPE.AAAA, base_ttl, v6)
        zone.add_record(name, QTYPE.MX, 3600, ("mail.%s" % name,))
        zone.add_record(name, QTYPE.TXT, 3600, ("v=spf1 ip4:198.0.0.0/8 -all",))
        zone.add_record(name, QTYPE.SOA, 3600, ("ns1.%s" % name,))
        zone.add_record(name, QTYPE.NS, zone.ns_ttl,
                        tuple(ns.hostname for ns in zone.nameservers))
        if zone.signed:
            zone.add_record(name, QTYPE.DS, 86400, ("ds-sha256-digest",))
        if rng.random() < 0.25:
            zone.add_record("_sip._tcp.%s" % name, QTYPE.SRV, 300,
                            ("sip.%s" % name,))
        if rng.random() < 0.15 and n_hosts >= 3:
            # CDN-style alias: cdn host becomes a CNAME to www.
            zone.remove_record("cdn.%s" % name, QTYPE.A)
            zone.remove_record("cdn.%s" % name, QTYPE.AAAA)
            zone.add_record("cdn.%s" % name, QTYPE.CNAME, 300,
                            ("www.%s" % name,))
        if special and special.get("wildcard"):
            wildcard_slds.append(zone)
            zone.wildcard = special["wildcard"]
        elif rng.random() < 0.04:
            zone.wildcard = {"A": (60, _content_ips(rng, 1))}
            wildcard_slds.append(zone)
        else:
            zone.wildcard = None
        tld_zone.register(zone)
        slds.append(zone)
    return slds, wildcard_slds


def _special_sld_plan(scenario):
    """SLD ranks reserved for the special-cast domains."""
    plan = {}
    if not scenario.low_negttl_specials:
        return plan
    # Figure 7: xmsecu.com at a busy rank, TTL 600, hosted on a tail org.
    plan[40] = {"sld": "xmsecu.com", "ttl": 600, "negttl": 3600,
                "ipv6": False}
    # Figure 9 cast (SLD-level; the FQDNs get catalog ranks later).
    plan[40 + 1] = {"sld": "ntpsync.com", "ttl": 900, "negttl": 15,
                    "ipv6": False}
    plan[40 + 2] = {"sld": "webjournal.net", "ttl": 600, "negttl": 3600,
                    "ipv6": False}
    plan[40 + 3] = {"sld": "clickgrid.net", "ttl": 300, "negttl": 60,
                    "ipv6": False}
    plan[40 + 4] = {"sld": "softcdn.com", "ttl": 3600, "negttl": 600,
                    "ipv6": False, "org": "AKAMAI"}
    # TXT-protocol anti-virus domain (Table 2's TTL-5 TXT traffic).
    plan[46] = {"sld": "avscan-lookup.com", "ttl": 300, "negttl": 60,
                "ipv6": False,
                "wildcard": {"TXT": (5, ("scan=clean",))}}
    # A non-conforming dynamic-TTL domain (Table 4).
    plan[47] = {"sld": "vicovoip.it", "ttl": 1000, "negttl": 900,
                "ipv6": False, "dynamic_ttl": True}
    return plan


def _build_reverse_dns(topology, root, rng):
    """A few N.in-addr.arpa zones with wildcard PTR answers."""
    arpa = root.tlds.get("arpa")
    if arpa is None:
        return []
    zones = []
    for octet in (198, 203, 100, 20):
        name = "%d.in-addr.arpa" % octet
        servers = [topology.allocate_nameserver(
            rng.choice(("PCH", "ULTRADNS")),
            hostname="ns%d.rdns%d.arpa-ops.net" % (i + 1, octet))
            for i in range(2)]
        zone = SldZone(name, servers, soa_negttl=3600)
        # ~55% of reverse names exist (Table 2: PTR valid 54%).
        zone.wildcard = {"PTR": (86400, ("host.isp-pool.net",)),
                         "_exists_prob": 0.55}
        zone.add_record(name, QTYPE.NS, 86400,
                        tuple(ns.hostname for ns in servers))
        arpa.register(zone)
        zones.append(zone)
    return zones


def _build_catalog(scenario, root, slds, rng):
    """The popular-FQDN catalog: rank -> (fqdn, zone)."""
    catalog = []
    specials = {rank: fqdn for fqdn, rank, _, _ in SPECIAL_V4ONLY}
    sld_sampler = ZipfSampler(max(len(slds), 1), scenario.sld_zipf_s)
    lookup = {zone.name: zone for zone in slds}
    xmsecu = lookup.get("xmsecu.com")
    rank = 0
    while len(catalog) < scenario.popular_fqdns and slds:
        if rank in specials:
            fqdn = specials[rank]
            zone = lookup.get(fqdn.split(".", 1)[1])
            if zone is not None:
                _ensure_special_record(zone, fqdn)
                catalog.append((fqdn, zone))
                rank += 1
                continue
        if rank == 50 and xmsecu is not None:
            catalog.append((XMSECU_FQDN, xmsecu))
            rank += 1
            continue
        zone = slds[sld_sampler.sample(rng)]
        # Browsers look up names that resolve to addresses: skip the
        # service-only records (_sip._tcp and friends).
        fqdns = [f for f in zone.fqdns()
                 if zone.get_record(f, QTYPE.A) is not None
                 or zone.get_record(f, QTYPE.CNAME) is not None]
        if not fqdns:
            continue
        fqdn = rng.choice(fqdns)
        catalog.append((fqdn, zone))
        rank += 1
    return catalog


def _ensure_special_record(zone, fqdn):
    """Make sure the Figure 9 FQDNs exist (A-only, zone TTL)."""
    if zone.get_record(fqdn, QTYPE.A) is None:
        base = zone.get_record(zone.name, QTYPE.A)
        ttl = base.ttl if base else 300
        zone.add_record(fqdn, QTYPE.A, ttl, ("198.51.100.77",))
    zone.remove_record(fqdn, QTYPE.AAAA)
