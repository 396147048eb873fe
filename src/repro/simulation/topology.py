"""Network topology: organizations, ASes, prefixes, nameserver fleets.

Builds the cast of Table 1 -- AMAZON, VERISIGN, CLOUDFLARE, AKAMAI,
MICROSOFT, PCH, ULTRADNS, GOOGLE, DYNDNS, GODADDY -- plus a long tail
of hosting providers and ISPs, each with:

* one or more ASes announcing IPv4 (and some IPv6) prefixes,
  registered in an :class:`~repro.netsim.asdb.AsDatabase` and an
  :class:`~repro.netsim.asnames.AsNameRegistry` exactly like the
  Route Views + AS Names pipeline of Section 3.3;
* a *delay mix*: the distribution over the four Figure 3a distance
  classes its nameservers exhibit (CDNs anycast close to resolvers,
  cloud VPS fleets sit behind longer paths);
* a nameserver fleet grown on demand by the zone buildout.

Path selection: for an **anycast** nameserver each resolver draws its
own distance class from the org's mix (different resolvers hit
different mirrors); for a **unicast** nameserver the class is drawn
once and shared by all resolvers, with per-resolver jitter in the base
delay.
"""

from repro.netsim.asdb import AsDatabase
from repro.netsim.asnames import AsNameRegistry
from repro.netsim.latency import PathProfile

#: The Table 1 organizations: (name, kind, #ASes, anycast, delay mix,
#: server processing ms, share weight for SLD hosting assignment).
#: Delay mixes are tuned so mean delays/hops land near the paper's
#: Table 1 values (AMAZON 60.9 ms / 12 hops ... AKAMAI 14.9 ms / 7.3).
MAJOR_ORGS = (
    ("AMAZON", "cloud", 3, False,
     {"colocated": 0.02, "regional": 0.25, "distant": 0.71, "impaired": 0.02},
     2.0, 0.26),
    ("VERISIGN", "registry", 7, True,
     {"colocated": 0.05, "regional": 0.35, "distant": 0.60, "impaired": 0.00},
     0.5, 0.0),
    ("CLOUDFLARE", "cdn", 2, True,
     {"colocated": 0.25, "regional": 0.55, "distant": 0.20, "impaired": 0.00},
     0.3, 0.11),
    ("AKAMAI", "cdn", 6, True,
     {"colocated": 0.45, "regional": 0.45, "distant": 0.10, "impaired": 0.00},
     0.3, 0.11),
    ("MICROSOFT", "cloud", 5, False,
     {"colocated": 0.01, "regional": 0.15, "distant": 0.80, "impaired": 0.04},
     2.5, 0.05),
    ("PCH", "dns", 2, True,
     {"colocated": 0.20, "regional": 0.55, "distant": 0.25, "impaired": 0.00},
     0.5, 0.04),
    ("ULTRADNS", "dns", 1, True,
     {"colocated": 0.22, "regional": 0.58, "distant": 0.20, "impaired": 0.00},
     0.5, 0.04),
    ("GOOGLE", "cloud", 1, False,
     {"colocated": 0.01, "regional": 0.10, "distant": 0.85, "impaired": 0.04},
     2.0, 0.04),
    ("DYNDNS", "dns", 1, False,
     {"colocated": 0.05, "regional": 0.30, "distant": 0.65, "impaired": 0.00},
     1.0, 0.03),
    ("GODADDY", "hosting", 2, False,
     {"colocated": 0.02, "regional": 0.25, "distant": 0.70, "impaired": 0.03},
     1.5, 0.02),
)

_TAIL_MIX = {
    "colocated": 0.01, "regional": 0.20, "distant": 0.74, "impaired": 0.05,
}

#: registration countries for the long-tail hosters/ISPs, weighted
#: toward the hosting-heavy economies; assignment is a pure per-ASN
#: hash so adding the country layer perturbs no existing RNG stream
_TAIL_COUNTRIES = (
    "US", "US", "DE", "DE", "NL", "FR", "GB", "RU", "CN", "JP",
    "BR", "IN", "CA", "PL", "SG", "AU",
)

_AS_NAME_TEMPLATES = {
    "AMAZON": "AMAZON-%02d - Amazon.com, Inc., US",
    "VERISIGN": "VERISIGN-AS%d - VeriSign Global Registry Services, US",
    "CLOUDFLARE": "CLOUDFLARENET-%d - Cloudflare, Inc., US",
    "AKAMAI": "AKAMAI-ASN%d - Akamai Technologies, Inc., US",
    "MICROSOFT": "MICROSOFT-CORP-%02d - Microsoft Corporation, US",
    "PCH": "PCH-AS%d - Packet Clearing House, US",
    "ULTRADNS": "ULTRADNS-%d - NeuStar, Inc., US",
    "GOOGLE": "GOOGLE-%d - Google LLC, US",
    "DYNDNS": "DYNDNS-%d - Dynamic Network Services, US",
    "GODADDY": "GODADDY-%02d - GoDaddy.com, LLC, US",
}


class Organization:
    """One operator: ASes, prefixes, and a nameserver fleet."""

    def __init__(self, name, kind, asns, anycast, delay_mix,
                 server_delay_ms, hosting_weight=0.0):
        self.name = name
        self.kind = kind
        self.asns = list(asns)
        self.anycast = anycast
        self.delay_mix = dict(delay_mix)
        self.server_delay_ms = float(server_delay_ms)
        self.hosting_weight = float(hosting_weight)
        #: "a.b.0.0/16"-style IPv4 prefixes, one per AS by default
        self.prefixes = []
        #: IPv6 /48 prefixes (dual-stack orgs announce one per AS)
        self.v6_prefixes = []
        #: nameservers allocated so far
        self.nameservers = []
        self._next_host = {}

    def __repr__(self):
        return "Organization(%s, ASes=%r, servers=%d)" % (
            self.name, self.asns, len(self.nameservers))


class Nameserver:
    """One authoritative nameserver (IPv4, optionally dual-stack)."""

    __slots__ = ("ip", "ipv6", "hostname", "org", "anycast",
                 "distance_class", "server_delay_ms", "initial_ttl",
                 "unanswered_rate")

    def __init__(self, ip, hostname, org, anycast, distance_class,
                 server_delay_ms, initial_ttl=64, unanswered_rate=0.0,
                 ipv6=None):
        self.ip = ip
        #: optional IPv6 address of the same machine (the srvip
        #: dataset tracks "nameserver IPv4/IPv6 address", §3.1)
        self.ipv6 = ipv6
        self.hostname = hostname
        #: organization *name* (lookup via Topology.org())
        self.org = org
        self.anycast = anycast
        #: base distance class for unicast servers (mix key)
        self.distance_class = distance_class
        self.server_delay_ms = server_delay_ms
        self.initial_ttl = initial_ttl
        self.unanswered_rate = unanswered_rate

    def __repr__(self):
        return "Nameserver(%s, %s, %s)" % (self.ip, self.hostname, self.org)


class Topology:
    """Organizations + address plan + per-path delay profiles."""

    def __init__(self, hub, n_tail_orgs=60):
        self._hub = hub
        self._rng = hub.stream("topology")
        self.orgs = {}
        self.asdb = AsDatabase()
        self.asnames = AsNameRegistry()
        #: ASN -> ISO country code, the registration-country layer the
        #: vantage indices (:mod:`repro.analysis.vantage`) group by
        self.countries = {}
        self._next_asn = 64500
        self._used_slash16 = set()
        self._next_v6_index = 0
        self._path_cache = {}
        self.nameservers_by_ip = {}
        self._build_major_orgs()
        self._build_tail_orgs(n_tail_orgs)

    # -- construction ---------------------------------------------------

    def _build_major_orgs(self):
        for (name, kind, n_ases, anycast, mix, srv_delay,
             weight) in MAJOR_ORGS:
            org = Organization(name, kind, [], anycast, mix, srv_delay,
                               hosting_weight=weight)
            template = _AS_NAME_TEMPLATES[name]
            for i in range(n_ases):
                asn = self._next_asn
                self._next_asn += 1
                org.asns.append(asn)
                self.asnames.add(asn, template % (i + 1))
                self.countries[asn] = "US"  # the Table 1 cast is US-registered
                prefix = self._allocate_prefix()
                org.prefixes.append(prefix)
                self.asdb.add_prefix(prefix, asn)
                v6_prefix = self._allocate_v6_prefix()
                org.v6_prefixes.append(v6_prefix)
                self.asdb.add_prefix(v6_prefix, asn)
            self.orgs[name] = org

    def _build_tail_orgs(self, n_tail):
        for i in range(n_tail):
            name = "HOSTER%03d" % i
            kind = "hosting" if i % 3 else "isp"
            org = Organization(name, kind, [], False, _TAIL_MIX,
                               server_delay_ms=2.0,
                               hosting_weight=0.30 / max(n_tail, 1))
            asn = self._next_asn
            self._next_asn += 1
            org.asns.append(asn)
            self.asnames.add(
                asn, "%s-NET - %s Hosting Ltd" % (name, name.capitalize()))
            self.countries[asn] = _TAIL_COUNTRIES[int(
                self._hub.uniform_hash("cc:%d" % asn)
                * len(_TAIL_COUNTRIES))]
            prefix = self._allocate_prefix()
            org.prefixes.append(prefix)
            self.asdb.add_prefix(prefix, asn)
            v6_prefix = self._allocate_v6_prefix()
            org.v6_prefixes.append(v6_prefix)
            self.asdb.add_prefix(v6_prefix, asn)
            self.orgs[name] = org

    #: share of each org kind's nameservers that are dual-stack
    #: (server-side IPv6 adoption is highest among CDN/DNS operators)
    _V6_SERVER_FRACTION = {
        "cdn": 0.9, "dns": 0.9, "registry": 0.95, "root": 1.0,
        "cloud": 0.5, "hosting": 0.2, "isp": 0.15,
    }

    #: first octets excluded from the synthetic address plan
    #: (private/loopback/multicast/documentation space)
    _RESERVED_FIRST_OCTETS = frozenset(
        (0, 10, 100, 127, 169, 172, 192, 198, 203)
        + tuple(range(224, 256)))

    def _allocate_prefix(self):
        # Scatter org /16s across the unicast IPv4 space, like real
        # allocations -- the Figure 6 Hilbert map and the §3.7 /24
        # dispersion statistics depend on it.  Deterministic via the
        # topology RNG stream.
        while True:
            first = self._rng.randrange(1, 224)
            if first in self._RESERVED_FIRST_OCTETS:
                continue
            second = self._rng.randrange(256)
            if (first, second) not in self._used_slash16:
                self._used_slash16.add((first, second))
                return "%d.%d.0.0/16" % (first, second)

    def _allocate_v6_prefix(self):
        index = self._next_v6_index
        self._next_v6_index += 1
        return "2620:%x:%x::/48" % (0x100 + index // 0x10000,
                                    index % 0x10000)

    # -- fleet management ------------------------------------------------

    def allocate_nameserver(self, org_name, hostname=None,
                            unanswered_rate=0.0):
        """Create a new nameserver IP inside *org_name*'s space."""
        org = self.orgs[org_name]
        prefix = org.prefixes[len(org.nameservers) % len(org.prefixes)]
        base = prefix.split("/")[0].rsplit(".", 2)[0]  # "a.b"
        # Scatter hosts across the /16: real nameservers are widely
        # dispersed over the address space (§3.7: 48% of observed /24s
        # hold a single address).
        used = org._next_host.setdefault(prefix, set())
        while True:
            third = self._rng.randrange(256)
            fourth = self._rng.randrange(1, 255)
            if (third, fourth) not in used:
                used.add((third, fourth))
                break
        ip = "%s.%d.%d" % (base, third, fourth)
        if hostname is None:
            hostname = "ns%d.%s-dns.net" % (
                len(org.nameservers) + 1, org.name.lower())
        distance_class = self._draw_class(org.delay_mix)
        ipv6 = None
        v6_fraction = self._V6_SERVER_FRACTION.get(org.kind, 0.2)
        if org.v6_prefixes and self._rng.random() < v6_fraction:
            v6_base = org.v6_prefixes[
                len(org.nameservers) % len(org.v6_prefixes)].split("/")[0]
            # "2620:100:a::/48" -> "2620:100:a:53::7"
            ipv6 = "%s:53::%x" % (v6_base.rstrip(":"),
                                  len(org.nameservers) + 1)
        ns = Nameserver(
            ip=ip, hostname=hostname, org=org.name, anycast=org.anycast,
            distance_class=distance_class,
            server_delay_ms=org.server_delay_ms,
            initial_ttl=self._rng.choice((64, 64, 64, 255)),
            unanswered_rate=unanswered_rate,
            ipv6=ipv6,
        )
        org.nameservers.append(ns)
        self.nameservers_by_ip[ip] = ns
        if ipv6 is not None:
            self.nameservers_by_ip[ipv6] = ns
        return ns

    def _draw_class(self, mix, rng=None):
        rng = rng or self._rng
        r = rng.random()
        total = 0.0
        for cls_name, weight in mix.items():
            total += weight
            if r < total:
                return cls_name
        return "distant"

    # -- path model -------------------------------------------------------

    def path_profile(self, resolver_ip, ns):
        """Deterministic :class:`PathProfile` for a resolver-nameserver
        pair.  Anycast servers re-draw the distance class per resolver
        (each resolver reaches a nearby mirror); unicast servers keep
        their base class."""
        key = (resolver_ip, ns.ip)
        profile = self._path_cache.get(key)
        if profile is None:
            pair_rng = self._hub.fork("path:%s:%s" % (resolver_ip, ns.ip))
            if ns.anycast:
                distance_class = self._draw_class(
                    self.orgs[ns.org].delay_mix, pair_rng)
            else:
                distance_class = ns.distance_class
            profile = PathProfile.from_distance_class(
                distance_class, pair_rng, initial_ttl=ns.initial_ttl)
            profile.server_delay_ms = ns.server_delay_ms
            self._path_cache[key] = profile
        return profile

    def org_of_ip(self, ip):
        """Reverse lookup via the AS database (what the analysis does)."""
        asn = self.asdb.lookup(ip)
        return self.asnames.org(asn)
