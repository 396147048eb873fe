"""Zone data model: root, TLD and SLD zones with mutable records.

The simulated DNS tree has three authoritative levels, matching the
resolution paths the paper observes:

* :class:`RootZone` -- 13 root letters; refers to TLD servers or
  answers NXDOMAIN for nonexistent TLDs (Section 3.5: 96.2 % of root
  traffic is NXDOMAIN);
* :class:`TldZone` -- e.g. ``com`` served by the 13 gTLD letters;
  refers to SLD nameservers or answers NXDOMAIN (where the botnet DGA
  traffic of Section 3.2 lands);
* :class:`SldZone` -- authoritative answers with the AA flag: data,
  NoData (the Section 5 empty-AAAA case), or NXDOMAIN, all with the
  zone's SOA negative-caching TTL.

Records are mutable so scripted events (Section 4: TTL changes,
renumbering, NS changes, IPv6 activation) can be applied mid-run.
"""

from repro.dnswire.constants import QTYPE, RCODE


class RecordSet:
    """One (name, qtype) RRset: TTL + value tuple."""

    __slots__ = ("ttl", "values")

    def __init__(self, ttl, values):
        self.ttl = int(ttl)
        self.values = tuple(values)

    def __repr__(self):
        return "RecordSet(ttl=%d, %r)" % (self.ttl, self.values)


class Answer:
    """Outcome of one authoritative query -- the simulator's compact
    stand-in for a response message (convertible to real wire bytes by
    :mod:`repro.simulation.authoritative`)."""

    __slots__ = ("rcode", "aa", "records", "referral_ns", "ns_ttl",
                 "soa_negttl", "signed", "cname_targets")

    def __init__(self, rcode, aa, records=(), referral_ns=(), ns_ttl=0,
                 soa_negttl=None, signed=False, cname_targets=()):
        #: response code (RCODE)
        self.rcode = rcode
        #: authoritative answer flag
        self.aa = aa
        #: ANSWER section: tuples (qtype, ttl, value)
        self.records = tuple(records)
        #: AUTHORITY NS hostnames (referral or zone NS)
        self.referral_ns = tuple(referral_ns)
        #: TTL of the authority NS records
        self.ns_ttl = ns_ttl
        #: SOA minimum present in AUTHORITY (negative answers)
        self.soa_negttl = soa_negttl
        #: zone is DNSSEC-signed (RRSIGs accompany the answer)
        self.signed = signed
        #: CNAME chain targets included in the answer
        self.cname_targets = tuple(cname_targets)

    @property
    def is_referral(self):
        return (self.rcode == RCODE.NOERROR and not self.aa
                and bool(self.referral_ns))

    @property
    def answer_ips(self):
        return tuple(value for qtype, _, value in self.records
                     if qtype in (QTYPE.A, QTYPE.AAAA))

    def estimated_size(self, qname):
        """Rough response wire size in bytes (resp_size feature).

        Header (12) + question (len+6) + ~28 bytes per answer record +
        ~24 per authority record + SOA (~44).
        """
        size = 12 + len(qname) + 6
        size += 28 * len(self.records)
        size += 24 * len(self.referral_ns)
        if self.soa_negttl is not None:
            size += 44 + len(qname) // 2
        if self.signed:
            size += 96 * max(1, len(self.records) // 2)
        return size


class SldZone:
    """A second-level (registrable) zone with authoritative data."""

    #: TTL of the zone's NS records
    ns_ttl = 86400

    def __init__(self, name, nameservers, soa_negttl=3600, signed=False,
                 dynamic_ttl=False):
        #: zone apex, canonical form (e.g. ``example.com``)
        self.name = name
        #: list of :class:`~repro.simulation.topology.Nameserver`
        self.nameservers = list(nameservers)
        #: RFC 2308 negative-caching TTL (SOA minimum)
        self.soa_negttl = int(soa_negttl)
        #: DNSSEC-signed zone
        self.signed = signed
        #: non-conforming server: answers with a varying (decreasing)
        #: TTL on every response (the Table 4 "Non-conforming" class)
        self.dynamic_ttl = dynamic_ttl
        #: fqdn -> {qtype: RecordSet}
        self.records = {}
        #: wildcard answers: {"A"/"TXT"/"PTR": (ttl, values)} applied
        #: to any name under the apex not explicitly present; the
        #: special key "_exists_prob" makes a (deterministic) fraction
        #: of names NXDOMAIN instead (reverse-DNS realism).
        self.wildcard = None
        self._dynamic_counter = 0

    # -- record management ----------------------------------------------

    def add_record(self, fqdn, qtype, ttl, values):
        """Install/replace the RRset for (fqdn, qtype)."""
        fqdn = fqdn.lower().rstrip(".")
        self.records.setdefault(fqdn, {})[int(qtype)] = RecordSet(ttl, values)

    def get_record(self, fqdn, qtype):
        by_type = self.records.get(fqdn)
        return by_type.get(int(qtype)) if by_type else None

    def remove_record(self, fqdn, qtype):
        by_type = self.records.get(fqdn)
        if by_type:
            by_type.pop(int(qtype), None)

    def set_ttl(self, fqdn, qtype, ttl):
        """Change an RRset's TTL in place (scripted TtlChange)."""
        rset = self.get_record(fqdn, qtype)
        if rset is None:
            raise KeyError("no %s record at %s" % (qtype, fqdn))
        rset.ttl = int(ttl)

    def fqdns(self):
        return list(self.records)

    # -- query answering ---------------------------------------------------

    def answer(self, qname, qtype):
        """Authoritative answer for *qname*/*qtype* (AA always set)."""
        qname = qname.lower().rstrip(".")
        qtype = int(qtype)
        by_type = self.records.get(qname)
        if by_type is None:
            return self._wildcard_answer(qname, qtype)
        records = []
        cname_targets = []
        rset = by_type.get(qtype)
        if rset is None and QTYPE.CNAME in by_type and qtype != QTYPE.CNAME:
            # Follow the CNAME chain within this zone.
            cname = by_type[QTYPE.CNAME]
            target = cname.values[0]
            records.append((int(QTYPE.CNAME), self._ttl(cname), target))
            cname_targets.append(target)
            target_types = self.records.get(target.lower().rstrip("."), {})
            rset = target_types.get(qtype)
        if rset is None and qtype == QTYPE.ANY:
            for any_qtype, any_rset in by_type.items():
                for value in any_rset.values:
                    records.append((any_qtype, self._ttl(any_rset), value))
            rset = None
        elif rset is not None:
            for value in rset.values:
                records.append((qtype, self._ttl(rset), value))
        if not records:
            # Existing name, no data of this type: NoData with SOA.
            return Answer(RCODE.NOERROR, aa=True,
                          soa_negttl=self.soa_negttl, signed=self.signed)
        return Answer(RCODE.NOERROR, aa=True, records=records,
                      signed=self.signed, cname_targets=cname_targets)

    def _wildcard_answer(self, qname, qtype):
        """Answer for a name with no explicit records: wildcard data,
        wildcard NoData, or NXDOMAIN."""
        nxdomain = Answer(RCODE.NXDOMAIN, aa=True,
                          soa_negttl=self.soa_negttl, signed=self.signed)
        wildcard = self.wildcard
        if wildcard is None:
            return nxdomain
        if qname != self.name and not qname.endswith("." + self.name):
            return nxdomain
        exists_prob = wildcard.get("_exists_prob")
        if exists_prob is not None:
            from repro.sketches._hashing import hash64

            if hash64(qname, seed=97) / 2.0 ** 64 >= exists_prob:
                return nxdomain
        spec = wildcard.get(QTYPE.name_of(qtype))
        if spec is None:
            # The wildcard synthesizes the name but not this type.
            return Answer(RCODE.NOERROR, aa=True,
                          soa_negttl=self.soa_negttl, signed=self.signed)
        ttl, values = spec
        records = tuple((int(qtype), ttl, value) for value in values)
        return Answer(RCODE.NOERROR, aa=True, records=records,
                      signed=self.signed)

    def _ttl(self, rset):
        if not self.dynamic_ttl:
            return rset.ttl
        # Non-conforming: cycle a decreasing TTL below the nominal one.
        self._dynamic_counter = (self._dynamic_counter + 7) % 1024
        return max(1, rset.ttl - self._dynamic_counter)


class TldZone:
    """A top-level zone: delegations to SLD nameservers."""

    ns_ttl = 172800
    soa_negttl = 900

    def __init__(self, name, nameservers, registry_suffixes=()):
        self.name = name
        self.nameservers = list(nameservers)
        #: extra public-suffix trees hosted in this TLD zone (e.g.
        #: ``co.uk`` inside ``uk``) -- the Table 3 whitelist cases
        self.registry_suffixes = tuple(registry_suffixes)
        #: sld apex -> SldZone
        self.slds = {}

    def register(self, sld_zone):
        self.slds[sld_zone.name] = sld_zone

    def delegation_for(self, qname):
        """Return the :class:`SldZone` whose delegation covers *qname*."""
        qname = qname.lower().rstrip(".")
        labels = qname.split(".")
        # Try progressively shorter suffixes: deepest registrable first
        # (handles multi-label suffixes like co.uk).
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            zone = self.slds.get(candidate)
            if zone is not None:
                return zone
        return None

    def answer(self, qname, qtype):
        """Referral to the SLD's nameservers, or NXDOMAIN."""
        zone = self.delegation_for(qname)
        if zone is None:
            qname_c = qname.lower().rstrip(".")
            if qname_c == self.name or qname_c in self.registry_suffixes:
                # Query for the TLD apex itself: minimal NoError.
                return Answer(RCODE.NOERROR, aa=True,
                              referral_ns=tuple(
                                  ns.hostname for ns in self.nameservers),
                              ns_ttl=self.ns_ttl)
            return Answer(RCODE.NXDOMAIN, aa=True,
                          soa_negttl=self.soa_negttl)
        return Answer(
            RCODE.NOERROR, aa=False,
            referral_ns=tuple(ns.hostname for ns in zone.nameservers),
            ns_ttl=zone.ns_ttl,
        )


class RootZone:
    """The root: delegations to TLD nameservers."""

    NS_TTL = 518400
    SOA_NEGTTL = 86400

    def __init__(self, nameservers):
        #: the 13 root letters (anycast nameservers)
        self.nameservers = list(nameservers)
        #: tld name -> TldZone
        self.tlds = {}

    def register(self, tld_zone):
        self.tlds[tld_zone.name] = tld_zone

    def tld_of(self, qname):
        qname = qname.lower().rstrip(".")
        return qname.rsplit(".", 1)[-1] if qname else ""

    def answer(self, qname, qtype):
        tld = self.tld_of(qname)
        zone = self.tlds.get(tld)
        if zone is None:
            return Answer(RCODE.NXDOMAIN, aa=True,
                          soa_negttl=self.SOA_NEGTTL)
        return Answer(
            RCODE.NOERROR, aa=False,
            referral_ns=tuple(ns.hostname for ns in zone.nameservers),
            ns_ttl=zone.ns_ttl,
        )
