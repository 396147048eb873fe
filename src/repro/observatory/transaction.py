"""The transaction summary record (output of preprocessing, §2.1).

"We retain only the relevant pieces of information, e.g., resolver and
nameserver IP address, response delay, DNS header contents, queried
name, and select DNS record data.  Our goal is to make the data easier
to process in the next steps, given the data volume."

A :class:`Transaction` is exactly that: one UDP/53 query-response pair
(or an unanswered query) reduced to the fields the Section 2.3 feature
set needs.  Privacy-sensitive EDNS0 payload (cookies, client subnet)
is already gone at this point (§2.5), and the raw packet timestamps
have been collapsed into a single response delay.

The paper "summarize[s] each transaction with a line of text";
:meth:`Transaction.to_line` / :meth:`Transaction.from_line` implement
that serialization, so streams can be replayed from disk.
"""

import math

from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.name import count_labels, normalize_name

_FIELD_SEP = "\t"
_LIST_SEP = ","
_NONE = "-"


class Transaction:
    """One summarized DNS transaction between a resolver and a nameserver.

    Attributes mirror the information DNS Observatory retains after
    preprocessing; everything else from the raw packets is dropped.
    """

    __slots__ = (
        "ts", "resolver_ip", "server_ip", "source", "qname", "qtype",
        "rcode", "answered", "aa", "tc", "edns_do", "has_rrsig",
        "delay_ms", "observed_ttl", "response_size",
        "answer_count", "authority_ns_count", "additional_count",
        "answer_ttls", "ns_ttls", "answer_ips", "cname_targets",
        "ns_names",
    )

    def __init__(self, ts, resolver_ip, server_ip, qname, qtype,
                 rcode=None, answered=True, aa=False, tc=False,
                 edns_do=False, has_rrsig=False, delay_ms=0.0,
                 observed_ttl=64, response_size=0, answer_count=0,
                 authority_ns_count=0, additional_count=0,
                 answer_ttls=(), ns_ttls=(), answer_ips=(),
                 cname_targets=(), ns_names=(), source="src0"):
        #: virtual timestamp of the query (seconds)
        self.ts = float(ts)
        #: recursive resolver IP address (the sensor's vantage point)
        self.resolver_ip = resolver_ip
        #: authoritative nameserver IP address
        self.server_ip = server_ip
        #: SIE contributor/channel identifier (the *sources* feature)
        self.source = source
        #: queried name, canonical form
        self.qname = normalize_name(qname)
        #: query type (int, compare with :class:`QTYPE`)
        self.qtype = int(qtype)
        #: response code, or None when unanswered
        self.rcode = None if rcode is None else int(rcode)
        #: False when no response packet was observed
        self.answered = bool(answered)
        #: Authoritative Answer flag of the response
        self.aa = bool(aa)
        #: Truncated flag of the response
        self.tc = bool(tc)
        #: EDNS0 DO flag (query/response pair requested DNSSEC)
        self.edns_do = bool(edns_do)
        #: response carries RRSIG records in any section
        self.has_rrsig = bool(has_rrsig)
        #: server response delay in milliseconds
        self.delay_ms = float(delay_ms)
        #: IP TTL observed on the response packet (hop inference input)
        self.observed_ttl = int(observed_ttl)
        #: response packet size in bytes
        self.response_size = int(response_size)
        #: records in the ANSWER section
        self.answer_count = int(answer_count)
        #: NS records in the AUTHORITY section
        self.authority_ns_count = int(authority_ns_count)
        #: records in ADDITIONAL, excluding the EDNS0 OPT
        self.additional_count = int(additional_count)
        #: DNS TTL values of ANSWER records
        self.answer_ttls = tuple(answer_ttls)
        #: DNS TTL values of AUTHORITY NS records
        self.ns_ttls = tuple(ns_ttls)
        #: IPv4/IPv6 address strings returned in A/AAAA answers
        self.answer_ips = tuple(answer_ips)
        #: CNAME targets in the answer chain (select record data)
        self.cname_targets = tuple(cname_targets)
        #: NS hostnames from the AUTHORITY section (select record data;
        #: the Section 4.2 NS-change detection relies on these)
        self.ns_names = tuple(ns_names)

    # -- derived views used by feature extraction ----------------------

    @property
    def noerror(self):
        return self.answered and self.rcode == RCODE.NOERROR

    @property
    def qdots(self):
        """Number of QNAME labels (the *qdots* feature)."""
        return count_labels(self.qname)

    def qtype_name(self):
        return QTYPE.name_of(self.qtype)

    # -- line serialization (§2.1 "summarize each transaction with a
    #    line of text") ------------------------------------------------

    def to_line(self):
        """Serialize to a single TSV line."""
        fields = [
            "%.6f" % self.ts,
            self.resolver_ip,
            self.server_ip,
            self.source,
            self.qname or ".",
            str(self.qtype),
            _NONE if self.rcode is None else str(self.rcode),
            "1" if self.answered else "0",
            "%d%d%d%d" % (self.aa, self.tc, self.edns_do, self.has_rrsig),
            "%.3f" % self.delay_ms,
            str(self.observed_ttl),
            str(self.response_size),
            "%d/%d/%d" % (self.answer_count, self.authority_ns_count,
                          self.additional_count),
            _LIST_SEP.join(map(str, self.answer_ttls)) or _NONE,
            _LIST_SEP.join(map(str, self.ns_ttls)) or _NONE,
            _LIST_SEP.join(self.answer_ips) or _NONE,
            _LIST_SEP.join(self.cname_targets) or _NONE,
            _LIST_SEP.join(self.ns_names) or _NONE,
        ]
        return _FIELD_SEP.join(fields)

    @classmethod
    def from_line(cls, line):
        """Parse a line produced by :meth:`to_line`.

        Raises ``ValueError`` for a malformed line, including a numeric
        field outside its domain (named in the message): lines come
        from outside the program, and such a value would otherwise
        surface as a crash deep inside the feature update.
        """
        fields = line.rstrip("\n").split(_FIELD_SEP)
        if len(fields) != 18:
            raise ValueError("transaction line has %d fields" % len(fields))
        (ts, resolver_ip, server_ip, source, qname, qtype, rcode, answered,
         flags, delay_ms, observed_ttl, response_size, counts, answer_ttls,
         ns_ttls, answer_ips, cname_targets, ns_names) = fields
        if len(flags) != 4 or any(c not in "01" for c in flags):
            raise ValueError("malformed flags field %r" % (flags,))
        counts_parts = counts.split("/")
        if len(counts_parts) != 3:
            raise ValueError("malformed counts field %r" % (counts,))
        an, ns, ad = counts_parts
        txn = cls(
            ts=float(ts),
            resolver_ip=resolver_ip,
            server_ip=server_ip,
            source=source,
            qname="" if qname == "." else qname,
            qtype=int(qtype),
            rcode=None if rcode == _NONE else int(rcode),
            answered=answered == "1",
            aa=flags[0] == "1",
            tc=flags[1] == "1",
            edns_do=flags[2] == "1",
            has_rrsig=flags[3] == "1",
            delay_ms=float(delay_ms),
            observed_ttl=int(observed_ttl),
            response_size=int(response_size),
            answer_count=int(an),
            authority_ns_count=int(ns),
            additional_count=int(ad),
            answer_ttls=() if answer_ttls == _NONE
            else tuple(int(x) for x in answer_ttls.split(_LIST_SEP)),
            ns_ttls=() if ns_ttls == _NONE
            else tuple(int(x) for x in ns_ttls.split(_LIST_SEP)),
            answer_ips=() if answer_ips == _NONE
            else tuple(answer_ips.split(_LIST_SEP)),
            cname_targets=() if cname_targets == _NONE
            else tuple(cname_targets.split(_LIST_SEP)),
            ns_names=() if ns_names == _NONE
            else tuple(ns_names.split(_LIST_SEP)),
        )
        txn.check_domains()
        return txn

    def check_domains(self):
        """Raise ``ValueError`` naming the numeric field that is
        outside its domain: a non-finite ``ts``, a negative or
        non-finite ``delay_ms``, an ``observed_ttl`` outside 0..255, a
        negative ``response_size``.  The window grid, the delay and
        size histograms and the hop inference are undefined there."""
        if not -math.inf < self.ts < math.inf:
            raise ValueError("ts out of range: %r" % (self.ts,))
        if not 0.0 <= self.delay_ms < math.inf:
            raise ValueError("delay_ms out of range: %r" % (self.delay_ms,))
        if not 0 <= self.observed_ttl <= 255:
            raise ValueError("observed_ttl out of range: %r"
                             % (self.observed_ttl,))
        if self.response_size < 0:
            raise ValueError("response_size out of range: %r"
                             % (self.response_size,))

    def __repr__(self):
        status = RCODE.name_of(self.rcode) if self.answered else "UNANSWERED"
        return "Transaction(%.3f, %s -> %s, %s %s, %s)" % (
            self.ts, self.resolver_ip, self.server_ip,
            self.qname, self.qtype_name(), status,
        )


class TransactionLines:
    """Transactions parsed from an iterable of byte lines.

    Blank lines are ignored.  A malformed line -- one that is not
    UTF-8 included -- is skipped and counted in :attr:`skipped`: the
    platform drops what it cannot parse rather than stalling the
    stream, as :func:`~repro.observatory.preprocess.summarize_batch`
    does for malformed packets.
    """

    def __init__(self, lines):
        self.lines = lines
        #: malformed lines dropped so far
        self.skipped = 0

    def __iter__(self):
        from_line = Transaction.from_line
        for line in self.lines:
            if line.strip():
                try:  # UnicodeDecodeError is a ValueError
                    yield from_line(line.rstrip(b"\r\n").decode("utf-8"))
                except ValueError:
                    self.skipped += 1
