"""DNS protocol substrate: names, records, messages, wire format, PSL.

DNS Observatory parses "raw packets, starting at the IP header"
(Section 2.1).  This subpackage provides the DNS half of that parser --
a self-contained RFC 1035 implementation with the pieces the paper's
feature set needs:

* :mod:`~repro.dnswire.name` -- domain name handling (labels, wire
  codec with message compression);
* :mod:`~repro.dnswire.constants` -- QTYPE / RCODE / flag registries;
* :mod:`~repro.dnswire.rdata` -- typed RDATA for A, AAAA, NS, CNAME,
  SOA, MX, TXT, PTR, SRV, DS, RRSIG and OPT;
* :mod:`~repro.dnswire.message` -- full message model with wire
  encode/decode (header, question, answer/authority/additional);
* :mod:`~repro.dnswire.edns` -- EDNS0 OPT pseudo-record (payload size,
  DO flag) per RFC 6891;
* :mod:`~repro.dnswire.psl` -- Public Suffix List engine for
  effective-TLD / effective-SLD extraction (Section 2 terminology).
"""

from repro.dnswire.constants import CLASS_IN, FLAGS, QTYPE, RCODE
from repro.dnswire.message import Message, Question, ResourceRecord
from repro.dnswire.name import (
    count_labels,
    decode_name,
    encode_name,
    normalize_name,
    split_labels,
)
from repro.dnswire.psl import PublicSuffixList, default_psl

__all__ = [
    "CLASS_IN",
    "FLAGS",
    "QTYPE",
    "RCODE",
    "Message",
    "Question",
    "ResourceRecord",
    "count_labels",
    "decode_name",
    "encode_name",
    "normalize_name",
    "split_labels",
    "PublicSuffixList",
    "default_psl",
]
