"""EDNS0 (RFC 6891) OPT pseudo-record handling.

The OPT record abuses the RR header fields: the *class* carries the
requestor's maximum UDP payload size and the *TTL* packs the extended
RCODE, EDNS version, and the flags word whose high bit is DO
("DNSSEC OK").  Section 2.3 uses the DO flag for the ok_sec feature,
and Section 2.5 notes that other EDNS0 payload data (cookies, client
subnet) is dropped early for privacy: the preprocessor reads only the
DO bit of the first OPT record, and the codec keeps options opaque.
"""

from repro.dnswire.constants import EDNS_DEFAULT_PAYLOAD, EDNS_DO, QTYPE
from repro.dnswire.message import ResourceRecord
from repro.dnswire.rdata import OPT


def make_opt(payload_size=EDNS_DEFAULT_PAYLOAD, dnssec_ok=False,
             ext_rcode=0, version=0):
    """Build an EDNS0 OPT pseudo-record for the additional section."""
    flags = EDNS_DO if dnssec_ok else 0
    ttl = ((ext_rcode & 0xFF) << 24) | ((version & 0xFF) << 16) | flags
    return ResourceRecord(
        name="", rtype=QTYPE.OPT, ttl=ttl, rdata=OPT(), rclass=payload_size
    )
