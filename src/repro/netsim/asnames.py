"""AS name registry and organization-name extraction.

Section 3.3: "for each ASN, we lookup its name using the AS Names
dataset [35].  Finally, we extract the organization name from each AS
Name string, and aggregate nameservers in groups based on the result."

AS Names strings look like ``"AMAZON-02 - Amazon.com, Inc., US"`` or
``"CLOUDFLARENET - Cloudflare, Inc., US"``; several ASes of one
operator share an organization (Table 1 reports AMAZON with 3 ASes,
VERISIGN with 7, ...).  :func:`extract_org` normalizes the leading
network tag into that shared organization name.
"""

import re

_ORG_TAG = re.compile(r"^([A-Za-z][A-Za-z0-9&.]*)")
_TRAILING_QUALIFIER = re.compile(
    r"(NET(WORK)?S?|COM|ORG|INC|LLC|AS|ASN|EU|US|INT|GLOBAL)$"
)


def extract_org(as_name):
    """Extract a normalized organization name from an AS Name string.

    ``"AMAZON-02 - Amazon.com, Inc., US"`` -> ``"AMAZON"``;
    ``"CLOUDFLARENET - Cloudflare, Inc."`` -> ``"CLOUDFLARE"``;
    ``"MICROSOFT-CORP-MSN-AS-BLOCK"`` -> ``"MICROSOFT"``.

    The heuristic mirrors the paper's aggregation: take the leading
    tag before any separator, uppercase it, and strip common suffixes
    (numeric qualifiers, NET/COM/INC/AS...).
    """
    if not as_name:
        return "UNKNOWN"
    head = as_name.split(" - ")[0].split(",")[0].strip()
    # Keep only the first dash-free tag plus handle NAME-NN qualifiers.
    tag = head.split(" ")[0]
    parts = tag.split("-")
    base = parts[0].upper()
    match = _ORG_TAG.match(base)
    if match:
        base = match.group(1).upper()
    # CLOUDFLARENET -> CLOUDFLARE, GOOGLENET -> GOOGLE, but do not
    # truncate short names (PCH must stay PCH).
    stripped = _TRAILING_QUALIFIER.sub("", base)
    if len(stripped) >= 4:
        base = stripped
    return base or "UNKNOWN"


class AsNameRegistry:
    """ASN -> AS Name mapping with organization grouping."""

    def __init__(self):
        self._names = {}

    def add(self, asn, as_name):
        """Register *as_name* for *asn*."""
        self._names[int(asn)] = as_name

    def org(self, asn):
        """Return the extracted organization name for *asn*."""
        if asn is None:
            return "UNKNOWN"
        name = self._names.get(int(asn))
        return extract_org(name) if name else "AS%d" % asn

    @classmethod
    def from_tsv(cls, lines):
        """Load from TSV lines: ``asn<TAB>as_name``."""
        reg = cls()
        for raw in lines:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            asn, name = line.split("\t", 1)
            reg.add(int(asn), name)
        return reg
