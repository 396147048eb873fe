"""Public Suffix List engine: effective TLDs and effective SLDs.

Terminology from Section 2 of the paper: "effective TLDs" (eTLDs) are
the ICANN domains listed in the Public Suffix List (e.g. ``co.uk``),
and an "effective SLD" (eSLD) is a label directly under an eTLD (e.g.
``bbc.co.uk``).

This module implements the standard PSL matching algorithm
(https://publicsuffix.org/list/), including wildcard rules (``*.ck``)
and exception rules (``!www.ck``).  An embedded snapshot of common
ICANN suffixes is provided for offline use; production deployments can
load the full list by handing its lines to :class:`PublicSuffixList`.
"""

from repro.dnswire.name import normalize_name, split_labels
from repro.memo import BoundedMemo

#: Embedded snapshot of ICANN public suffixes.  A small but realistic
#: subset: legacy gTLDs, popular new gTLDs, ccTLDs with and without
#: second-level registration trees, the .ck wildcard with its
#: historical exception, and the reverse-DNS .arpa tree.
BUILTIN_SUFFIXES = """
// legacy gTLDs
com
net
org
edu
gov
mil
int
// infrastructure
arpa
in-addr.arpa
ip6.arpa
// popular new gTLDs
info
biz
io
co
ai
me
top
xyz
online
site
club
dev
app
cloud
icu
vip
shop
work
tech
store
// ccTLDs, flat
de
fr
nl
se
ch
at
be
ca
us
it
es
pl
cn
ru
ke
by
// ccTLDs with second-level trees (the Table 3 whitelist cases)
uk
co.uk
org.uk
ac.uk
gov.uk
il
co.il
org.il
ac.il
net.me
org.me
au
com.au
net.au
org.au
jp
co.jp
ne.jp
or.jp
br
com.br
net.br
org.br
com.pl
net.pl
co.ke
or.ke
com.cn
net.cn
org.cn
// wildcard + exception (PSL reference example)
ck
*.ck
!www.ck
"""


class PublicSuffixList:
    """PSL rule matcher.

    Parameters
    ----------
    rules:
        Iterable of rule strings in PSL syntax (``co.uk``, ``*.ck``,
        ``!www.ck``).  Comments (``//``) and blanks are ignored.
    """

    #: memoization cap -- popular QNAMEs repeat millions of times in
    #: the stream; the cache is cleared wholesale when it fills, and
    #: each clear counts as a ``psl`` clear in :mod:`repro.memo`
    _CACHE_LIMIT = 200_000

    def __init__(self, rules):
        self._exact = set()
        self._wildcards = set()
        self._exceptions = set()
        self._tld_cache = BoundedMemo("psl")
        for raw in rules:
            rule = raw.split("//")[0].strip().lower()
            if not rule:
                continue
            if rule.startswith("!"):
                self._exceptions.add(rule[1:])
            elif rule.startswith("*."):
                self._wildcards.add(rule[2:])
            else:
                self._exact.add(rule)

    @classmethod
    def builtin(cls):
        """Build from the embedded ICANN snapshot."""
        return cls(BUILTIN_SUFFIXES.splitlines())

    def effective_tld(self, name):
        """Return the public suffix (eTLD) of *name*, or None.

        ``bbc.co.uk`` -> ``co.uk``; ``example.com`` -> ``com``.  A name
        that *is* a public suffix returns itself.  Unknown TLDs fall
        back to the last label (the implicit ``*`` default rule).
        Results are memoized (the stream repeats names heavily).
        """
        cached = self._tld_cache.get(name)
        if cached is not None:
            return cached or None  # "" encodes a cached None
        labels = split_labels(name)
        if not labels:
            return None
        result = self._effective_tld_uncached(labels)
        self._tld_cache.put(name, result or "", self._CACHE_LIMIT)
        return result

    def _effective_tld_uncached(self, labels):
        best = None
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            if candidate in self._exceptions:
                # Exception rule: the suffix is the rule minus its
                # leftmost label; it beats any wildcard match.
                return ".".join(labels[i + 1:]) or None
            if candidate in self._exact:
                if best is None:
                    best = candidate
            parent = ".".join(labels[i + 1:])
            if parent and parent in self._wildcards:
                if best is None or len(candidate) > len(best):
                    best = candidate
        if best is not None:
            return best
        return labels[-1]  # implicit default rule "*"

    def effective_sld(self, name):
        """Return the registrable domain (eSLD) of *name*, or None.

        ``www.bbc.co.uk`` -> ``bbc.co.uk``.  Returns None when *name*
        is itself a public suffix (nothing is registered under it).
        """
        name = normalize_name(name)
        etld = self.effective_tld(name)
        if etld is None or name == etld:
            return None
        remainder = name[: -(len(etld) + 1)]
        last_label = remainder.rsplit(".", 1)[-1]
        return "%s.%s" % (last_label, etld)


_DEFAULT = None


def default_psl():
    """Shared process-wide builtin PSL instance (lazily constructed)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList.builtin()
    return _DEFAULT
