"""Resolver-side caches: TTL cache and RFC 2308 negative cache.

Caching is what turns client queries into the *cache-miss* stream the
Observatory sees ("we analyze the DNS cache-miss query-response
transactions above DNS resolvers", §2.1), and the interplay between
record TTLs and negative-caching TTLs drives Sections 4 and 5.
"""

from collections import OrderedDict


class TtlCache:
    """A bounded TTL cache with LRU eviction.

    Keys are arbitrary hashables; each entry carries an absolute
    expiry time.  Expired entries are dropped lazily on access.
    """

    def __init__(self, max_entries=100_000):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        #: lookup accounting
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    def get(self, key, now):
        """Return the cached payload, or None (miss or expired)."""
        item = self._entries.get(key)
        if item is None:
            self.misses += 1
            return None
        expire, payload = item
        if now >= expire:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key, payload, ttl, now):
        """Cache *payload* under *key* for *ttl* seconds."""
        if ttl <= 0:
            return  # TTL 0 records are not cached (RFC 1035)
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = (now + ttl, payload)

    def remaining_ttl(self, key, now):
        """Seconds until *key* expires, or 0 when absent/expired."""
        item = self._entries.get(key)
        if item is None:
            return 0.0
        return max(0.0, item[0] - now)

    def invalidate(self, key):
        """Drop *key* if present."""
        self._entries.pop(key, None)


#: sentinel payloads for the negative cache
NEG_NXDOMAIN = "NXDOMAIN"
NEG_NODATA = "NODATA"


class NegativeCache:
    """RFC 2308 negative cache.

    NXDOMAIN is cached per *name* (it denies the whole name, any
    type); NoData is cached per (name, qtype).  The caching duration
    comes from the zone's SOA minimum -- the "negative caching TTL"
    whose misconfiguration Section 5 dissects.
    """

    def __init__(self, max_entries=100_000):
        self._cache = TtlCache(max_entries)

    def put_nxdomain(self, qname, negttl, now):
        self._cache.put(("nxd", qname), NEG_NXDOMAIN, negttl, now)

    def put_nodata(self, qname, qtype, negttl, now):
        self._cache.put(("nodata", qname, int(qtype)), NEG_NODATA, negttl, now)

    def get(self, qname, qtype, now):
        """Return NEG_NXDOMAIN / NEG_NODATA / None for (qname, qtype)."""
        if self._cache.get(("nxd", qname), now) is not None:
            return NEG_NXDOMAIN
        if self._cache.get(("nodata", qname, int(qtype)), now) is not None:
            return NEG_NODATA
        return None
