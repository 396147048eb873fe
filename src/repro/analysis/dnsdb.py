"""A DNSDB-like passive DNS history store (Section 4.2 methodology).

The paper manually looks up FQDNs in Farsight's DNSDB -- "a more
detailed, historical record of the DNS" -- to classify detected TTL
changes.  This module provides the equivalent store, fed by the same
transaction stream: per (name, rtype) it records the observed RRset
values and TTLs with first-seen/last-seen timestamps, supporting the
questions Table 4 asks (did the A values change?  the NS set?  only
the TTL?  or does the TTL bounce around per response?).
"""

from repro.dnswire.constants import QTYPE


class RrsetObservation:
    """One observed (value-set, ttl) state of an RRset."""

    __slots__ = ("values", "ttl", "first_seen", "last_seen", "count")

    def __init__(self, values, ttl, ts):
        self.values = values
        self.ttl = ttl
        self.first_seen = ts
        self.last_seen = ts
        self.count = 1

    def touch(self, ts):
        self.last_seen = max(self.last_seen, ts)
        self.first_seen = min(self.first_seen, ts)
        self.count += 1


class DnsdbStore:
    """Passive-DNS history keyed by (name, rtype)."""

    def __init__(self):
        # (name, rtype) -> {(values, ttl): RrsetObservation}
        self._history = {}

    def record(self, name, rtype, values, ttl, ts):
        """Record one observation of an RRset state."""
        key = (name, int(rtype))
        states = self._history.setdefault(key, {})
        state_key = (tuple(sorted(values)), int(ttl))
        obs = states.get(state_key)
        if obs is None:
            states[state_key] = RrsetObservation(state_key[0], int(ttl), ts)
        else:
            obs.touch(ts)

    def observe_transaction(self, txn):
        """Feed one transaction (A/AAAA answers and NS record data).

        Only *authoritative* answers are recorded (§4.2: "we consider
        only the responses that come from authoritative nameservers
        ... which have the AA flag set") -- referral NS sets describe
        the delegation level that answered, not the zone's own data,
        and would fabricate NS "changes".
        """
        if not txn.answered or not txn.noerror or not txn.aa:
            return
        if txn.answer_ips and txn.qtype in (QTYPE.A, QTYPE.AAAA):
            ttl = txn.answer_ttls[0] if txn.answer_ttls else 0
            self.record(txn.qname, txn.qtype, txn.answer_ips, ttl, txn.ts)
        if txn.ns_names:
            ttl = txn.ns_ttls[0] if txn.ns_ttls else \
                (txn.answer_ttls[0] if txn.answer_ttls else 0)
            self.record(txn.qname, QTYPE.NS, txn.ns_names, ttl, txn.ts)

    # -- history queries -------------------------------------------------

    def states(self, name, rtype):
        """All observed states of (name, rtype), oldest first."""
        states = self._history.get((name, int(rtype)), {})
        return sorted(states.values(), key=lambda o: o.first_seen)

    def distinct_ttls(self, name, rtype):
        """Number of distinct TTLs ever observed."""
        return len({obs.ttl for obs in self.states(name, rtype)})

    def value_change(self, name, rtype):
        """The (old_values, new_values) of the most recent value-set
        change, or None when the values never changed."""
        seen = []
        for obs in self.states(name, rtype):
            if not seen or seen[-1] != obs.values:
                seen.append(obs.values)
        if len(seen) < 2:
            return None
        return seen[-2], seen[-1]

    def ttl_transition(self, name, rtype):
        """(old_ttl, new_ttl) across the most recent TTL change, or
        None."""
        seen = []
        for obs in self.states(name, rtype):
            if not seen or seen[-1] != obs.ttl:
                seen.append(obs.ttl)
        if len(seen) < 2:
            return None
        return seen[-2], seen[-1]
