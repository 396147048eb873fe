"""Table 4 / Section 4.2: detecting and classifying TTL changes.

Methodology from the paper: hourly top lists of FQDNs in authoritative
answers (the aafqdn dataset); a *change* is flagged when at least 10 %
of an hour's responses show new TTL values; each flagged FQDN is then
classified against the DNSDB history:

* **Non-conforming** -- the server returns variable TTLs per response;
* **Renumbering** -- A/AAAA values changed around the TTL change;
* **Change NS** -- the NS set changed (often with a TTL slash);
* **TTL Decrease / Increase** -- only the TTL moved;
* **Unknown** -- not enough history to decide.
"""

from repro.analysis.tables import format_table
from repro.dnswire.constants import QTYPE

CATEGORIES = ("Non-conforming", "Renumbering", "Change NS",
              "TTL Decrease", "TTL Increase", "Unknown")


class TtlChangeEventRecord:
    """One detected TTL change, before/after classification."""

    __slots__ = ("fqdn", "rtype", "window_ts", "old_ttl", "new_ttl",
                 "category", "comment")

    def __init__(self, fqdn, rtype, window_ts, old_ttl, new_ttl):
        self.fqdn = fqdn
        self.rtype = rtype
        self.window_ts = window_ts
        self.old_ttl = old_ttl
        self.new_ttl = new_ttl
        self.category = "Unknown"
        self.comment = ""

    def __repr__(self):
        return "TtlChange(%s %s %s->%s: %s)" % (
            self.fqdn, self.rtype, self.old_ttl, self.new_ttl,
            self.category)


class TtlChangeDetector:
    """Detect per-FQDN TTL changes across consecutive windows.

    Operates on the aafqdn window dumps; a change is flagged when the
    dominant TTL of a window differs from the previous dominant TTL
    and the new value covers at least *min_share* of that window's
    responses (the paper's 10 % rule applied to the top value).
    """

    def __init__(self, min_share=0.10):
        self.min_share = float(min_share)
        self._last_ttl = {}      # (fqdn, kind) -> dominant ttl
        self._known_ttls = {}    # (fqdn, kind) -> TTLs seen in top-3
        self.events = []

    @staticmethod
    def _kinds_for(key):
        """aafqdn keys are ``qname|QTYPE``: per-type rows analyze their
        ANSWER TTLs only.  Legacy plain-qname keys fall back to the
        mixed A + authority-NS view."""
        if "|" in key:
            fqdn, qtype = key.rsplit("|", 1)
            if qtype not in ("A", "AAAA", "NS"):
                return fqdn, ()
            kind = "NS" if qtype == "NS" else "A"
            return fqdn, ((kind, ("ttl_top1", "ttl_top2", "ttl_top3"),
                           "ttl_top1_share"),)
        return key, (
            ("A", ("ttl_top1", "ttl_top2", "ttl_top3"), "ttl_top1_share"),
            ("NS", ("nsttl_top1",), "nsttl_top1_share"),
        )

    def observe_dump(self, dump):
        """Feed one aafqdn window."""
        for key, row in dump.rows:
            fqdn, kind_specs = self._kinds_for(key)
            for kind, ttl_cols, share_col in kind_specs:
                ttl = row.get(ttl_cols[0], 0)
                share = row.get(share_col, 0.0)
                if not ttl or share < self.min_share:
                    continue
                state_key = (fqdn, kind)
                last = self._last_ttl.get(state_key)
                known = self._known_ttls.setdefault(state_key, set())
                # A change requires a genuinely *new* dominant TTL:
                # flipping between already-seen values (e.g. the A and
                # MX TTLs of the same name trading places in the top-3)
                # does not indicate a zone update.
                if last is not None and ttl != last and ttl not in known:
                    self.events.append(TtlChangeEventRecord(
                        fqdn, kind, dump.start_ts, last, ttl))
                self._last_ttl[state_key] = ttl
                for col in ttl_cols:
                    value = row.get(col, 0)
                    if value:
                        known.add(value)
        return self


def classify_events(events, dnsdb, dynamic_ttl_threshold=4):
    """Classify detected changes against the DNSDB history (Table 4).

    Mutates and returns *events*.  One category per FQDN: the most
    specific evidence wins (Non-conforming > Change NS > Renumbering >
    TTL Decrease/Increase > Unknown).
    """
    for event in events:
        fqdn = event.fqdn
        a_ttls = dnsdb.distinct_ttls(fqdn, QTYPE.A)
        if a_ttls >= dynamic_ttl_threshold:
            event.category = "Non-conforming"
            event.comment = "Dynamic TTL (%d distinct values)" % a_ttls
            continue
        ns_change = dnsdb.value_change(fqdn, QTYPE.NS)
        if ns_change is not None:
            event.category = "Change NS"
            event.comment = "%s -> %s" % (
                ",".join(ns_change[0][:2]), ",".join(ns_change[1][:2]))
            continue
        a_change = dnsdb.value_change(fqdn, QTYPE.A)
        if a_change is not None:
            event.category = "Renumbering"
            event.comment = "%s -> %s" % (
                ",".join(a_change[0][:2]), ",".join(a_change[1][:2]))
            continue
        transition = dnsdb.ttl_transition(
            fqdn, QTYPE.A if event.rtype == "A" else QTYPE.NS)
        if transition is None:
            event.category = "Unknown"
            continue
        old, new = transition
        event.category = "TTL Decrease" if new < old else "TTL Increase"
    return events


def table4(events):
    """Aggregate classified events into the Table 4 category counts.

    Each FQDN counts once, under its (first) classified category.
    """
    per_fqdn = {}
    for event in events:
        per_fqdn.setdefault(event.fqdn, event)
    counts = {category: 0 for category in CATEGORIES}
    for event in per_fqdn.values():
        counts[event.category] += 1
    return counts, per_fqdn


def render_table4(counts, per_fqdn, max_examples=1):
    rows = []
    for category in CATEGORIES:
        examples = [e for e in per_fqdn.values() if e.category == category]
        example = examples[0] if examples else None
        rows.append([
            category, counts[category],
            example.fqdn if example else "-",
            "%s/%s" % (example.old_ttl, example.new_ttl) if example else "-",
            example.comment if example else "-",
        ])
    total = sum(counts.values())
    table = format_table(
        ["Category", "#", "Example", "TTL before/after", "Comment"],
        rows, title="Table 4: TTL changes detected and classified")
    return "%s\ntotal FQDNs with TTL changes: %d" % (table, total)
