"""Figures 7 and 8: how TTL changes drive query volumes (Section 4.1).

* Figure 7: the xmsecu.com case -- a TTL slash from minutes to seconds
  multiplies the query rate once old cache entries drain;
* Figure 8: across the top SLDs by traffic change between two epochs,
  TTL decreases correlate with traffic increases (roughly inverse);
  up-TTL/up-traffic "inconsistent" cases are mostly query-only growth
  (NXDOMAIN/junk), which the paper traces via response rates.
"""

from repro.analysis.seriesops import (
    accumulate_dumps,
    split_dumps_at,
)
from repro.analysis.tables import format_series, format_table


def ttl_traffic_timeseries(dumps, key):
    """Figure 7: per-window (start_ts, hits, ttl_top1) for one object."""
    series = []
    for dump in dumps:
        known = dump.position(key) is not None and \
            "ttl_top1" in dump.columns
        series.append((dump.start_ts, dump.cell(key, "hits"),
                       dump.cell(key, "ttl_top1") if known else None))
    return series


def figure7(obs, key, dataset="esld", change_at=None):
    """The Figure 7 case study for one domain key.

    Returns a dict with the raw series and before/after rates (the
    after-epoch starts one old-TTL past the change to let caches
    drain, when *change_at* is given).
    """
    dumps = obs.dumps[dataset]
    series = ttl_traffic_timeseries(dumps, key)
    result = {"series": series}
    if change_at is not None and dumps:
        before = [hits for ts, hits, _ in series if ts < change_at]
        # Old TTL: traffic-weighted mode of the pre-change windows.
        votes = {}
        for ts, hits, ttl in series:
            if ts < change_at and ttl:
                votes[ttl] = votes.get(ttl, 0) + max(hits, 1)
        ttl_before = max(votes.items(), key=lambda kv: kv[1])[0] \
            if votes else 0
        # Entries cached under the old TTL drain before the new rate
        # shows; clamp the settling point inside the observed range.
        settle = change_at + ttl_before
        last_ts = series[-1][0] if series else change_at
        if settle >= last_ts:
            settle = change_at
        after = [hits for ts, hits, _ in series if ts >= settle]
        result["rate_before"] = sum(before) / len(before) if before else 0.0
        result["rate_after"] = sum(after) / len(after) if after else 0.0
        result["amplification"] = (
            result["rate_after"] / result["rate_before"]
            if result["rate_before"] else float("inf"))
    return result


class SldChange:
    """One Figure 8 point: an SLD's TTL and traffic change."""

    __slots__ = ("key", "ttl_before", "ttl_after", "queries_before",
                 "queries_after", "responses_before", "responses_after")

    def __init__(self, key, before_row, after_row):
        self.key = key
        self.ttl_before = before_row.get("ttl_top1", 0)
        self.ttl_after = after_row.get("ttl_top1", 0)
        self.queries_before = before_row.get("hits", 0)
        self.queries_after = after_row.get("hits", 0)
        resp_b = before_row.get("hits", 0) - before_row.get("unans", 0) \
            - before_row.get("nxd", 0)
        resp_a = after_row.get("hits", 0) - after_row.get("unans", 0) \
            - after_row.get("nxd", 0)
        self.responses_before = max(resp_b, 0)
        self.responses_after = max(resp_a, 0)

    @property
    def ttl_change(self):
        return self.ttl_after - self.ttl_before

    @property
    def traffic_change(self):
        return self.queries_after - self.queries_before

    @property
    def query_only_growth(self):
        """Queries grew but successful responses did not -- the
        paper's explanation for most up-TTL/up-traffic cases."""
        return (self.traffic_change > 0
                and self.responses_after <= self.responses_before * 1.1)


def figure8(obs, split_ts, dataset="esld", top_n=100):
    """Two-epoch TTL-vs-traffic comparison.

    Returns the top-*top_n* :class:`SldChange` by absolute traffic
    change, restricted to keys present in both epochs with a TTL
    reading.
    """
    before_dumps, after_dumps = split_dumps_at(obs.dumps[dataset], split_ts)
    before = accumulate_dumps(before_dumps)
    after = accumulate_dumps(after_dumps)
    changes = []
    for key in set(before) & set(after):
        b, a = before[key], after[key]
        if not b.get("ttl_top1") or not a.get("ttl_top1"):
            continue
        changes.append(SldChange(key, b, a))
    changes.sort(key=lambda c: -abs(c.traffic_change))
    return changes[:top_n]


def figure8_summary(changes):
    """The Figure 8 quadrant counts + the query-only diagnosis."""
    ttl_down = [c for c in changes if c.ttl_change < 0]
    ttl_up = [c for c in changes if c.ttl_change > 0]
    down_traffic_up = sum(1 for c in ttl_down if c.traffic_change > 0)
    up_traffic_up = [c for c in ttl_up if c.traffic_change > 0]
    up_traffic_down = sum(1 for c in ttl_up if c.traffic_change < 0)
    return {
        "ttl_down": len(ttl_down),
        "ttl_down_traffic_up": down_traffic_up,
        "ttl_up": len(ttl_up),
        "ttl_up_traffic_up": len(up_traffic_up),
        "ttl_up_traffic_down": up_traffic_down,
        "ttl_up_traffic_up_query_only": sum(
            1 for c in up_traffic_up if c.query_only_growth),
    }


def render_figure7(result, key):
    lines = [format_series(
        [("%ds" % ts, hits) for ts, hits, _ in result["series"]],
        x_label="window", y_label="queries (%s)" % key)]
    if "amplification" in result:
        lines.append(
            "rate before %.2f/win, after %.2f/win, amplification %.1fx"
            % (result["rate_before"], result["rate_after"],
               result["amplification"]))
    return "\n".join(lines)


def render_figure8(changes, summary):
    rows = [(c.key, c.ttl_before, c.ttl_after, round(c.traffic_change))
            for c in changes[:15]]
    lines = [format_table(
        ["SLD", "TTL before", "TTL after", "query change"],
        rows, title="Figure 8: top SLDs by traffic change")]
    lines.append(
        "TTL down: %(ttl_down)d (traffic up in %(ttl_down_traffic_up)d); "
        "TTL up: %(ttl_up)d (up %(ttl_up_traffic_up)d / "
        "down %(ttl_up_traffic_down)d; query-only growth "
        "%(ttl_up_traffic_up_query_only)d)" % summary)
    return "\n".join(lines)
