"""Figure 2: traffic distributions for Top-k DNS objects.

"We analyze traffic distributions for various Top-k aggregations ...
Note that we plot an independent CDF curve that ends at 1.0 for each
case."  The headline findings the reproduction targets:

* ~1 k nameservers handle ~50 % of all observed traffic (Fig 2a);
* NXDOMAIN concentrates on the most popular nameservers (the botnet
  effect: the NXD CDF starts high);
* the FQDN aggregation captures far less traffic than the nameserver
  one (many FQDNs are ephemeral).
"""

from repro.analysis.seriesops import ranked_keys
from repro.analysis.tables import format_percent, format_table


class TrafficDistribution:
    """Rank-ordered cumulative traffic shares per response category."""

    CATEGORIES = ("all", "nxdomain", "noerror_data", "nodata")

    def __init__(self, rows, captured_stats=None):
        #: keys ranked by total hits, heaviest first
        self.keys = ranked_keys(rows)
        self.rows = rows
        #: {"seen": ..., "kept": ...} from the window stats, if known
        self.captured_stats = captured_stats or {}
        self._totals = {c: 0.0 for c in self.CATEGORIES}
        self._cumulative = {c: [] for c in self.CATEGORIES}
        running = {c: 0.0 for c in self.CATEGORIES}
        for key in self.keys:
            row = rows[key]
            values = self._category_values(row)
            for cat in self.CATEGORIES:
                running[cat] += values[cat]
                self._cumulative[cat].append(running[cat])
        for cat in self.CATEGORIES:
            self._totals[cat] = running[cat]

    @staticmethod
    def _category_values(row):
        ok = row.get("ok", 0)
        nodata = row.get("ok_nil", 0)
        return {
            "all": row.get("hits", 0),
            "nxdomain": row.get("nxd", 0),
            "noerror_data": max(ok - nodata, 0),
            "nodata": nodata,
        }

    def cdf(self, category):
        """Independent CDF (ends at 1.0) of *category* over ranks."""
        total = self._totals[category]
        if total <= 0:
            return [0.0] * len(self.keys)
        return [v / total for v in self._cumulative[category]]

    def share_of_top(self, n, category="all"):
        """Share of *category* traffic handled by the top-*n* objects."""
        total = self._totals[category]
        if total <= 0 or not self.keys:
            return 0.0
        index = min(n, len(self.keys)) - 1
        return self._cumulative[category][index] / total

    def objects_for_share(self, share):
        """Smallest rank whose cumulative share of all traffic reaches
        *share*."""
        cdf = self.cdf("all")
        for i, value in enumerate(cdf):
            if value >= share:
                return i + 1
        return len(cdf)

    def capture_ratio(self):
        """Share of the raw stream captured in this top list (§3.1)."""
        seen = self.captured_stats.get("seen", 0)
        if not seen:
            return None
        return self._totals["all"] / seen

    def category_share(self, category):
        """Category's share of all captured transactions."""
        total = self._totals["all"]
        return self._totals[category] / total if total else 0.0


def figure2(store, datasets):
    """Compute the Figure 2 distributions of *datasets* (the paper
    plots srvip, qname and esld) from a run's
    :class:`~repro.observatory.store.SeriesStore`."""
    results = {}
    for name in datasets:
        stats = {"seen": 0, "kept": 0}
        for window in store.iter_range(name):
            for field in stats:
                stats[field] += window.stats.get(field, 0)
        results[name] = TrafficDistribution(store.accumulate(name), stats)
    return results


def render_figure2(results):
    """Text rendering of the Figure 2 CDF curves."""
    sections = []
    for name, dist in results.items():
        n = len(dist.keys)
        rows = []
        for rank in (1, 10, 100, 1000, 10000):
            if rank > n:
                break
            rows.append([
                rank,
                format_percent(dist.share_of_top(rank, "all")),
                format_percent(dist.share_of_top(rank, "nxdomain")),
                format_percent(dist.share_of_top(rank, "noerror_data")),
                format_percent(dist.share_of_top(rank, "nodata")),
            ])
        capture = dist.capture_ratio()
        title = "Figure 2 (%s): %d objects%s" % (
            name, n,
            ", capture %s" % format_percent(capture)
            if capture is not None else "")
        sections.append(format_table(
            ["rank<=", "all", "NXDOMAIN", "NOERROR+data", "NODATA"],
            rows, title=title))
        sections.append(
            "category shares: NXD %s, NOERROR+data %s, NODATA %s"
            % (format_percent(dist.category_share("nxdomain")),
               format_percent(dist.category_share("noerror_data")),
               format_percent(dist.category_share("nodata"))))
        half = dist.objects_for_share(0.5)
        sections.append("objects covering 50%% of traffic: %d" % half)
        sections.append("")
    return "\n".join(sections)
