"""Machine-readable export of the reproduced figures.

Each ``export_*`` function writes the underlying data series of one
paper figure as a CSV file, so the plots can be regenerated with any
plotting tool (the paper's authors used JupyterLab, §2.4).  Plain
``csv`` module, no plotting dependencies.
"""

import csv
import os


def _open_csv(directory, name):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    return path, open(path, "w", newline="", encoding="utf-8")


def export_figure2(distributions, directory, max_rank=None):
    """CSV per dataset: rank, key, cumulative share per category."""
    paths = []
    for name, dist in distributions.items():
        path, fh = _open_csv(directory, "fig2_%s.csv" % name)
        with fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "key", "cdf_all", "cdf_nxdomain",
                             "cdf_noerror_data", "cdf_nodata"])
            cdfs = {c: dist.cdf(c) for c in dist.CATEGORIES}
            limit = len(dist.keys) if max_rank is None else \
                min(max_rank, len(dist.keys))
            for i in range(limit):
                writer.writerow([
                    i + 1, dist.keys[i],
                    "%.6f" % cdfs["all"][i],
                    "%.6f" % cdfs["nxdomain"][i],
                    "%.6f" % cdfs["noerror_data"][i],
                    "%.6f" % cdfs["nodata"][i],
                ])
        paths.append(path)
    return paths


def export_table1(org_rows, total, directory):
    path, fh = _open_csv(directory, "table1.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "org", "ases", "global_share",
                         "servers", "mean_delay_ms", "mean_hops"])
        for i, org in enumerate(org_rows, start=1):
            writer.writerow([
                i, org.org, len(org.asns),
                "%.6f" % (org.hits / total if total else 0.0),
                org.servers, "%.3f" % org.mean_delay,
                "%.3f" % org.mean_hops,
            ])
    return path


def export_table2(qtype_rows, directory):
    path, fh = _open_csv(directory, "table2.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "qtype", "global_share", "data",
                         "nodata", "nxd", "err", "qdots", "tlds",
                         "eslds", "fqdns", "valid", "ttl", "servers",
                         "delay_ms", "hops", "size_bytes"])
        for i, row in enumerate(qtype_rows, start=1):
            writer.writerow([
                i, row.qtype, "%.6f" % row.global_share,
                "%.6f" % row.data, "%.6f" % row.nodata,
                "%.6f" % row.nxd, "%.6f" % row.err,
                "%.3f" % row.qdots, "%.1f" % row.tlds,
                "%.1f" % row.eslds, "%.1f" % row.fqdns,
                "%.4f" % row.valid, row.ttl, "%.1f" % row.servers,
                "%.3f" % row.delay, "%.3f" % row.hops,
                "%.1f" % row.size,
            ])
    return path


def export_figure3(delays_shares, groups, root_stats, gtld_stats,
                   directory):
    paths = []
    path, fh = _open_csv(directory, "fig3a_delay_cdf.csv")
    delays, _shares = delays_shares
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["nameserver_index", "median_delay_ms", "cdf"])
        n = len(delays) or 1
        for i, delay in enumerate(delays):
            writer.writerow([i + 1, "%.3f" % delay,
                             "%.6f" % ((i + 1) / n)])
    paths.append(path)
    path, fh = _open_csv(directory, "fig3b_rank_vs_delay.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["rank_group_start", "mean_delay_ms", "mean_hops"])
        for start, delay, hops in groups:
            writer.writerow([start, "%.3f" % delay, "%.3f" % hops])
    paths.append(path)
    for label, stats in (("fig3c_root", root_stats),
                         ("fig3d_gtld", gtld_stats)):
        path, fh = _open_csv(directory, "%s_letters.csv" % label)
        with fh:
            writer = csv.writer(fh)
            writer.writerow(["letter", "delay_q25", "delay_q50",
                             "delay_q75", "hops", "hits", "nxd_share"])
            for s in stats:
                writer.writerow([
                    s.letter, "%.3f" % s.delay_q25, "%.3f" % s.delay_q50,
                    "%.3f" % s.delay_q75, "%.3f" % s.hops, s.hits,
                    "%.6f" % s.nxd_share,
                ])
        paths.append(path)
    return paths


def export_figure4(curves, directory):
    path, fh = _open_csv(directory, "fig4_representativeness.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["vp_fraction", "nameservers", "top_coverage",
                         "tlds"])
        for c in curves:
            writer.writerow([
                "%.2f" % c["fraction"], "%.1f" % c["nameservers"],
                "%.6f" % c["top_coverage"], "%.1f" % c["tlds"],
            ])
    return path


def export_figure5(series, directory):
    path, fh = _open_csv(directory, "fig5_nameservers_time.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["elapsed_seconds", "distinct_nameservers"])
        for t, n in series:
            writer.writerow(["%.0f" % t, n])
    return path


def export_figure9(points, directory):
    path, fh = _open_csv(directory, "fig9_happy_eyeballs.csv")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "fqdn", "empty_aaaa_share", "a_ttl",
                         "neg_ttl", "quotient", "ipv4_only"])
        for p in points:
            writer.writerow([
                p.rank, p.fqdn, "%.6f" % p.empty_aaaa_share, p.a_ttl,
                p.neg_ttl, "%.4f" % p.quotient, int(p.ipv4_only),
            ])
    return path
