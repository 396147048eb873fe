"""``run.py --compare A.json B.json``: two result sets side by side.

Each file is what ``run.py --out FILE`` appends to: ``{"runs": [...]}``,
one record per workload run.  For every ``workload/metric`` pair the
table shows both medians with their quartiles, each set's own spread
(interquartile range over its median -- the number the driver holds
against the bound), how much worse B's median is than A's, and the
bound from ``BENCHMARK.json``.  Exit status 1 when any pair breaches
its bound in either sense or is missing from one of the sets.
"""

import json
import os
import statistics

from harness import ROOT


def load_runs(path):
    """``{(workload, metric): [values]}`` of the end-to-end runs."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    values = {}
    for run in runs:
        if run.get("trace"):
            continue
        for name, entry in run["metrics"].items():
            if entry["value"] is not None:
                values.setdefault((run["workload"], name), []).append(
                    entry["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(a, b, better):
    """How much worse *b* is than *a*, as a share of *a* (negative
    when it is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    a, b = load_runs(path_a), load_runs(path_b)
    breaches = 0
    print("%-46s %12s %12s %7s %7s %8s %6s" % (
        "workload/metric", "A median", "B median", "A iqr", "B iqr",
        "B worse", "bound"))
    for key in sorted(set(a) | set(b)):
        workload, metric = key
        if key not in a or key not in b or metric not in spec:
            # a pair one set lacks cannot be shown to hold its bound
            breaches += 1
            print("%-46s only in %s  BREACH" % (
                "%s/%s" % key, "A" if key in a else "B"))
            continue
        bound = spec[metric]["bound"]
        qa, qb = quartiles(a[key]), quartiles(b[key])
        delta = worse_by(qa[1], qb[1], spec[metric]["better"])
        # set-up time only has to repeat between sets, not within one
        noisy = metric != "setup_s" and \
            max(spread(a[key]), spread(b[key])) > bound
        breach = delta > bound or noisy
        breaches += breach
        print("%-46s %12.4f %12.4f %6.1f%% %6.1f%% %+7.1f%% %5.0f%%%s" % (
            "%s/%s" % key, qa[1], qb[1], 100 * spread(a[key]),
            100 * spread(b[key]), 100 * delta, 100 * bound,
            "  BREACH" if breach else ""))
        print("%-46s   [%.4f .. %.4f] [%.4f .. %.4f]  n=%d/%d" % (
            "", qa[0], qa[2], qb[0], qb[2], len(a[key]), len(b[key])))
    print("# %d breach(es)" % breaches)
    return 1 if breaches else 0
