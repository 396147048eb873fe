"""Sensor blindness: what encrypted DNS does to each paper figure.

Quantifies how the Observatory's datasets degrade as the fraction of
resolver traffic moving to DoH/DoT rises.  Input is an ordered sweep
of replay output directories -- the first is the baseline (normally
``encrypted_fraction = 0``), the rest are the same workload with more
and more resolvers blinded (``repro simulate --encrypted-fraction``).

For every dataset in every directory a *weight* is accumulated (the
primary per-row counter: ``hits`` for tracker datasets, ``queries``
for the ``_encrypted`` channel, row count as a fallback) and expressed
as a **capture ratio** against the baseline.  Content datasets
(``qname``, ``qtype``, ``srvip``, ... and everything derived from
them, including the ``_vantage_*`` indices) can only lose weight as
encryption rises, because a blinded sensor sees size and timing but no
payload; the ``_encrypted`` channel can only gain.  The report renders
the ratio matrix and gates on that monotonicity -- a violation means
the sweep directories are not a nested-blinding sweep of one workload
(wrong seed, wrong order, or a pipeline bug) and ``report
--blindness`` exits non-zero.
"""

import os

from repro.observatory.store import SeriesStore

try:
    from repro.observatory.encrypted import ENCRYPTED_DATASET
except ImportError:  # pragma: no cover - encrypted is a sibling module
    ENCRYPTED_DATASET = "_encrypted"

#: datasets whose weight must be non-decreasing across the sweep
GROWING_DATASETS = (ENCRYPTED_DATASET,)

#: meta-datasets excluded from the monotone-degradation gate: their
#: row volume tracks pipeline health, not payload visibility
UNGATED_DATASETS = ("_platform",)

#: per-dataset primary counter candidates, in preference order
WEIGHT_COLUMNS = ("hits", "queries", "count")

#: tolerance for the monotone gate (ratios are derived from exactly
#: reproducible TSV numbers, so this only absorbs float summation)
MONOTONE_SLACK = 1e-9


def row_weight(row):
    """The primary counter of one TSV row (1.0 when none applies, so
    datasets without a counter column degrade by row count)."""
    for column in WEIGHT_COLUMNS:
        value = row.get(column)
        if value is not None:
            return float(value)
    return 1.0


class DatasetSummary:
    """One dataset's accumulated volume in one sweep directory."""

    __slots__ = ("dataset", "windows", "rows", "weight", "seen")

    def __init__(self, dataset):
        self.dataset = dataset
        self.windows = 0
        self.rows = 0
        self.weight = 0.0
        #: transactions seen by the pipeline (from the #stats trailer);
        #: invariant across a blinding sweep -- sensors still observe
        #: size/timing for every query
        self.seen = 0.0

    def absorb(self, data):
        self.windows += 1
        self.rows += len(data)
        for _key, row in data.rows:
            self.weight += row_weight(row)
        self.seen += float(data.stats.get("seen", 0))


def summarize_directory(path):
    """``{dataset: DatasetSummary}`` over every minutely file in
    *path*.  Raises :class:`FileNotFoundError` for a missing directory
    (``report --blindness`` turns that into exit 2); an existing but
    empty directory summarizes to ``{}``."""
    if not os.path.isdir(path):
        raise FileNotFoundError(
            "blindness sweep directory not found: %s" % (path,))
    store = SeriesStore(path, cache_windows=0)
    summaries = {}
    for dataset, grans in store.datasets().items():
        if "minutely" in grans:
            summary = summaries[dataset] = DatasetSummary(dataset)
            for data in store.iter_range(dataset):
                summary.absorb(data)
    return summaries


def capture_ratios(baseline, summaries):
    """``{dataset: ratio}`` of *summaries* against *baseline* weights.

    Datasets absent from the baseline (the ``_encrypted`` channel of
    an all-plaintext baseline) ratio against their own weight instead
    of dividing by zero; a dataset absent from *summaries* ratios 0.
    """
    ratios = {}
    for dataset in set(baseline) | set(summaries):
        base = baseline.get(dataset)
        here = summaries.get(dataset)
        base_weight = base.weight if base is not None else 0.0
        here_weight = here.weight if here is not None else 0.0
        if base_weight > 0:
            ratios[dataset] = here_weight / base_weight
        else:
            # Zero-weight baseline (e.g. _encrypted under an
            # all-plaintext baseline): the ratio carries no signal,
            # report full visibility and let the monotone gate judge.
            ratios[dataset] = 1.0
    return ratios


def evaluate_blindness(summaries_by_dir):
    """Gate an ordered sweep; returns a list of violation strings.

    *summaries_by_dir* is ``[(label, {dataset: DatasetSummary})]`` in
    sweep order (baseline first).  A content dataset whose weight
    *rises* between adjacent sweep points, or a ``_encrypted`` channel
    whose weight *falls*, is a violation.
    """
    violations = []
    if len(summaries_by_dir) < 2:
        return violations
    datasets = set()
    for _label, summaries in summaries_by_dir:
        datasets.update(summaries)
    for dataset in sorted(datasets):
        if dataset in UNGATED_DATASETS:
            continue
        growing = dataset in GROWING_DATASETS
        previous = None
        for label, summaries in summaries_by_dir:
            summary = summaries.get(dataset)
            weight = summary.weight if summary is not None else 0.0
            if previous is not None:
                prev_label, prev_weight = previous
                slack = MONOTONE_SLACK * max(abs(prev_weight),
                                             abs(weight), 1.0)
                if growing and weight < prev_weight - slack:
                    violations.append(
                        "%s: %s weight fell %g -> %g (encrypted "
                        "channel must not shrink as blinding rises)"
                        % (dataset, label, prev_weight, weight))
                elif not growing and weight > prev_weight + slack:
                    violations.append(
                        "%s: %s weight rose %g -> %g (content "
                        "datasets cannot gain under blinding)"
                        % (dataset, label, prev_weight, weight))
            previous = (label, weight)
    return violations


def blindness_report(directories):
    """Summarize and gate a sweep of directories.

    Returns ``(summaries_by_dir, ratios_by_dir, violations)`` where
    the first directory is the baseline.  Raises FileNotFoundError
    for a missing directory.
    """
    summaries_by_dir = []
    for path in directories:
        label = os.path.basename(os.path.normpath(path)) or path
        summaries_by_dir.append((label, summarize_directory(path)))
    baseline = summaries_by_dir[0][1]
    ratios_by_dir = [
        (label, capture_ratios(baseline, summaries))
        for label, summaries in summaries_by_dir
    ]
    return summaries_by_dir, ratios_by_dir, \
        evaluate_blindness(summaries_by_dir)


def render_blindness(summaries_by_dir, ratios_by_dir, violations):
    """The full ``report --blindness`` text block."""
    from repro.analysis.tables import format_table

    out = []
    out.append("Sensor blindness sweep: %s  (%d directories, "
               "baseline: %s)"
               % ("PASS" if not violations else "FAIL",
                  len(summaries_by_dir),
                  summaries_by_dir[0][0] if summaries_by_dir else "-"))
    datasets = set()
    for _label, summaries in summaries_by_dir:
        datasets.update(summaries)
    if not datasets:
        out.append("")
        out.append("No time-series found -- run replay on the sweep "
                   "directories first.")
        return "\n".join(out)
    out.append("")
    headers = ["dataset", "baseline weight"] + \
        ["%s" % label for label, _ in ratios_by_dir[1:]]
    rows = []
    baseline = summaries_by_dir[0][1]
    for dataset in sorted(datasets):
        base = baseline.get(dataset)
        row = [dataset,
               "-" if base is None else "%g" % base.weight]
        for _label, ratios in ratios_by_dir[1:]:
            row.append("%.3f" % ratios.get(dataset, 0.0))
        rows.append(row)
    out.append(format_table(
        headers, rows,
        title="Capture ratio vs baseline (1.000 = fully visible)"))
    out.append("")
    detail = []
    for label, summaries in summaries_by_dir:
        for dataset in sorted(summaries):
            summary = summaries[dataset]
            detail.append([label, dataset, summary.windows,
                           summary.rows, "%g" % summary.weight,
                           "%g" % summary.seen])
    out.append(format_table(
        ["directory", "dataset", "windows", "rows", "weight", "seen"],
        detail, title="Per-directory volume"))
    if violations:
        out.append("")
        out.append("Monotonicity violations:")
        for violation in violations:
            out.append("  - %s" % violation)
    return "\n".join(out)
