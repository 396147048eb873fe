"""Ablation: the survived-one-window dump rule (Section 2.4).

"We skip the data from objects recently inserted in the SS cache" --
an object must survive eviction for a full 60 s window before its
statistics are dumped.  Disabling the rule floods the dumps with
one-off keys that churned through the cache mid-window; the rows per
window grow while the *stable* top of the list is unchanged.
"""

import tempfile

import pytest

from benchmarks.conftest import base_scenario, save_result
from repro.analysis.tables import format_table
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.window import align_window
from repro.simulation.sie import SieChannel


@pytest.fixture(scope="module")
def batch():
    scenario = base_scenario(duration=300.0, client_qps=120.0)
    return list(SieChannel(scenario).run())


def _run(batch, skip_recent):
    with tempfile.TemporaryDirectory() as tree:
        obs = Observatory(datasets=[("qname", 800)], use_bloom_gate=False,
                          skip_recent_inserts=skip_recent, output_dir=tree)
        obs.consume(batch)
        obs.finish()
        # Every window after the stream's first, the cold start: the
        # strict tree holds no file for it (no row survived a whole
        # window yet), the loose tree does.
        first = align_window(batch[0].ts, obs.window_seconds)
        dumps = list(SeriesStore(tree).iter_range(
            "qname", start_ts=first + obs.window_seconds))
    rows_per_window = [len(d) for d in dumps] or [0]
    top_keys = [set(k for k, _ in sorted(
        d.rows, key=lambda kv: -kv[1].get("hits", 0))[:20]) for d in dumps]
    return rows_per_window, top_keys


def test_ablation_skip_recent_inserts(benchmark, batch):
    strict_rows, strict_top = benchmark.pedantic(
        _run, args=(batch, True), rounds=2, iterations=1)
    loose_rows, loose_top = _run(batch, False)
    mean_strict = sum(strict_rows) / len(strict_rows)
    mean_loose = sum(loose_rows) / len(loose_rows)
    overlap = [len(a & b) / 20 for a, b in zip(strict_top, loose_top)]
    mean_overlap = sum(overlap) / len(overlap) if overlap else 1.0
    save_result("ablation_skip_recent", format_table(
        ["variant", "rows/window"],
        [("skip recent (paper)", "%.0f" % mean_strict),
         ("dump everything", "%.0f" % mean_loose)],
        title="Ablation: survived-one-window rule (qname, k=800)")
        + "\ntop-20 overlap between variants: %.2f" % mean_overlap)

    # The rule prunes churn without touching the stable top.
    assert mean_strict <= mean_loose
    assert mean_overlap > 0.7
