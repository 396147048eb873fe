"""A tracker folds only what the open window can emit (§2.4).

A window's dump skips every Space-Saving entry inserted after the
window opened, so the tracker builds no FeatureSet for such an entry
and folds none of its transactions: it still offers them, weighs them
and counts them as kept (and as ``unfolded``).  The tree must be the
one the fold-everything tracker wrote.
"""

import hashlib
import os

from repro.observatory import tracker as tracker_module
from repro.observatory.features import FeatureSet
from repro.observatory.keys import make_dataset
from repro.observatory.pipeline import Observatory
from repro.observatory.tracker import TopKTracker
from repro.observatory.tsv import read_tsv
from repro.observatory.window import WindowManager
from repro.simulation import Scenario, SieChannel
from tests.util import make_txn

DATASETS = ("srvip", "qname", "esld", "qtype", "rcode", "aafqdn")

#: the tree below (``_platform*`` excepted) and each ``_platform``
#: window's ``(rows, skipped_recent, txns)``, recorded on the tracker
#: that folded every kept transaction
PINNED_TREE = (
    24, "1bf9dd2ca6664bb8970f27b23115ad999c30ebae13a01342a20a4885a0bcbdce")
PINNED_PLATFORM = [(0, 745, 934), (366, 134, 569), (325, 78, 435),
                   (360, 86, 480), (345, 59, 420)]


def test_no_feature_set_for_an_entry_inserted_inside_the_window(
        tmp_path, monkeypatch):
    out = str(tmp_path)
    obs = Observatory(datasets=[(name, 200) for name in DATASETS],
                      output_dir=out, window_seconds=20.0, telemetry=True)
    manager = obs.windows
    last = {}  # the tracker name and entry of the latest offer
    updates = dict.fromkeys(DATASETS, 0)
    built = []

    def offered_entry():
        entry = last["entry"]
        assert entry.inserted_at <= manager.window_start, \
            (last["name"], entry.key, entry.inserted_at,
             manager.window_start)
        return last["name"]

    class Checked(FeatureSet):
        __slots__ = ()

        def __init__(self):
            built.append(offered_entry())
            super().__init__()

        def update(self, txn, hashes=None):
            updates[offered_entry()] += 1
            return super().update(txn, hashes)

    def recording(name, offer):
        def wrapped(key, now):
            last["name"], last["entry"] = name, offer(key, now)
            return last["entry"]
        return wrapped

    for tracker in manager.trackers:
        tracker.cache.offer = recording(tracker.spec.name,
                                        tracker.cache.offer)
    monkeypatch.setattr(tracker_module, "FeatureSet", Checked)
    obs.consume(SieChannel(Scenario.tiny(seed=11, duration=100.0,
                                         client_qps=30.0)).run())
    obs.finish()

    assert built
    for tracker in manager.trackers:
        name = tracker.spec.name
        cache = tracker.cache
        # an offer returns no entry only when the Bloom gate drops it:
        # every kept transaction is either folded or unfolded
        assert cache.offered - cache.gated == \
            updates[name] + tracker.unfolded
        assert tracker.unfolded > 0
    names = sorted(os.listdir(out))
    assert tree_digest(out, names) == PINNED_TREE
    assert [platform_counts(out, name) for name in names
            if name.startswith("_platform")] == PINNED_PLATFORM


def tree_digest(out, names):
    digest = hashlib.sha256()
    names = [name for name in names if not name.startswith("_platform")]
    for name in names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return len(names), digest.hexdigest()


def platform_counts(out, name):
    row = dict(read_tsv(os.path.join(out, name)).rows)["window"]
    return row["rows"], row["skipped_recent"], row["txns"]


def test_a_gap_reopens_the_window_on_the_aligned_boundary():
    """After a gap of several windows the window opens at the
    transaction's aligned start, not at the previous window's end: a
    key first seen exactly on that boundary (``inserted_at == start``)
    survived the whole window, so it is folded and emitted."""
    tracker = TopKTracker(make_dataset("srvip", 8), use_bloom_gate=False)
    manager = WindowManager([tracker], window_seconds=60)
    assert manager.observe(make_txn(ts=10.0, server_ip="192.0.2.1")) == []
    dumps = manager.observe(make_txn(ts=300.0, server_ip="192.0.2.2"))
    assert [dump.start_ts for dump in dumps] == [0]
    assert manager.window_start == 300
    manager.observe(make_txn(ts=310.0, server_ip="192.0.2.2"))
    manager.observe(make_txn(ts=320.0, server_ip="192.0.2.3"))
    # 192.0.2.1 arrived inside window 0, 192.0.2.3 inside this one
    assert tracker.unfolded == 2
    dump, = manager.flush()
    assert dump.start_ts == 300
    assert [(key, row["hits"]) for key, row in dump.rows] == \
        [("192.0.2.2", 2)]
    assert dump.stats["kept"] == 3


def test_the_ablation_and_a_bare_tracker_fold_everything():
    """``skip_recent_inserts=False`` and ``TopKTracker.observe`` have
    no window to skip for: every kept transaction is folded."""
    tracker = TopKTracker(make_dataset("srvip", 8), use_bloom_gate=False)
    manager = WindowManager([tracker], window_seconds=60,
                            skip_recent_inserts=False)
    for ts in (10.0, 20.0, 30.0):
        manager.observe(make_txn(ts=ts, server_ip="192.0.2.%d" % ts))
    assert tracker.unfolded == 0
    assert all(entry.state.hits == 1 for entry in tracker.cache)
    bare = TopKTracker(make_dataset("srvip", 8), use_bloom_gate=False)
    assert bare.observe(make_txn(ts=5.0)).state.hits == 1
    assert bare.unfolded == 0
