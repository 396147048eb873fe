"""The traced per-layer run (``run.py --trace``).

One job, the same whatever ``--workload`` names it: the main corpus is
taken through every layer stage by stage in the benchmark's own loop,
a ``perf_counter_ns`` span around every call into the program, kept in
memory and written to ``trace.json`` at exit.  Isolated loops over the
same transactions and keys give the ``keys``/``sketches``/``features``
rows; child runs (sharded against single, the serving fixture, a short
live daemon) give the rows that only exist across processes.

Spans sit at batch and window granularity -- a span per transaction
would cost more than the call it measures -- so a ``*_ns_per_txn`` row
is a span total divided by the transactions it covered.

A layer whose function has gone reports ``None`` and is listed under
``skipped_layers``; the end-to-end runs never import this module.
"""

import asyncio
import contextlib
import json
import os
import pickle
import shutil
import time
from multiprocessing.reduction import ForkingPickler

import corpus
import loadgen
import workloads
from harness import (ALL_CPUS, DATASETS, HERE, LOAD_CPUS, SUT_CPUS, TOPK,
                     PhaseFailed, SpeedMeter, cli_child, mean, median,
                     percentile, pin, python_child, tree_digest)

UNITS = {}


def _units(unit, *names):
    for name in names:
        UNITS[name] = unit


_units("txn/s", "simulation.txn_per_s", "sharded.single_txn_per_s")
_units("ns", "dnswire.parse_ns_per_txn", "preprocess.summarize_ns_per_txn",
       "transaction.from_line_ns_per_txn", "transaction.to_line_ns_per_txn",
       *("keys.extract_ns_per_txn.%s" % d for d in DATASETS),
       "sketches.spacesaving_offer_ns", "sketches.hll_add_ns",
       "sketches.hll_cardinality_ns", "sketches.histogram_add_ns",
       "sketches.bloom_add_ns", "features.hashes_ns_per_txn",
       "features.update_ns_per_call",
       *("tracker.observe_batch_ns_per_txn.%s" % d for d in DATASETS),
       "detect.observe_ns_per_txn", "window.consume_ns_per_txn",
       "transport.encode_ns_per_txn", "transport.decode_ns_per_txn")
_units("count", "preprocess.skipped", "features.updates_per_txn",
       "window.rows_per_window", "store.segment_reads", "store.parses",
       "server.sse_events", "daemon.windows_visible",
       "daemon.gen_late_count", "sharded.detector_tree_identical")
_units("us", "features.as_row_us", "features.to_buffers_us",
       "features.merge_us", "detect.cut_us_per_window",
       "window.flush_us_per_window", "telemetry.snapshot_us_per_window",
       "tsv.write_us_per_window", "segments.build_us_per_window",
       "store.notify_flush_us", "transport.pack_states_us_per_window",
       "transport.unpack_states_us_per_window", "tsv.read_us_per_window",
       "segments.read_us_per_window", "store.read_cold_us_per_window",
       "store.read_warm_us_per_window")
_units("B", "tsv.bytes_per_window", "segments.bytes_per_window",
       "transport.batch_bytes_per_txn", "transport.state_bytes_per_window",
       "server.bytes_per_query")
_units("ms", "aggregate.compact_ms", "aggregate.rollup_ms",
       "store.open_scan_ms", "store.open_manifest_ms", "store.topk_ms",
       "server.topk_p50_ms", "server.key_p50_ms", "server.series_p50_ms",
       "server.light_p50_ms", "server.query_p99_ms",
       "server.self_ms_per_topk",
       "daemon.query_p50_ms", "daemon.query_p99_ms",
       "daemon.flush_path_p10_ms", "daemon.flush_to_queryable_p50_ms",
       "daemon.flush_to_queryable_max_ms", "daemon.gen_late_p99_ms")
_units("s", "sharded.coordinator_cpu_s", "sharded.worker_cpu_s",
       "server.cold_pass_s", "daemon.drain_s")
_units("ratio", "sharded.worker_utilization", "sharded.partition_skew",
       "sharded.speedup_vs_single", "sharded.top100_overlap",
       "store.lru_hit_ratio", "daemon.cpu_share", "trace.overhead_ratio",
       *("trace.coverage.%s" % w for w in workloads.WORKLOADS))


class Tracer:
    """Spans: ``[name, start_ns, end_ns, parent_index, pass_id]``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), None,
                  self._open[-1] if self._open else None, self.pass_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, obj, attr, name, returns=None):
        """Put a span around the bound method ``obj.attr`` (instance
        attribute, so only this object is affected); *returns*
        collects the call's results when given."""
        inner = getattr(obj, attr)

        def traced(*args, **kw):
            with self.span(name):
                result = inner(*args, **kw)
            if returns is not None:
                returns.append(result)
            return result

        setattr(obj, attr, traced)

    def total_ns(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_ns(self, name):
        """Span time of *name* minus the time its child spans cover."""
        total = self.total_ns(name)
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][0] == name:
                total -= span[2] - span[1]
        return total

    def dump(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        blob = {
            "format": "ledger-trace-1",
            "columns": ["name", "start_ns", "end_ns", "parent", "pass"],
            "spans": self.spans,
            "summary": {name: {
                "count": self.count(name),
                "total_ms": self.total_ns(name) / 1e6,
                "self_ms": self.self_ns(name) / 1e6} for name in names},
        }
        blob.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
            fh.write("\n")


def timed_ns(fn, *args):
    started = time.perf_counter_ns()
    result = fn(*args)
    return time.perf_counter_ns() - started, result


class Layers:
    """Collects per-layer values; a failing probe yields ``None``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.values = {name: None for name in UNITS}
        self.skipped = {}

    def probe(self, label, fn, needs=()):
        """Run one group of measurements.  A layer that has gone
        (ImportError/AttributeError/TypeError), a child that failed
        (already counted as a failed operation) or a skipped group
        this one *needs* leaves the group's rows ``None`` and lists it
        under ``skipped``."""
        missing = [need for need in needs if need in self.skipped]
        if missing:
            self.skipped[label] = "needs %s" % ", ".join(missing)
            return
        try:
            with self.tracer.span("probe." + label):
                self.values.update(fn())
        except (ImportError, AttributeError, TypeError, PhaseFailed) as exc:
            self.skipped[label] = "%s: %s" % (type(exc).__name__, exc)


def chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


# -- isolated loops ------------------------------------------------------


def probe_wire_codec(txns, records):
    from repro.dnswire.message import Message
    from repro.netsim.packet import parse_ip_packet

    payloads = [(parse_ip_packet(r[0]).payload,
                 parse_ip_packet(r[1]).payload if r[1] else None)
                for r in records]

    def parse_all():
        for query, response in payloads:
            Message.from_wire(query)
            if response is not None:
                try:
                    Message.from_wire(response)
                except ValueError:
                    pass  # an injected truncated response

    took, _ = timed_ns(parse_all)
    return {"dnswire.parse_ns_per_txn": took / len(txns)}


def probe_lines(txns):
    from repro.observatory.transaction import Transaction

    to_ns, lines = timed_ns(lambda: [t.to_line() for t in txns])
    from_ns, _ = timed_ns(
        lambda: [Transaction.from_line(line) for line in lines])
    return {"transaction.to_line_ns_per_txn": to_ns / len(txns),
            "transaction.from_line_ns_per_txn": from_ns / len(txns)}


def probe_keys(txns):
    from repro.dnswire.psl import default_psl
    from repro.observatory.keys import make_dataset

    out = {}
    for name in DATASETS:
        extract = make_dataset(name, TOPK).make_batch_extractor(
            default_psl())
        took, _ = timed_ns(
            lambda: [extract(chunk) for chunk in chunks(txns, 1024)])
        out["keys.extract_ns_per_txn.%s" % name] = took / len(txns)
    return out


def probe_sketches(txns):
    from repro.observatory.features import TxnHashes
    from repro.sketches.bloom import RotatingBloomFilter
    from repro.sketches.histogram import LogHistogram
    from repro.sketches.hyperloglog import HyperLogLog
    from repro.sketches.spacesaving import SpaceSaving

    keys = [(t.qname, t.ts) for t in txns]
    hashes = [TxnHashes(t).qname for t in txns]
    delays = [t.delay_ms for t in txns]
    cache = SpaceSaving(capacity=TOPK, tau=300.0,
                        gate=RotatingBloomFilter(capacity=200_000,
                                                 rotate_interval=600.0))
    offer = cache.offer
    offer_ns, _ = timed_ns(lambda: [offer(k, ts) for k, ts in keys])
    bloom = RotatingBloomFilter(capacity=200_000, rotate_interval=600.0)
    bloom_ns, _ = timed_ns(lambda: [bloom.add(k, ts) for k, ts in keys])
    hll = HyperLogLog(8, seed=3)
    add_hash = hll.add_hash
    hll_ns, _ = timed_ns(lambda: [add_hash(h) for h in hashes])
    card_ns, _ = timed_ns(lambda: [hll.cardinality() for _ in range(2000)])
    hist = LogHistogram(min_value=0.05)
    add = hist.add
    hist_ns, _ = timed_ns(lambda: [add(d) for d in delays])
    n = len(txns)
    return {"sketches.spacesaving_offer_ns": offer_ns / n,
            "sketches.bloom_add_ns": bloom_ns / n,
            "sketches.hll_add_ns": hll_ns / n,
            "sketches.hll_cardinality_ns": card_ns / 2000,
            "sketches.histogram_add_ns": hist_ns / n}


def probe_features(txns):
    from repro.observatory.features import FeatureSet, TxnHashes

    def touch_all():
        out = []
        for txn in txns:
            h = TxnHashes(txn)
            h.server, h.resolver, h.qname, h.qdots
            out.append(h)
        return out

    hash_ns, hashes = timed_ns(touch_all)
    sets = {}

    def update_all():
        for txn, h in zip(txns, hashes):
            state = sets.get(txn.server_ip)
            if state is None:
                state = sets[txn.server_ip] = FeatureSet()
            state.update(txn, h)

    update_ns, _ = timed_ns(update_all)
    states = list(sets.values())
    row_ns, _ = timed_ns(lambda: [s.as_row() for s in states])
    buf_ns, _ = timed_ns(lambda: [s.to_buffers() for s in states])
    half = len(states) // 2
    pairs = list(zip(states[:half], states[half:2 * half]))
    merge_ns, _ = timed_ns(lambda: [a.merge(b) for a, b in pairs])
    return {"features.hashes_ns_per_txn": hash_ns / len(txns),
            "features.update_ns_per_call": update_ns / len(txns),
            "features.as_row_us": row_ns / len(states) / 1e3,
            "features.to_buffers_us": buf_ns / len(states) / 1e3,
            "features.merge_us": merge_ns / max(1, len(pairs)) / 1e3}


def probe_transport(txns, window):
    """The default (pickle) transport: its codec calls plus the
    queue's own pickling, which is where that transport does its work.
    States come from a shard-mode window manager over the first
    window."""
    from repro.detect import build_detectors
    from repro.observatory.encrypted import EncryptedChannelAggregator
    from repro.observatory.keys import make_dataset
    from repro.observatory.tracker import TopKTracker
    from repro.observatory.transport import get_transport
    from repro.observatory.window import WindowManager

    codec = get_transport("pickle")
    batches = list(chunks(txns, 512))
    enc_ns, blobs = timed_ns(lambda: [
        ForkingPickler.dumps(codec.pack_batch(b)) for b in batches])
    dec_ns, _ = timed_ns(lambda: [
        codec.unpack_batch(pickle.loads(blob)) for blob in blobs])
    states = []
    manager = WindowManager(
        [TopKTracker(make_dataset(name, TOPK)) for name in DATASETS],
        window_seconds=window, state_sink=states.append,
        detectors=build_detectors(True),
        encrypted=EncryptedChannelAggregator())
    first = [t for t in txns if t.ts < window]
    manager.consume_batch(first)
    manager.flush()
    pack_ns, blob = timed_ns(
        lambda: ForkingPickler.dumps(codec.pack_states(list(states))))
    unpack_ns, _ = timed_ns(lambda: codec.unpack_states(pickle.loads(blob)))
    n = len(txns)
    return {"transport.encode_ns_per_txn": enc_ns / n,
            "transport.decode_ns_per_txn": dec_ns / n,
            "transport.batch_bytes_per_txn":
                sum(len(bytes(b)) for b in blobs) / n,
            "transport.pack_states_us_per_window": pack_ns / 1e3,
            "transport.unpack_states_us_per_window": unpack_ns / 1e3,
            "transport.state_bytes_per_window": len(bytes(blob))}


# -- the staged wire job -------------------------------------------------


def staged_wire_job(tracer, records, injected, out, window):
    """``child_pass.wire_pass`` taken apart: the same calls in the same
    order on the same inputs, each under its own span."""
    from repro.detect import build_detectors
    from repro.observatory.aggregate import TimeAggregator
    from repro.observatory.encrypted import EncryptedChannelAggregator
    from repro.observatory.keys import make_dataset
    from repro.observatory.preprocess import summarize_batch
    from repro.observatory.telemetry import Telemetry
    from repro.observatory.tracker import TopKTracker
    from repro.observatory.tsv import write_tsv
    from repro.observatory.window import WindowManager

    span = tracer.span
    skipped = []
    with span("preprocess.summarize"):
        txns = summarize_batch(
            records, on_error=lambda record, exc: skipped.append(record))
    telemetry = Telemetry()
    trackers = [TopKTracker(make_dataset(name, TOPK)) for name in DATASETS]
    detectors = build_detectors(True)
    kept = []
    for tracker in trackers:
        tracer.wrap(tracker, "observe_batch",
                    "tracker.observe_batch.%s" % tracker.spec.name, kept)
    tracer.wrap(detectors, "observe_batch", "detect.observe")
    tracer.wrap(detectors, "cut", "detect.cut")
    tracer.wrap(telemetry, "snapshot", "telemetry.snapshot")
    written = []

    def sink(dump):
        if dump.rows:
            with span("tsv.write"):
                written.append(
                    write_tsv(out, dump.to_timeseries("minutely")))

    manager = WindowManager(
        trackers, window_seconds=window, sink=sink, telemetry=telemetry,
        detectors=detectors, encrypted=EncryptedChannelAggregator())
    rows = 0
    flushes = 0
    index = 0
    while index < len(txns):
        end = (txns[index].ts // window + 1) * window
        stop = index
        while stop < len(txns) and txns[stop].ts < end:
            stop += 1
        for batch in chunks(txns[index:stop], 1024):
            with span("window.consume"):
                manager.consume_batch(batch)
        with span("window.flush"):
            dumps = manager.advance_to(end) if stop < len(txns) \
                else manager.flush()
        flushes += 1
        rows += sum(len(d.rows) for d in dumps if d.dataset in DATASETS)
        index = stop
    with span("aggregate.compact"):
        TimeAggregator(out).compact()

    n = len(txns)
    total = tracer.total_ns
    values = {
        "preprocess.summarize_ns_per_txn":
            total("preprocess.summarize") / len(records),
        "preprocess.skipped": len(skipped),
        "features.updates_per_txn": sum(kept) / n,
        "detect.observe_ns_per_txn": total("detect.observe") / n,
        "detect.cut_us_per_window": total("detect.cut") / flushes / 1e3,
        "window.consume_ns_per_txn": total("window.consume") / n,
        "window.flush_us_per_window":
            total("window.flush") / flushes / 1e3,
        "window.rows_per_window": rows / flushes,
        "telemetry.snapshot_us_per_window":
            total("telemetry.snapshot") / flushes / 1e3,
        "tsv.write_us_per_window": total("tsv.write") / flushes / 1e3,
        "tsv.bytes_per_window":
            sum(os.path.getsize(p) for p in written) / flushes,
        "aggregate.compact_ms": total("aggregate.compact") / 1e6,
    }
    for name in DATASETS:
        values["tracker.observe_batch_ns_per_txn.%s" % name] = \
            total("tracker.observe_batch.%s" % name) / n
    staged_s = sum(total(name) for name in (
        "preprocess.summarize", "window.consume", "window.flush",
        "aggregate.compact")) / 1e9
    return txns, values, staged_s, len(skipped) == injected


def probe_tree_files(tracer, out, arrivals):
    """Per window file of the staged tree: segment build, store
    reconcile, text and column reads; then the rollup.  The store is
    opened on *arrivals* while that directory is still empty and each
    file is copied in just before its ``notify_flush``, so every call
    meets a file the store has not indexed, as the daemon's does."""
    from repro.observatory import segments
    from repro.observatory.aggregate import TimeAggregator
    from repro.observatory.store import SeriesStore
    from repro.observatory.tsv import read_tsv

    os.mkdir(arrivals)
    store = SeriesStore(arrivals, manifest=False)
    paths = sorted(os.path.join(out, name) for name in os.listdir(out)
                   if name.endswith(".tsv"))
    for path in paths:
        with tracer.span("segments.build"):
            segments.build_segment(path)
        arrived = shutil.copy(path, arrivals)
        with tracer.span("store.notify_flush"):
            store.notify_flush(arrived)
        with tracer.span("tsv.read"):
            read_tsv(path)
        with tracer.span("segments.read"):
            segments.read_segment(segments.segment_path(path))
    with tracer.span("aggregate.rollup"):
        aggregator = TimeAggregator(out)
        for dataset in DATASETS:
            aggregator.aggregate_directory(dataset)
    total, n = tracer.total_ns, len(paths)
    seg_bytes = sum(os.path.getsize(segments.segment_path(p))
                    for p in paths)
    return {"segments.build_us_per_window":
                total("segments.build") / n / 1e3,
            "segments.bytes_per_window": seg_bytes / n,
            "store.notify_flush_us": total("store.notify_flush") / n / 1e3,
            "tsv.read_us_per_window": total("tsv.read") / n / 1e3,
            "segments.read_us_per_window":
                total("segments.read") / n / 1e3,
            "aggregate.rollup_ms": total("aggregate.rollup") / 1e6}


# -- child runs ----------------------------------------------------------


def sharded_against_single(run, lines, txns, window, accounted):
    """``replay --shards 2`` against the single-process reference;
    what the run's CPU went on is left in *accounted* for the coverage
    row."""
    from repro.observatory.store import SeriesStore
    from repro.observatory.tsv import read_tsv

    ledger = run.ledger
    sharded_out, single_out = run.path("sharded"), run.path("single")
    sharded = run.finish(run.child(
        python_child, [os.path.join(HERE, "child_pass.py"), "sharded",
                       lines, sharded_out, str(window)],
        "sharded", cpus=ALL_CPUS))
    report = json.loads(sharded.output())
    single = run.finish(run.child(
        cli_child, workloads.replay_args(lines, single_out, window),
        "single", cpus=SUT_CPUS))
    workloads.check_tree(run, sharded_out, txns, window,
                         platform_seen=False)
    workloads.check_tree(run, single_out, txns, window)

    def detector_tree(out):
        return [(name, open(os.path.join(out, name), "rb").read())
                for name in sorted(os.listdir(out))
                if name.startswith("_detector.") and name.endswith(".tsv")]

    identical = detector_tree(sharded_out) == detector_tree(single_out)
    ledger.check(identical, "sharded _detector series differs from the "
                            "single-process reference")
    overlaps = []
    stores = SeriesStore(sharded_out, manifest=False), \
        SeriesStore(single_out, manifest=False)
    for dataset in ("srvip", "qname", "esld"):
        tops = [{key for key, _ in store.topk(dataset, n=100)}
                for store in stores]
        overlaps.append(len(tops[0] & tops[1]) / max(1, len(tops[1])))
    shard_txns = {}
    merge_ms = flush_ms = 0.0
    for name in sorted(os.listdir(sharded_out)):
        if name.startswith("_platform.") and name.endswith(".tsv"):
            for key, row in read_tsv(os.path.join(sharded_out, name)).rows:
                if key.endswith(".window"):
                    shard_txns[key] = shard_txns.get(key, 0) \
                        + row.get("txns", 0)
                    flush_ms += row.get("flush_ms_mean", 0) \
                        * row.get("flush_n", 0)
                elif key == "coordinator":
                    merge_ms += row.get("merge_ms_mean", 0) \
                        * row.get("merge_n", 0)
    cuts = sum(1 for name in os.listdir(sharded_out)
               if name.startswith("_platform.") and name.endswith(".tsv"))
    counts = list(shard_txns.values()) or [1]
    n = len(txns)
    values = {
        "sharded.coordinator_cpu_s": report["coordinator_cpu_s"],
        "sharded.worker_cpu_s": report["worker_cpu_s"],
        "sharded.worker_utilization":
            report["worker_cpu_s"] / (2 * report["wall_s"]),
        "sharded.partition_skew": max(counts) / mean(counts),
        "sharded.single_txn_per_s": n / single.wall_s,
        "sharded.speedup_vs_single": single.wall_s / sharded.wall_s,
        "sharded.top100_overlap": mean(overlaps),
        "sharded.detector_tree_identical": 1.0 if identical else 0.0,
    }
    accounted.update(merge_s=merge_ms / 1e3, worker_flush_s=flush_ms / 1e3,
                     cuts=cuts, cpu_s=report["coordinator_cpu_s"]
                     + report["worker_cpu_s"])
    return values


def serve_window(run):
    return float(max(1, round(workloads.SERVE_WINDOW * run.scale)))


def start_fixture(run, lines):
    """Start the serve_mixed fixture replay on the system's core; the
    isolated loops run on the load generator's core meanwhile."""
    return run.child(
        cli_child, workloads.replay_args(lines, run.path("tree"),
                                         serve_window(run)),
        "fixture", cpus=SUT_CPUS)


def serving_layers(run, tracer, fixture):
    """The serve_mixed fixture: store opens and reads in process, then
    the query list over HTTP against a ``serve`` child."""
    from repro.observatory.store import SeriesStore

    window = serve_window(run)
    out = run.path("tree")
    run.finish(fixture)
    manifest = os.path.join(out, ".observatory-manifest.json")
    if os.path.exists(manifest):
        os.remove(manifest)
    with tracer.span("store.open_scan"):
        store = SeriesStore(out)
    refs = [ref for dataset in store.datasets()
            for ref in store.select(dataset)]
    for ref in refs:
        with tracer.span("store.read_cold"):
            store.read_window(ref)
    warm = refs[-min(len(refs), store.cache_windows):]
    for ref in warm:
        with tracer.span("store.read_warm"):
            store.read_window(ref)
    store.flush_manifest()
    with tracer.span("store.open_manifest"):
        SeriesStore(out)
    starts = sorted({start for _, start in workloads.scan_tree(out)})
    queries = corpus.query_list(
        run.seed, int(workloads.SERVE_QUERIES * run.scale),
        workloads.tree_keys(out), window, starts[0], starts[-1],
        range_windows=8)
    topk_ms = []
    for kind, path in queries:
        if kind == "topk":
            dataset = path.split("/")[2].split("?")[0]
            params = dict(p.split("=") for p in path.split("?")[1].split("&"))
            with tracer.span("store.topk") as record:
                store.topk(dataset, n=10, start_ts=float(params["start"]),
                           end_ts=float(params["end"]))
            topk_ms.append((record[2] - record[1]) / 1e6)

    server, host, port = workloads.start_server(run, out, "serve")
    try:
        cold_wall, _ = workloads.query_pass(run, host, port, queries,
                                            "cold", keep_bodies=True)
        with tracer.span("server.query_pass"):
            _, results = workloads.query_pass(run, host, port, queries,
                                              "traced")
        health = json.loads(asyncio_get(host, port, "/platform/health"))
    finally:
        workloads.stop_server(run, server)
    by_kind = {}
    for (kind, _), result in zip(queries, results):
        by_kind.setdefault(kind, []).append(result[1] * 1e3)
    cache = health["store"]
    total = tracer.total_ns
    values = {
        "store.open_scan_ms": total("store.open_scan") / 1e6,
        "store.open_manifest_ms": total("store.open_manifest") / 1e6,
        "store.read_cold_us_per_window":
            total("store.read_cold") / len(refs) / 1e3,
        "store.read_warm_us_per_window":
            total("store.read_warm") / len(warm) / 1e3,
        "store.topk_ms": median(topk_ms),
        "store.lru_hit_ratio": cache["hit_ratio"],
        "store.segment_reads": cache["segment_reads"],
        # /platform/health has no parse counter of its own: every miss
        # is either a segment read or a text parse
        "store.parses": cache["misses"] - cache["segment_reads"],
        "server.cold_pass_s": cold_wall,
        "server.bytes_per_query": mean([r[3] for r in results]),
    }
    for kind in ("topk", "key", "series", "light"):
        values["server.%s_p50_ms" % kind] = percentile(by_kind[kind], 50)
    values["server.query_p99_ms"] = percentile(
        [result[1] * 1e3 for result in results], 99)
    values["server.self_ms_per_topk"] = \
        values["server.topk_p50_ms"] - values["store.topk_ms"]
    values["trace.coverage.serve_mixed"] = \
        values["store.topk_ms"] / values["server.topk_p50_ms"]
    return values


def asyncio_get(host, port, path):
    async def fetch():
        client = loadgen.HttpClient(host, port)
        await client.connect()
        try:
            return (await client.get(path))[1]
        finally:
            await client.close()

    return asyncio.run(asyncio.wait_for(fetch(), 30.0))


def live_layers(run, accounted):
    """A short live run; ``daemon.*`` from what its generator saw.
    What the daemon's CPU went on is left in *accounted*."""
    from repro.observatory.tsv import read_tsv

    live = workloads.Run(run.seed, run.scale, run.workdir, run.ledger)
    live.meter = SpeedMeter(run.workdir)
    try:
        workloads.run_live_flush(live, workloads.LIVE_SECONDS / 3)
    finally:
        live.meter.stop()
    run.children += live.children
    info = run.ledger.info
    flush = info.pop("flush_ms")
    daemon = live.children[-1]
    flush_s = serve_s = 0.0
    tree = run.path("live")
    for name in os.listdir(tree):
        if name.startswith("_platform.") and name.endswith(".tsv"):
            for key, row in read_tsv(os.path.join(tree, name)).rows:
                if key == "window":
                    flush_s += row.get("flush_ms_mean", 0) \
                        * row.get("flush_n", 0) / 1e3
                elif key.startswith("server."):
                    serve_s += row.get("latency_ms_mean", 0) \
                        * row.get("latency_n", 0) / 1e3
    accounted.update(
        txns=info["offered_txn_per_s"] * info["stream_wall_s"],
        flush_s=flush_s, serve_s=serve_s, cpu_s=daemon.cpu_s)
    return {
        "daemon.flush_path_p10_ms": percentile(flush, 10),
        "daemon.flush_to_queryable_p50_ms": percentile(flush, 50),
        "daemon.flush_to_queryable_max_ms": max(flush),
        "daemon.windows_visible": info["windows_visible"],
        "daemon.cpu_share": info["daemon_cpu_share"],
        "daemon.gen_late_p99_ms": info["gen_late_p99_ms"],
        "daemon.gen_late_count": info["gen_late_count"],
        "daemon.drain_s": info["drain_s"],
        "daemon.query_p50_ms": info.pop("query_p50_ms"),
        "daemon.query_p99_ms": info.pop("query_p99_ms"),
        "server.sse_events": info["sse_events"],
    }


# -- the run -------------------------------------------------------------


def wire_job(run, tracer, txns, records, injected, packets, window):
    """The untraced ``wire_to_tsv`` pass (its wall is the coverage
    denominator), then the same job staged under spans."""
    ledger = run.ledger
    plain_out, staged_out = run.path("plain"), run.path("staged")
    os.mkdir(plain_out)
    plain = run.finish(run.child(
        python_child, [os.path.join(HERE, "child_pass.py"), "wire",
                       packets, plain_out, str(window)],
        "plain", cpus=SUT_CPUS))
    plain_s = json.loads(plain.output())["wall_s"]
    os.remove(os.path.join(plain_out, "parsed.facts"))

    os.mkdir(staged_out)
    with tracer.span("wire.staged_job") as whole:
        parsed, values, staged_s, skipped_ok = staged_wire_job(
            tracer, records, injected, staged_out, window)
    ledger.check(skipped_ok, "preprocess.skipped differs from the "
                             "injected count")
    ledger.attempt(len(txns))
    if len(parsed) != len(txns):
        ledger.fail("staged job parsed %d of %d" % (len(parsed), len(txns)),
                    abs(len(txns) - len(parsed)))
    ledger.check(tree_digest(staged_out) == tree_digest(plain_out),
                 "staged and untraced passes wrote different trees")
    values["trace.coverage.wire_to_tsv"] = staged_s / plain_s
    # the staged job is the untraced pass's work plus its spans
    values["trace.overhead_ratio"] = (whole[2] - whole[1]) / 1e9 / plain_s
    return values


def run_traced(run, trace_out):
    """All per-layer metrics of one traced run; writes *trace_out*."""
    ledger = run.ledger
    ledger.info["pinned"] = pin(0, LOAD_CPUS)
    tracer = Tracer()
    layers = Layers(tracer)
    values = layers.values
    window = 60.0 * run.scale

    with tracer.span("simulation.run"):
        txns = run.main_corpus()
    values["simulation.txn_per_s"] = ledger.info["simulation_txn_per_s"]
    records, injected = corpus.render_wire_corpus(txns, run.seed)
    packets, lines = run.path("packets.pkl"), run.path("corpus.tsv")
    with open(packets, "wb") as fh:
        pickle.dump(records, fh, protocol=pickle.HIGHEST_PROTOCOL)
    corpus.write_lines(txns, lines)
    n = len(txns)

    tracer.pass_id = "wire_to_tsv"
    layers.probe("wire_job", lambda: wire_job(
        run, tracer, txns, records, injected, packets, window))

    # the serve_mixed fixture replays on core 0 while the isolated
    # loops below keep core 1 busy; the serving probe waits for it
    fixture = []
    layers.probe("fixture", lambda: fixture.append(
        start_fixture(run, lines)) or {})
    tracer.pass_id = "isolated"
    layers.probe("tree_files", lambda: probe_tree_files(
        tracer, run.path("staged"), run.path("arrivals")),
        needs=("wire_job",))
    layers.probe("dnswire", lambda: probe_wire_codec(txns, records))
    layers.probe("transaction", lambda: probe_lines(txns))
    layers.probe("keys", lambda: probe_keys(txns))
    layers.probe("sketches", lambda: probe_sketches(txns))
    layers.probe("features", lambda: probe_features(txns))
    layers.probe("transport", lambda: probe_transport(txns, window))
    del records

    tracer.pass_id = "serve_mixed"
    layers.probe("serving", lambda: serving_layers(run, tracer, fixture[0]),
                 needs=("fixture",))
    shutil.rmtree(run.path("tree"), ignore_errors=True)

    def per_txn_ns():
        return values["window.consume_ns_per_txn"] \
            + values["transaction.from_line_ns_per_txn"]

    tracer.pass_id = "sharded_replay"
    sharded = {}
    layers.probe("sharded", lambda: sharded_against_single(
        run, lines, txns, window, sharded))

    def sharded_coverage():
        stage_cpu = (
            n * (per_txn_ns() + values["transport.encode_ns_per_txn"]
                 + values["transport.decode_ns_per_txn"]) / 1e9
            + sharded["merge_s"] + sharded["worker_flush_s"]
            # the probe packs one manager's state of a whole window,
            # which is what the two shards ship between them at a cut
            + sharded["cuts"] * (
                values["transport.pack_states_us_per_window"]
                + values["transport.unpack_states_us_per_window"]) / 1e6
            + values["aggregate.compact_ms"] / 1e3)
        return {"trace.coverage.sharded_replay":
                stage_cpu / sharded["cpu_s"]}

    layers.probe("sharded_coverage", sharded_coverage,
                 needs=("sharded", "wire_job", "transaction", "transport"))

    tracer.pass_id = "live_flush"
    live = {}
    layers.probe("daemon", lambda: live_layers(run, live))
    layers.probe("live_coverage", lambda: {
        "trace.coverage.live_flush":
            (live["txns"] * per_txn_ns() / 1e9 + live["flush_s"]
             + live["serve_s"]) / live["cpu_s"]},
        needs=("daemon", "wire_job", "transaction"))

    ledger.info["skipped_layers"] = layers.skipped
    tracer.dump(trace_out, {
        "seed": run.seed, "metrics": values, "units": UNITS,
        "skipped_layers": layers.skipped})
    return values
