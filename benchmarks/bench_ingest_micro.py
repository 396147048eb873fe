"""Micro-benchmarks for the single-process ingest hot path.

Quantifies the batch-ingest optimizations that ride along with the
sharded engine: lazy :class:`TxnHashes` (each base hash is computed on
first use instead of eagerly for every tracker), memoized key
extraction (the PSL walk for esld/etld is cached per qname), and the
hoisted window-boundary check of ``consume_batch``.

Run directly (``python benchmarks/bench_ingest_micro.py [--check]``)
it becomes the ingest throughput trail: one fixed workload through
single-process, sharded-pickle and sharded-binary ingest, written to
``benchmarks/results/BENCH_ingest.json`` (the committed perf
trajectory).  ``--check`` additionally gates: the single-process rate
must clear an absolute txn/s floor.
"""

import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):  # executed as a script, not via pytest
    for _path in (_ROOT, os.path.join(_ROOT, "src")):
        if _path not in sys.path:
            sys.path.insert(0, _path)

import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    base_scenario,
    measure_sharded_run,
    save_result,
)
from repro.observatory.features import TxnHashes
from repro.observatory.keys import make_dataset
from repro.observatory.pipeline import Observatory
from repro.sketches._hashing import hash64
from repro.simulation.sie import SieChannel


@pytest.fixture(scope="module")
def transaction_batch():
    scenario = base_scenario(duration=120.0, client_qps=150.0)
    return list(SieChannel(scenario).run())


def test_txn_hashes_lazy_vs_eager(benchmark, transaction_batch):
    """A single-dataset pipeline touches at most one or two of the
    four base hashes; lazy evaluation should beat computing all of
    them up front (what the eager implementation did)."""
    def lazy():
        total = 0
        for txn in transaction_batch:
            hashes = TxnHashes(txn)
            total += hashes.server & 1  # one feature consumer
        return total

    benchmark.pedantic(lazy, rounds=5, iterations=1)
    lazy_s = benchmark.stats["mean"]

    import time

    def eager():
        total = 0
        for txn in transaction_batch:
            server = hash64(txn.server_ip)
            resolver = hash64(txn.resolver_ip)
            qname = hash64(txn.qname)
            qdots = txn.qdots
            total += server & 1
        return total

    t0 = time.perf_counter()
    for _ in range(5):
        eager()
    eager_s = (time.perf_counter() - t0) / 5
    save_result(
        "micro_txn_hashes",
        "TxnHashes over %d txns, one hash consumed:\n"
        "  lazy  %.1f us/txn\n  eager %.1f us/txn (computes all 4)\n"
        "  speedup %.2fx" % (
            len(transaction_batch),
            1e6 * lazy_s / len(transaction_batch),
            1e6 * eager_s / len(transaction_batch),
            eager_s / lazy_s))
    assert lazy_s < eager_s


def test_esld_key_extraction_memoized(benchmark, transaction_batch):
    """The esld extractor caches the public-suffix walk per qname;
    repeated qnames (the common case -- DNS traffic is heavily
    skewed) must hit the memo."""
    spec = make_dataset("esld", 2000)
    extract = spec.make_extractor()

    def run():
        count = 0
        for txn in transaction_batch:
            if extract(txn) is not None:
                count += 1
        return count

    count = benchmark.pedantic(run, rounds=5, iterations=1)
    per_txn = 1e6 * benchmark.stats["mean"] / len(transaction_batch)
    save_result(
        "micro_esld_extraction",
        "memoized esld extraction: %.2f us/txn (%d/%d keyed)" % (
            per_txn, count, len(transaction_batch)))
    assert count > 0
    assert per_txn < 10.0


def test_consume_batch_vs_ingest_loop(benchmark, transaction_batch):
    """consume_batch (hoisted boundary checks, pre-bound trackers)
    must not be slower than the per-transaction ingest loop."""
    def batched():
        obs = Observatory(datasets=[("srvip", 2000)], use_bloom_gate=False)
        obs.consume_batch(transaction_batch)
        obs.finish()
        return obs

    benchmark.pedantic(batched, rounds=3, iterations=1)
    batched_s = benchmark.stats["mean"]

    import time

    t0 = time.perf_counter()
    obs = Observatory(datasets=[("srvip", 2000)], use_bloom_gate=False)
    for txn in transaction_batch:
        obs.ingest(txn)
    obs.finish()
    loop_s = time.perf_counter() - t0

    save_result(
        "micro_consume_batch",
        "srvip-only ingest of %d txns:\n"
        "  consume_batch %.0f txn/s\n  ingest loop   %.0f txn/s\n"
        "  speedup %.2fx" % (
            len(transaction_batch),
            len(transaction_batch) / batched_s,
            len(transaction_batch) / loop_s,
            loop_s / batched_s))
    # Allow scheduling noise, but batching must never regress badly.
    assert batched_s < loop_s * 1.10


# ---------------------------------------------------------------------
# The committed throughput trail: BENCH_ingest.json + the CI gate
# ---------------------------------------------------------------------

#: shard count for the trail runs (kept small: the gate must also be
#: honest on 2-core CI runners)
TRAIL_SHARDS = 2

#: absolute single-process floor (txn/s).  PR 1 measured ~3.7k on the
#: reference container *before* the batched hot path; the floor sits
#: below that so slower CI hardware does not flake, while still
#: catching any order-of-magnitude regression.
FLOOR_TXN_PER_S = 2000.0

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_ingest.json")

#: the trail workload (same dataset mix as the throughput benches)
TRAIL_DATASETS = [("srvip", 2000), ("qname", 4000), ("esld", 2000),
                  "qtype", "rcode", ("aafqdn", 2000)]


def _measure_single(txns):
    import time

    obs = Observatory(datasets=TRAIL_DATASETS, use_bloom_gate=False,
                      keep_dumps=False)
    t0 = time.perf_counter()
    obs.consume(txns)
    obs.finish()
    wall = time.perf_counter() - t0
    assert obs.total_seen == len(txns)
    return {"txn_per_s": round(len(txns) / wall, 1),
            "wall_s": round(wall, 3)}


def run_ingest_trail(out_path=BENCH_JSON):
    """Measure the three ingest configurations and write the JSON trail.

    Returns the payload dict (also written to *out_path*).
    """
    cores = os.cpu_count() or 1
    txns = list(SieChannel(
        base_scenario(duration=120.0, client_qps=150.0)).run())
    configs = {"single-process": _measure_single(txns)}
    single_rate = configs["single-process"]["txn_per_s"]
    for transport in ("pickle", "binary"):
        run = measure_sharded_run(
            txns, TRAIL_SHARDS, transport, TRAIL_DATASETS,
            use_bloom_gate=False)
        run["speedup_vs_single"] = round(run["txn_per_s"] / single_rate, 3)
        configs["sharded-" + transport] = run
    payload = {
        "bench": "ingest",
        "workload": {
            "transactions": len(txns),
            "datasets": [d if isinstance(d, str) else list(d)
                         for d in TRAIL_DATASETS],
            "shards": TRAIL_SHARDS,
        },
        "cores": cores,
        "floor_txn_per_s": FLOOR_TXN_PER_S,
        "configs": configs,
    }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def check_ingest_trail(payload):
    """Apply the CI gates to a measured trail; returns failure list."""
    failures = []
    single_rate = payload["configs"]["single-process"]["txn_per_s"]
    if single_rate < payload["floor_txn_per_s"]:
        failures.append(
            "single-process ingest %.0f txn/s below the %.0f floor"
            % (single_rate, payload["floor_txn_per_s"]))
    return failures


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="measure the ingest throughput trail "
                    "(single / sharded-pickle / sharded-binary) "
                    "and write BENCH_ingest.json")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the single-process "
                             "txn/s floor is missed")
    parser.add_argument("-o", "--output", default=BENCH_JSON,
                        help="JSON output path")
    args = parser.parse_args(argv)
    payload = run_ingest_trail(args.output)
    for name in ("single-process", "sharded-pickle", "sharded-binary"):
        row = payload["configs"][name]
        extra = ""
        if "speedup_vs_single" in row:
            extra = "  (%.2fx single, %.0f%% worker util)" % (
                row["speedup_vs_single"],
                100 * row["worker_utilization"])
        print("%-16s %8.0f txn/s%s" % (name, row["txn_per_s"], extra))
    print("%d cores  -> %s" % (payload["cores"], args.output))
    if args.check:
        failures = check_ingest_trail(payload)
        for failure in failures:
            print("GATE FAILED: %s" % failure, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
