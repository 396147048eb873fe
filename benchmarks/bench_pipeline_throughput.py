"""Platform throughput: transactions/second through the pipeline.

The paper's deployment ingests a peak of 200 k transactions/second (in
compiled code, across machines).  This bench measures what the pure-
Python pipeline sustains for (a) the Top-k tracking core alone and
(b) the full Observatory with all datasets -- the numbers that justify
the scale map in DESIGN.md.
"""

import os

import pytest

from benchmarks.conftest import (
    base_scenario,
    measure_sharded_run,
    save_result,
)
from repro.observatory.pipeline import Observatory
from repro.observatory.sharded import ShardedObservatory
from repro.simulation.sie import SieChannel

ALL_DATASETS = [("srvip", 2000), ("qname", 4000), ("esld", 2000),
                "qtype", "rcode", ("aafqdn", 2000)]

CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def transaction_batch():
    scenario = base_scenario(duration=240.0, client_qps=150.0)
    return list(SieChannel(scenario).run())


def test_throughput_srvip_only(benchmark, transaction_batch):
    def ingest():
        obs = Observatory(datasets=[("srvip", 2000)], use_bloom_gate=False)
        obs.consume(transaction_batch)
        obs.finish()
        return obs

    obs = benchmark.pedantic(ingest, rounds=3, iterations=1)
    rate = len(transaction_batch) / benchmark.stats["mean"]
    save_result("throughput_srvip", "srvip-only pipeline: %d txn/s "
                "(%d transactions)" % (rate, len(transaction_batch)))
    assert obs.total_seen == len(transaction_batch)
    assert rate > 3000  # sanity floor for pure Python


def test_throughput_all_datasets(benchmark, transaction_batch):
    def ingest():
        obs = Observatory(datasets=ALL_DATASETS, use_bloom_gate=False)
        obs.consume(transaction_batch)
        obs.finish()
        return obs

    benchmark.pedantic(ingest, rounds=2, iterations=1)
    rate = len(transaction_batch) / benchmark.stats["mean"]
    save_result("throughput_all", "all-datasets pipeline: %d txn/s "
                "(%d transactions)" % (rate, len(transaction_batch)))
    assert rate > 1000


@pytest.mark.parametrize("transport", ["pickle", "binary"])
@pytest.mark.parametrize("shards", [2, 4])
def test_throughput_sharded(benchmark, transaction_batch, shards,
                            transport):
    """All-datasets ingest through N worker processes, for every shard
    transport (default pickle and the binary line-block/out-of-band
    codec).

    Instead of asserting a hoped-for speedup behind a core-count
    guess, this records what actually happened: the measured speedup
    over single-process ingest and the per-worker CPU utilization
    (``RUSAGE_CHILDREN`` deltas over shards x wall time).  The speedup
    gate only applies where real parallelism exists (>= 2 cores); a
    single-core container time-shares everything and the honest report
    is the deliverable.
    """
    def ingest():
        obs = ShardedObservatory(shards=shards, datasets=ALL_DATASETS,
                                 use_bloom_gate=False, keep_dumps=False,
                                 transport=transport)
        obs.consume(transaction_batch)
        obs.finish()
        return obs

    obs = benchmark.pedantic(ingest, rounds=2, iterations=1)
    assert obs.total_seen == len(transaction_batch)
    rate = len(transaction_batch) / benchmark.stats["mean"]
    measured = measure_sharded_run(
        transaction_batch, shards, transport, ALL_DATASETS,
        use_bloom_gate=False)
    single_rate = _single_process_rate(transaction_batch)
    speedup = measured["txn_per_s"] / single_rate
    name = ("throughput_sharded_%d" % shards if transport == "pickle"
            else "throughput_sharded_%d_%s" % (shards, transport))
    save_result(
        name,
        "sharded pipeline (%d workers, %s transport, %d cpu cores): "
        "%d txn/s (%d transactions)\n"
        "  single-process baseline %d txn/s -> measured speedup %.2fx\n"
        "  per-worker utilization %.0f%% (%.1fs worker CPU over %.1fs "
        "wall)" % (
            shards, transport, CORES, rate, len(transaction_batch),
            single_rate, speedup,
            100 * measured["worker_utilization"],
            measured["worker_cpu_s"], measured["wall_s"]))
    if CORES >= 2:
        # With real parallelism available, sharding must pay for its
        # transport overhead; the full 2x bar needs a core per worker
        # plus headroom for the coordinator.
        floor = 2.0 if CORES >= 2 * shards else 1.1
        assert speedup >= floor, \
            "expected >=%.1fx single-process throughput on %d cores, " \
            "measured %.2fx" % (floor, CORES, speedup)


def _single_process_rate(transaction_batch):
    import time

    obs = Observatory(datasets=ALL_DATASETS, use_bloom_gate=False,
                      keep_dumps=False)
    t0 = time.perf_counter()
    obs.consume(transaction_batch)
    obs.finish()
    return len(transaction_batch) / (time.perf_counter() - t0)


def test_throughput_simulation(benchmark):
    def simulate():
        scenario = base_scenario(duration=120.0, client_qps=150.0)
        return len(list(SieChannel(scenario).run()))

    count = benchmark.pedantic(simulate, rounds=2, iterations=1)
    rate = count / benchmark.stats["mean"]
    save_result("throughput_simulation",
                "simulator: %d txn/s (%d transactions)" % (rate, count))
    assert count > 1000
