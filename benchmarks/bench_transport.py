"""Shard transport codec: serialized bytes and encode/decode cost.

The sharded engine ships two payload kinds over its queues: upstream
transaction batches and downstream merged-window shard states.  This
bench measures both for the default-pickle transport and the binary
codec (line-block batches + protocol-5 out-of-band sketch buffers),
recording bytes per payload and per-transaction codec cost.

The headline acceptance number is the state-payload reduction: one
merged window of shard state must serialize to at most half the
default-pickle bytes.
"""

import pickle

import pytest

from benchmarks.conftest import base_scenario, save_result
from repro.observatory.pipeline import Observatory
from repro.observatory.transport import (
    decode_batch, encode_batch, pack_states, unpack_states)
from repro.simulation.sie import SieChannel

ALL_DATASETS = [("srvip", 2000), ("qname", 4000), ("esld", 2000),
                "qtype", "rcode", ("aafqdn", 2000)]


@pytest.fixture(scope="module")
def transaction_batch():
    scenario = base_scenario(duration=240.0, client_qps=150.0)
    return list(SieChannel(scenario).run())


@pytest.fixture(scope="module")
def shard_states(transaction_batch):
    """The states one worker ships at a cut: ingest the stream into a
    single-process Observatory with the shard state sink attached, so
    the flushed windows come out as WindowState objects instead of
    being merged locally -- exactly the worker flush path."""
    obs = Observatory(datasets=ALL_DATASETS, use_bloom_gate=False,
                      keep_dumps=False)
    states = []
    obs.windows.state_sink = states.append
    obs.consume(transaction_batch)
    obs.windows.flush()
    assert states
    return states


def test_state_bytes_per_window(benchmark, shard_states):
    """Bytes on the wire for one cut's worth of shard states."""
    default_bytes = len(pickle.dumps(shard_states))

    def pack_unpack():
        payload, buffers = pack_states(shard_states)
        return unpack_states(payload, buffers)

    back = benchmark.pedantic(pack_unpack, rounds=5, iterations=1)
    assert len(back) == len(shard_states)
    payload, buffers = pack_states(shard_states)
    binary_bytes = len(payload) + sum(len(b) for b in buffers)
    ratio = default_bytes / binary_bytes
    windows = len(shard_states)
    save_result(
        "transport_state_bytes",
        "shard state payload (%d window states, %d txns ingested):\n"
        "  default pickle : %d bytes (%d/window)\n"
        "  binary codec   : %d bytes (%d/window, %d out-of-band buffers)\n"
        "  reduction      : %.2fx\n"
        "  binary pack+unpack round trip: %.1f ms"
        % (windows, sum(s.seen for s in shard_states),
           default_bytes, default_bytes // windows,
           binary_bytes, binary_bytes // windows, len(buffers),
           ratio, benchmark.stats["mean"] * 1e3))
    assert binary_bytes * 2 <= default_bytes, \
        "binary states must be <= half the default-pickle bytes " \
        "(got %.2fx)" % ratio


def test_batch_encode_decode(benchmark, transaction_batch):
    """Upstream line-block codec: per-transaction cost and bytes."""
    batch = transaction_batch[:2000]
    pickle_bytes = len(pickle.dumps(batch))

    def roundtrip():
        return decode_batch(encode_batch(batch))

    back = benchmark.pedantic(roundtrip, rounds=5, iterations=1)
    assert len(back) == len(batch)
    assert back[0].ts == batch[0].ts
    line_bytes = len(encode_batch(batch))
    per_txn_ns = benchmark.stats["mean"] / len(batch) * 1e9
    save_result(
        "transport_batch_codec",
        "transaction batch codec (%d transactions):\n"
        "  default pickle : %d bytes\n"
        "  line block     : %d bytes (%.2fx)\n"
        "  encode+decode  : %d ns/txn"
        % (len(batch), pickle_bytes, line_bytes,
           pickle_bytes / line_bytes, per_txn_ns))
    # the batch codec trades bytes for zero worker-side object builds
    # on the coordinator; it only needs to be in the same ballpark
    assert line_bytes < 2 * pickle_bytes
