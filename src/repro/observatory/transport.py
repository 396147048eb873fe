"""Shard transport codecs: what actually crosses the process boundary.

The sharded ingest engine of :mod:`repro.observatory.sharded` ships two
payload kinds between the coordinator and its workers:

* **upstream** -- batches of transactions routed to a shard;
* **downstream** -- merged-window state (:class:`ShardWindowState`
  lists, whose entries carry live sketch registers and histograms).

The original transport let the multiprocessing queues pickle both with
the default protocol, so coordinator time grew with the feature payload
size: every ``Transaction`` pickled as a 23-slot object graph, and
every ``FeatureSet`` as a slot dict holding eight 2 KiB HyperLogLog
register blobs -- dense even when nearly empty.

This module provides the explicit **binary** codec:

* :func:`encode_batch_into` / :func:`decode_batch` turn a transaction
  batch into one pre-serialized line block (the §2.1 "line of text" format
  with exact float round-tripping) -- one flat ``bytes`` per queue
  message instead of a pickled object list;
* :func:`pack_states` / :func:`unpack_states` pickle shard state with
  **protocol 5 out-of-band buffers** (PEP 574).  Every sketch exposes
  its contiguous payload via ``to_buffers()`` (HLL register blocks,
  packed histogram buckets); ``__reduce_ex__`` wraps those in
  :class:`pickle.PickleBuffer`, and the buffer callback collects them
  *without copying into the pickle stream*.  The payload shrinks
  further because mostly-empty register blocks encode sparsely.

Both codecs are exposed behind a tiny transport interface so the
coordinator and workers can A/B them (``--transport {pickle,binary}``
on the CLI); :class:`PickleTransport` is the original behavior.
"""

import pickle

from repro.observatory.transaction import Transaction

_LINE_SEP = b"\n"


def encode_batch_into(txns, buf):
    """Encode a batch as one newline-joined line block in the reusable
    bytearray *buf* and return it.  Floats are serialized exactly
    (``repr``), so a decoded transaction is indistinguishable from the
    original to the window/decay logic.

    The join-based encoder allocated one bytes object per transaction
    plus the joined block per batch; profiles showed that churn as the
    feeder's top allocator.  Growing a single persistent buffer in
    place keeps the batch encode at one amortized allocation: the
    bytearray retains its capacity across batches, so steady-state
    encoding allocates nothing but the line strings themselves.
    """
    del buf[:]
    for txn in txns:
        buf += txn.to_line(exact=True).encode("utf-8")
        buf += _LINE_SEP
    if buf:
        del buf[-1:]  # no trailing separator, same framing as join
    return buf


def decode_batch(data):
    """Decode a line block produced by :func:`encode_batch_into`."""
    if not data:
        return []
    if not isinstance(data, bytes):  # memoryview from out-of-band paths
        data = bytes(data)
    from_line = Transaction.from_line
    return [from_line(line) for line in data.decode("utf-8").split("\n")]


def pack_states(states):
    """Pickle shard state with protocol-5 out-of-band buffers.

    Returns ``(payload, buffers)``: *payload* is the pickle stream with
    every sketch's contiguous data excised, *buffers* the list of raw
    bytes-like objects (HLL register bytearrays are passed through
    as-is -- zero copies on the sending side).
    """
    buffers = []

    def grab(pickle_buffer):
        view = pickle_buffer.raw()
        # to_buffers() always hands over whole bytes/bytearray objects,
        # so the view's .obj is the original buffer; fall back to a
        # copy for anything more exotic.
        obj = view.obj
        buffers.append(obj if isinstance(obj, (bytes, bytearray))
                       else view.tobytes())

    payload = pickle.dumps(states, protocol=5, buffer_callback=grab)
    return payload, buffers


def unpack_states(payload, buffers):
    """Inverse of :func:`pack_states`."""
    return pickle.loads(payload, buffers=buffers)


class PickleTransport:
    """The original transport: queues pickle live object graphs."""

    name = "pickle"

    @staticmethod
    def pack_batch(txns):
        return list(txns)

    @staticmethod
    def unpack_batch(payload):
        return payload

    @staticmethod
    def pack_states(states):
        return states

    @staticmethod
    def unpack_states(payload):
        return payload


class BinaryTransport:
    """Line-block batches + protocol-5 out-of-band state buffers."""

    name = "binary"

    def __init__(self):
        #: persistent encode buffer, reused across batches
        self._buf = bytearray()

    def pack_batch(self, txns):
        # the queue copies the payload asynchronously (feeder thread),
        # so it gets an immutable snapshot of the reused buffer
        return bytes(encode_batch_into(txns, self._buf))

    @staticmethod
    def unpack_batch(payload):
        return decode_batch(payload)

    @staticmethod
    def pack_states(states):
        return pack_states(states)

    @staticmethod
    def unpack_states(payload):
        return unpack_states(*payload)


TRANSPORTS = {
    PickleTransport.name: PickleTransport,
    BinaryTransport.name: BinaryTransport,
}


def get_transport(transport):
    """Resolve a transport name (or pass an instance through)."""
    if isinstance(transport, str):
        try:
            return TRANSPORTS[transport]()
        except KeyError:
            raise ValueError("unknown transport %r (choose from %s)"
                             % (transport, sorted(TRANSPORTS)))
    return transport
