"""Compatibility shim: the shard link is the queues' own pickling.

:class:`~repro.observatory.sharded.ShardedObservatory` puts pickled
transaction batches and lists of cut windows on its multiprocessing
queues and does not use this module.  The identity codec below is kept
only because the ledger's ``probe_transport`` (``benchmarks/ledger/``)
names it; it goes when that probe does.
"""


class PickleTransport:
    """Identity codec: the queue pickles the objects themselves."""

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


def get_transport(name):
    """The codec named *name*; only ``"pickle"`` exists."""
    if name != PickleTransport.name:
        raise ValueError("unknown transport %r: the shard link is the "
                         "queue's pickling, other transports were removed"
                         % (name,))
    return PickleTransport()
