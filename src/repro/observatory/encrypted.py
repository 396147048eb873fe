"""The ``_encrypted`` channel-feature dataset: what a blind sensor sees.

As resolvers move their upstream traffic to DoH/DoT, a passive sensor
on the encrypted path loses the DNS payload -- qname, qtype, rcode,
record data -- and keeps only what the channel itself leaks: message
sizes (after RFC 8467-style block padding plus TLS framing overhead)
and timing.  "Encrypted DNS => Privacy?  A Traffic Analysis
Perspective" (Siby et al.) shows those size/timing features still
carry signal; this module is the Observatory-side half of that story.

Two pieces:

* :func:`encrypt_observation` -- the sensor-side blinding transform.
  It maps a full :class:`~repro.observatory.transaction.Transaction`
  to the ciphertext-only view: payload fields zeroed, ``response_size``
  replaced by the padded on-wire size, and the ``source`` field tagged
  ``!doh:``/``!dot:`` so the pipeline can divert the record without
  changing the frozen 18-field line format (blinded lines replay from
  disk like any other).

* :class:`EncryptedChannelAggregator` -- the pipeline-side consumer.
  It folds blinded transactions into per-window, per-(transport,
  resolver) size/timing accumulators built from integers only, so the
  rows do not depend on the order records arrive in.

The dataset rides the normal TSV/segments/serving chain under the
reserved name :data:`ENCRYPTED_DATASET`.
"""

ENCRYPTED_DATASET = "_encrypted"

#: per-message framing + TLS record overhead added on the wire, by
#: transport: DoT is TLS framing over the padded DNS message; DoH adds
#: HTTP/2 frame and header-block bytes on top
TRANSPORT_OVERHEAD = {"dot": 29, "doh": 92}

#: transports :func:`encrypt_observation` accepts (plain never blinds)
ENCRYPTED_TRANSPORTS = tuple(sorted(TRANSPORT_OVERHEAD))

#: marker prefix on a blinded transaction's ``source`` field; the hot
#: path tests ``txn.source[:1] == "!"`` to divert without parsing
BLIND_MARK = "!"


def padded_size(size, block):
    """Pad *size* up to the next multiple of *block* (RFC 8467-style)."""
    block = int(block)
    if block <= 1:
        return int(size)
    return -(-int(size) // block) * block


def blind_transport(txn):
    """Transport tag of a blinded transaction (``"doh"``/``"dot"``)."""
    return txn.source[1:].partition(":")[0]


def encrypt_observation(txn, transport, padding_block=128):
    """Return the ciphertext-only view of *txn* on *transport*.

    Keeps the channel-visible facts -- timestamp, endpoint addresses,
    whether a response came back, its delay, the IP TTL on the
    response packet -- and blinds everything the encryption hides:
    qname, qtype, rcode, header flags, section counts and record data
    all reset to their empty values.  ``response_size`` becomes the
    padded on-wire size (0 for unanswered queries, where no response
    record crossed the channel at all).

    The result round-trips :meth:`Transaction.to_line`, so a blinded
    stream replays from disk exactly like a plaintext one.
    """
    from repro.observatory.transaction import Transaction

    try:
        overhead = TRANSPORT_OVERHEAD[transport]
    except KeyError:
        raise ValueError("unknown encrypted transport %r" % (transport,))
    wire = 0
    if txn.answered:
        wire = padded_size(txn.response_size, padding_block) + overhead
    return Transaction(
        ts=txn.ts,
        resolver_ip=txn.resolver_ip,
        server_ip=txn.server_ip,
        source="%s%s:%s" % (BLIND_MARK, transport, txn.source),
        qname="",
        qtype=0,
        rcode=None,
        answered=txn.answered,
        delay_ms=txn.delay_ms,
        observed_ttl=txn.observed_ttl,
        response_size=wire,
    )


# accumulator slot indices (integer-only, order-invariant folds): one
# list per ``"<transport>|<resolver_ip>"``
_QUERIES, _ANSWERED, _BYTES = 0, 1, 2
_SIZE_MIN, _SIZE_MAX = 3, 4
_DELAY_SUM, _DELAY_MIN, _DELAY_MAX = 5, 6, 7

_EMPTY = (0, 0, 0, None, None, 0, None, None)


def _merge_slot(acc, other):
    acc[_QUERIES] += other[_QUERIES]
    acc[_ANSWERED] += other[_ANSWERED]
    acc[_BYTES] += other[_BYTES]
    for idx in (_SIZE_MIN, _DELAY_MIN):
        if other[idx] is not None:
            acc[idx] = other[idx] if acc[idx] is None \
                else min(acc[idx], other[idx])
    for idx in (_SIZE_MAX, _DELAY_MAX):
        if other[idx] is not None:
            acc[idx] = other[idx] if acc[idx] is None \
                else max(acc[idx], other[idx])
    acc[_DELAY_SUM] += other[_DELAY_SUM]


#: ``_encrypted`` row schema (shared by per-resolver and summary rows)
ENCRYPTED_COLUMNS = [
    "queries", "answered", "unans", "bytes", "size_min", "size_max",
    "size_mean", "delay_ms_mean", "delay_ms_min", "delay_ms_max",
    "resolvers",
]


class EncryptedChannelAggregator:
    """Fold blinded transactions into per-window channel features.

    One instance per pipeline; the window manager calls
    :meth:`observe_batch` with blinded transactions only, then
    :meth:`cut` at every window boundary.
    """

    def __init__(self):
        self._slots = {}

    # -- ingest ---------------------------------------------------------

    def observe(self, txn):
        key = "%s|%s" % (blind_transport(txn), txn.resolver_ip)
        acc = self._slots.get(key)
        if acc is None:
            acc = list(_EMPTY)
            self._slots[key] = acc
        acc[_QUERIES] += 1
        if txn.answered:
            acc[_ANSWERED] += 1
            size = txn.response_size
            acc[_BYTES] += size
            if acc[_SIZE_MIN] is None or size < acc[_SIZE_MIN]:
                acc[_SIZE_MIN] = size
            if acc[_SIZE_MAX] is None or size > acc[_SIZE_MAX]:
                acc[_SIZE_MAX] = size
            delay_us = int(round(txn.delay_ms * 1000.0))
            acc[_DELAY_SUM] += delay_us
            if acc[_DELAY_MIN] is None or delay_us < acc[_DELAY_MIN]:
                acc[_DELAY_MIN] = delay_us
            if acc[_DELAY_MAX] is None or delay_us > acc[_DELAY_MAX]:
                acc[_DELAY_MAX] = delay_us

    def observe_batch(self, txns):
        observe = self.observe
        for txn in txns:
            observe(txn)

    # -- emit -----------------------------------------------------------

    def cut(self, start_ts, end_ts):
        """Emit this window's rows and reset for the next window.

        Row order is deterministic regardless of observation order:
        per-transport summary rows (``doh``, ``dot``) first, then
        ``<transport>.<resolver_ip>`` rows sorted by key.
        """
        slots = self._slots
        self._slots = {}
        if not slots:
            return []
        summaries = {}
        for key, acc in slots.items():
            transport = key.partition("|")[0]
            summary, resolvers = summaries.get(transport, (None, 0))
            if summary is None:
                summary = list(_EMPTY)
            _merge_slot(summary, acc)
            summaries[transport] = (summary, resolvers + 1)
        rows = []
        for transport in sorted(summaries):
            summary, resolvers = summaries[transport]
            rows.append((transport, self._row(summary, resolvers)))
        for key in sorted(slots):
            transport, _, resolver_ip = key.partition("|")
            rows.append(("%s.%s" % (transport, resolver_ip),
                         self._row(slots[key], 1)))
        return rows

    def seen(self):
        """Blinded transactions accumulated so far this window."""
        return sum(acc[_QUERIES] for acc in self._slots.values())

    @staticmethod
    def _row(acc, resolvers):
        answered = acc[_ANSWERED]
        row = {
            "queries": acc[_QUERIES],
            "answered": answered,
            "unans": acc[_QUERIES] - answered,
            "bytes": acc[_BYTES],
            "size_min": acc[_SIZE_MIN] or 0,
            "size_max": acc[_SIZE_MAX] or 0,
            "size_mean": (acc[_BYTES] / answered) if answered else 0,
            "delay_ms_mean": (acc[_DELAY_SUM] / answered / 1000.0)
            if answered else 0,
            "delay_ms_min": (acc[_DELAY_MIN] or 0) / 1000.0,
            "delay_ms_max": (acc[_DELAY_MAX] or 0) / 1000.0,
            "resolvers": resolvers,
        }
        return row
