"""Preprocessing: raw IP/UDP/DNS packets -> transaction summaries (§2.1).

"Each transaction includes raw packets, starting at the IP header, and
detailed timestamps. ... we read the stream, deserialize the data,
parse IP headers and DNS payloads, and summarize each transaction with
a line of text."

:func:`summarize_transaction` is that parser: it takes the raw query
packet, the raw response packet (or None for unanswered queries), and
their capture timestamps, and produces a compact
:class:`~repro.observatory.transaction.Transaction`.  Per Section 2.5,
the detailed timestamps are collapsed into a response delay and all
EDNS0 option payload (cookies, client-subnet) is dropped -- only the
DO flag survives, as the ok_sec feature needs it.

The DNS payloads are read in one pass that decodes only what the
summary keeps: the header, the first question's type, each record's
type and TTL, A/AAAA addresses and CNAME/NS targets in ANSWER, NS
targets in AUTHORITY, the DO bit of the first OPT and RRSIG presence.
Every other name and rdata is walked and bounds-checked, never built,
so a packet is accepted exactly when
:meth:`repro.dnswire.message.Message.from_wire` accepts it and the
summary equals the one derived from the decoded message (the
differential in ``tests/observatory/test_preprocess_differential.py``
holds the two together).
"""

import struct
from socket import inet_ntoa

from repro.dnswire.name import (
    MAX_NAME_LENGTH,
    NameError_,
    decode_name,
    normalize_name,
)
from repro.netsim.addr import ipv6_from_bytes
from repro.netsim.packet import parse_ip_packet
from repro.observatory.transaction import Transaction


class PreprocessError(ValueError):
    """Raised when a raw transaction cannot be summarized."""


def summarize_batch(records, source="src0", on_error=None):
    """Summarize raw transaction *records* in bulk (the feeder path).

    Each record is a ``(query_packet, response_packet, query_ts[,
    response_ts])`` tuple, as taken by :func:`summarize_transaction`.
    Malformed records are skipped (the platform drops what it cannot
    parse rather than stalling the stream); pass *on_error* --
    ``on_error(record, exc)`` -- to count or log them.  Returns the
    list of parsed :class:`~repro.observatory.transaction.Transaction`
    summaries, in input order.
    """
    out = []
    append = out.append
    for record in records:
        try:
            append(summarize_transaction(*record, source=source))
        except PreprocessError as exc:
            if on_error is not None:
                on_error(record, exc)
    return out


def summarize_transaction(query_packet, response_packet, query_ts,
                          response_ts=None, source="src0"):
    """Parse raw packets into a :class:`Transaction`.

    Parameters
    ----------
    query_packet:
        Raw bytes of the resolver's query, starting at the IP header.
    response_packet:
        Raw bytes of the nameserver's response, or None when the query
        went unanswered (the *unans* feature).
    query_ts / response_ts:
        Capture timestamps in seconds.  Only their difference (the
        response delay) is retained.
    source:
        Identifier of the contributing sensor (SIE channel member).

    Raises :class:`PreprocessError` for anything it cannot summarize:
    bad IP framing, a DNS payload the codec would reject, mismatched
    ids, or a timestamp outside the domain
    :meth:`~repro.observatory.transaction.Transaction.check_domains`
    sets.
    """
    try:
        resolver_ip, server_ip, _, _, _, query, _, _ = \
            parse_ip_packet(query_packet)
        (query_id, _, qtype, _, _, _, _, _, _, _, query_do,
         _) = _scan(query)
        if qtype is None:
            raise PreprocessError("query without question section")
        qname = _read_name(query, 12)
        if response_packet is None:
            txn = Transaction(
                ts=query_ts, resolver_ip=resolver_ip, server_ip=server_ip,
                source=source, qname=qname, qtype=qtype, rcode=None,
                answered=False, edns_do=query_do)
            txn.check_domains()
            return txn

        _, _, _, _, observed_ttl, response, _, _ = \
            parse_ip_packet(response_packet)
        (response_id, flags, _, answer_ttls, answer_ips, cname_targets,
         ns_ttls, ns_names, answer_count, additional_count, response_do,
         has_rrsig) = _scan(response)
        if response_id != query_id:
            raise PreprocessError(
                "response id %d does not match query id %d"
                % (response_id, query_id))

        delay_ms = 0.0
        if response_ts is not None:
            delay_ms = max(0.0, (response_ts - query_ts) * 1000.0)
        # positional, in the order of Transaction.__init__: passing 23
        # keywords costs about as much as the rest of the call
        txn = Transaction(query_ts, resolver_ip, server_ip, qname, qtype,
                          flags & 0x000F, True, flags & 0x0400,
                          flags & 0x0200, query_do or response_do,
                          has_rrsig, delay_ms, observed_ttl, len(response),
                          answer_count, len(ns_ttls), additional_count,
                          answer_ttls, ns_ttls, answer_ips, cname_targets,
                          ns_names, source)
        txn.check_domains()
        return txn
    except PreprocessError:
        raise
    except (ValueError, IndexError, struct.error) as exc:
        raise PreprocessError("malformed transaction: %s" % exc) from exc


def _scan(wire):
    """One pass over a DNS message: validate it as ``Message.from_wire``
    would and return ``(msg_id, flags, first_qtype, answer_ttls,
    answer_ips, cname_targets, ns_ttls, ns_names, answer_count,
    additional_count, do_bit, has_rrsig)``.

    ``first_qtype`` is None when the question section is empty.
    Counts, TTLs and the rdata lists follow the summary's rules: RRSIG
    never counts, OPT does not count in ADDITIONAL, and only the first
    OPT of ADDITIONAL carries the DO bit.  Type numbers are literals
    (RFC 1035, 3596, 2782, 4034, 6891): a ``QTYPE`` attribute lookup
    costs about 0.2 µs, and a record takes several.  Malformed input
    raises ``ValueError``, ``IndexError`` or ``struct.error``.
    """
    unpack_from = struct.unpack_from
    end = len(wire)
    msg_id, flags, qdcount, ancount, nscount, arcount = \
        unpack_from(">HHHHHH", wire, 0)
    pos = 12
    qtype = None
    for _ in range(qdcount):
        pos = _skip_name(wire, pos)
        if qtype is None:
            qtype = unpack_from(">HH", wire, pos)[0]
        elif pos + 4 > end:
            raise ValueError("truncated question")
        pos += 4

    answer_ttls = []
    answer_ips = []
    cname_targets = []
    ns_ttls = []
    ns_names = []
    answer_count = additional_count = 0
    do_bit = None
    has_rrsig = False
    section = 1
    for count in (ancount, nscount, arcount):
        for _ in range(count):
            pos = _skip_name(wire, pos)
            rtype, _, ttl, rdlength = unpack_from(">HHIH", wire, pos)
            pos += 10
            rdend = pos + rdlength
            if rdend > end:
                raise ValueError("truncated RDATA")
            # A name that follows fixed fields (RRSIG, MX, SRV) starts
            # past the end when they do not fit: reading it raises.
            if rtype == 46:  # RRSIG: 18 bytes of fields, then the signer
                _skip_name(wire, pos + 18)
                has_rrsig = True
                pos = rdend
                continue
            if section == 1:
                answer_count += 1
                answer_ttls.append(ttl)
            elif section == 3:
                if rtype == 41:  # OPT
                    if do_bit is None:
                        do_bit = bool(ttl & 0x8000)
                else:
                    additional_count += 1
            if rtype == 1:  # A
                if rdlength != 4:
                    raise ValueError("A rdata must be 4 bytes")
                if section == 1:
                    answer_ips.append(inet_ntoa(wire[pos:rdend]))
            elif rtype == 2 or rtype == 5:  # NS, CNAME
                if section == 1 or (section == 2 and rtype == 2):
                    target = _read_name(wire, pos)
                    if rtype == 5:
                        cname_targets.append(target)
                    else:
                        ns_names.append(target)
                        if section == 2:
                            ns_ttls.append(ttl)
                else:
                    _skip_name(wire, pos)
            elif rtype == 28:  # AAAA
                if rdlength != 16:
                    raise ValueError("AAAA rdata must be 16 bytes")
                if section == 1:
                    answer_ips.append(ipv6_from_bytes(wire[pos:rdend]))
            elif rtype == 12:  # PTR
                _skip_name(wire, pos)
            elif rtype == 6:  # SOA: two names, then five 32-bit fields
                if _skip_name(wire, _skip_name(wire, pos)) + 20 > end:
                    raise ValueError("truncated SOA")
            elif rtype == 15:  # MX: preference, exchange
                _skip_name(wire, pos + 2)
            elif rtype == 33:  # SRV: priority, weight, port, target
                _skip_name(wire, pos + 6)
            elif rtype == 43:  # DS: key tag, algorithm, digest type
                if pos + 4 > end:
                    raise ValueError("truncated DS")
            pos = rdend
        section += 1
    return (msg_id, flags, qtype, answer_ttls, answer_ips, cname_targets,
            ns_ttls, ns_names, answer_count, additional_count, bool(do_bit),
            has_rrsig)


def _skip_name(wire, pos, labels=None):
    """Return the offset just past the (possibly compressed) name at
    *pos*, raising where :func:`~repro.dnswire.name.decode_name` and
    :func:`~repro.dnswire.name.normalize_name` would.  The name is not
    built: pass a list as *labels* to collect its raw labels.

    Names inside rdata are read over the whole message, as the codec
    reads them.  The joined length is summed from the label lengths;
    only a name whose sum passes the 253-character limit is built, to
    let ``normalize_name`` judge it after stripping trailing dots.
    """
    start = pos
    after = 0
    jumps = 0
    size = -1  # labels plus the dots between them
    while True:
        length = wire[pos]
        if length < 0x40:
            pos += 1
            if not length:
                break
            size += length + 1
            if labels is not None:
                labels.append(wire[pos:pos + length])
            pos += length  # past the end: the next read raises
        elif length >= 0xC0:
            target = ((length & 0x3F) << 8) | wire[pos + 1]
            if not after:
                after = pos + 2
            jumps += 1
            if jumps > 64:
                raise NameError_("compression pointer loop")
            if target >= pos:
                raise NameError_("forward compression pointer")
            pos = target
        else:
            raise NameError_("reserved label type 0x%02x" % length)
    if size > MAX_NAME_LENGTH:
        normalize_name(decode_name(wire, start)[0])
    return after or pos


def _read_name(wire, pos):
    """The name at *pos* as ``normalize_name(decode_name(wire,
    pos)[0])`` returns it, decoded in one call rather than per label."""
    labels = []
    _skip_name(wire, pos, labels)
    return b".".join(labels).decode("ascii", "replace").lower().rstrip(".")
