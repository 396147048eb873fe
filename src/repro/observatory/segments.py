"""Binary columnar segments behind the TSV facade (storage engine v2).

TSV is the Observatory's *interchange* format -- human-readable,
diffable, the thing ``replay`` writes and external tooling reads
(§2.4).  It is also a terrible thing to answer queries from: every
cold read re-parses text, and the expensive cells are the float
gauges, where :func:`~repro.observatory.tsv._parse` pays a raised
``ValueError`` per value.  This module adds the query-side twin: a
compact binary **segment** sitting next to each TSV window
(``srvip.minutely.0000000000.tsv`` -> ``....tsv.seg``) holding the
same parsed values as typed column blocks:

* **column blocks** -- each feature column is one contiguous block,
  struct-packed ``<q`` (all-int) or ``<d`` (all-float), with a JSON
  block as the fallback for mixed/string/bignum columns, so a cold
  read is a handful of C-speed bulk unpacks instead of a per-cell
  ``int()``/``float()`` try/except ladder;
* **dict-encoded keys** -- the key column is a string table (offsets
  + UTF-8 blob); when keys repeat, rows carry ``<I`` indexes into the
  table instead of repeated strings (optional: all-unique windows
  skip the index array);
* **footer index** -- one JSON footer at the tail (length + magic in
  the last 8 bytes) naming every block's offset/length/kind, the
  column order, row count, stats, and the **source TSV identity**
  (mtime + size + inode) the segment was built from;
* **block-addressable layout** -- the footer says where every block
  is, so a reader unpacks the blocks it is asked for and no others.

A segment holds the cells of a
:class:`~repro.observatory.tsv.TimeSeriesData`, and those are by
construction the values a parse of its TSV returns, so the store can
swap one read for the other under the same query surface.  The writers
(:class:`~repro.observatory.pipeline.WindowEmitter`, the aggregator's
roll-up step) pack the sidecar from the window they just wrote
(:func:`write_sidecar`); :func:`build_segment` is the from-disk entry
the compactor needs for windows that have no sidecar yet.  A segment
whose recorded source identity no longer matches the TSV on disk (the
window was rewritten) is *stale* and ignored; the compactor
(:meth:`~repro.observatory.aggregate.TimeAggregator.compact`) rebuilds
it and removes orphans whose TSV vanished under retention.
"""

import json
import os
import struct

from repro.observatory.tsv import (
    TimeSeriesData,
    atomic_write,
    parse_filename,
    read_tsv,
)

#: sidecar suffix: ``<window>.tsv`` -> ``<window>.tsv.seg``.  The
#: suffix keeps the TSV stem intact (``parse_filename`` ignores the
#: sidecar because the extension is not ``.tsv``), so segments are
#: invisible to ``list_series`` / the store scan by construction.
SEGMENT_SUFFIX = ".seg"

#: leading magic + format version (bump on incompatible layout change)
MAGIC = b"OSEG"
VERSION = 1

#: trailing magic, after the u32 footer length
TAIL_MAGIC = b"GSEO"

#: column block kinds
KIND_I64 = 0   #: all-int column, struct ``<q`` packed
KIND_F64 = 1   #: all-float column, struct ``<d`` packed
KIND_JSON = 2  #: mixed / string / out-of-range column, JSON array

_TAIL = struct.Struct("<I4s")
_I64_MAX = 2 ** 63


def segment_path(tsv_path):
    """Sidecar segment path for a TSV window file."""
    return tsv_path + SEGMENT_SUFFIX


def _pack_column(values):
    """(kind, payload bytes) for one column's value list."""
    kind = KIND_I64
    for value in values:
        if type(value) is int:
            if not -_I64_MAX <= value < _I64_MAX:
                kind = KIND_JSON
                break
        elif type(value) is float:
            if kind == KIND_I64:
                kind = KIND_F64
        else:  # str (or anything _parse may grow): JSON fallback
            kind = KIND_JSON
            break
    if kind == KIND_F64 and any(type(v) is int for v in values):
        # mixed int/float must not collapse ints into floats -- the
        # TSV parse distinguishes ``3`` from ``3.0`` and so must we
        kind = KIND_JSON
    if kind == KIND_I64:
        return kind, struct.pack("<%dq" % len(values), *values)
    if kind == KIND_F64:
        return kind, struct.pack("<%dd" % len(values), *values)
    return KIND_JSON, json.dumps(values, separators=(",", ":")).encode(
        "utf-8")


def _pack_strings(strings):
    """Offsets (``<I``, n+1 entries) + concatenated UTF-8 blob."""
    blobs = [s.encode("utf-8") for s in strings]
    offsets = [0]
    for blob in blobs:
        offsets.append(offsets[-1] + len(blob))
    return (struct.pack("<%dI" % len(offsets), *offsets), b"".join(blobs))


def write_segment(data, path, source=None):
    """Write *data* (a :class:`TimeSeriesData`) as a segment at *path*.

    *source* is the ``(mtime_ns, size, ino)`` identity of the TSV file
    the values came from; a reader compares it against the live file
    to detect staleness.  The write is atomic, matching the TSV write
    contract.  Returns *path*.
    """
    keys = data.keys
    unique = list(dict.fromkeys(keys))
    key_block = {"encoding": "raw", "unique": len(unique)}
    payloads = list(zip(("offsets", "blob"), _pack_strings(unique)))
    if len(unique) < len(keys):
        # dict encoding pays: store each distinct key once + indexes
        table = {key: i for i, key in enumerate(unique)}
        key_block["encoding"] = "dict"
        payloads.append(("indexes", struct.pack(
            "<%dI" % len(keys), *(table[key] for key in keys))))
    footer = {
        "dataset": data.dataset,
        "granularity": data.granularity,
        "start_ts": int(data.start_ts),  # as the file name has it
        "rows": len(keys),
        "columns": list(data.columns),
        "stats": data.stats,
        "key": key_block,
        "blocks": {},
    }
    if source is not None:
        footer["source"] = dict(zip(("mtime_ns", "size", "ino"), source))
    parts = [MAGIC + struct.pack("<HH", VERSION, 0)]
    offset = len(parts[0])
    for name, payload in payloads:
        key_block[name] = [offset, len(payload)]
        parts.append(payload)
        offset += len(payload)
    for col, cells in zip(data.columns, data.values):
        kind, payload = _pack_column(cells)
        footer["blocks"][col] = [kind, offset, len(payload)]
        parts.append(payload)
        offset += len(payload)
    encoded = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    parts += [encoded, _TAIL.pack(len(encoded), TAIL_MAGIC)]
    return atomic_write(path, b"".join(parts))


def _identity(tsv_path):
    st = os.stat(tsv_path)
    return st.st_mtime_ns, st.st_size, st.st_ino


def write_sidecar(data, tsv_path):
    """Write the sidecar of *tsv_path* from *data*, the window
    :func:`~repro.observatory.tsv.write_tsv` just wrote there."""
    return write_segment(data, segment_path(tsv_path),
                         source=_identity(tsv_path))


def build_segment(tsv_path):
    """Build (or rebuild) the sidecar of a TSV window from the file
    alone -- the compactor's entry, for windows whose writer left no
    sidecar.  The identity is taken before the parse, so a rewrite
    racing the build leaves a stale segment, never a wrong one.
    Returns the segment path."""
    source = _identity(tsv_path)
    return write_segment(read_tsv(tsv_path), segment_path(tsv_path),
                         source=source)


def remove_segment_for(tsv_path):
    """Best-effort removal of a TSV's sidecar (retention cleanup).

    Returns True when a sidecar was removed."""
    try:
        os.remove(segment_path(tsv_path))
        return True
    except OSError:
        return False


class SegmentReader:
    """One segment file, read whole (one ``read`` beats mapping a
    file this size) and decoded block by block.

    Parses only the 8-byte tail plus the JSON footer on open and
    checks the footer's block spans against the file; column blocks
    are unpacked when asked for.  Raises ``ValueError`` on a
    malformed, truncated or damaged file and ``OSError`` when the file
    cannot be opened -- callers treat both as "no segment" and fall
    back to the TSV.
    """

    #: (key_signature, decoded keys) of the last key block decoded
    _last_keys = (None, None)

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self._raw = fh.read()
        try:
            self._parse_footer()
        except (ValueError, KeyError, TypeError, struct.error, IndexError):
            raise ValueError("corrupt segment file: %r" % (path,))

    def _parse_footer(self):
        view = self._raw
        if len(view) < 8 + _TAIL.size or view[:4] != MAGIC:
            raise ValueError("bad magic")
        version, = struct.unpack_from("<H", view, 4)
        if version != VERSION:
            raise ValueError("unsupported segment version %d" % version)
        footer_len, tail = _TAIL.unpack_from(view, len(view) - _TAIL.size)
        if tail != TAIL_MAGIC:
            raise ValueError("bad tail magic")
        start = len(view) - _TAIL.size - footer_len
        if start < 8:
            raise ValueError("footer overruns header")
        footer = json.loads(view[start:start + footer_len].decode("utf-8"))
        self.dataset = footer["dataset"]
        self.granularity = footer["granularity"]
        self.start_ts = footer["start_ts"]
        self.n_rows = int(footer["rows"])
        self.columns = list(footer["columns"])
        self.stats = footer["stats"]
        self._key_block = footer["key"]
        self._blocks = footer["blocks"]
        src = footer.get("source")
        #: (mtime_ns, size, ino) of the TSV this was built from, or None
        self.source = None if src is None else (
            src["mtime_ns"], src["size"], src["ino"])
        self._check_tiling(start)

    def _check_tiling(self, footer_start):
        """The blocks, in footer order, must tile ``[8, footer_start)``
        exactly, the fixed-width ones at their row count's length: a
        file that lost or gained bytes in the block area would
        otherwise decode, shifted, into plausible wrong rows."""
        key = self._key_block
        rows = self.n_rows
        spans = [key["offsets"], key["blob"]]
        if key["encoding"] == "dict":
            spans.append(key["indexes"])
            sized = key["indexes"][1] == 4 * rows
        else:
            sized = key["encoding"] == "raw" and key["unique"] == rows
        if not sized or key["offsets"][1] != 4 * (key["unique"] + 1):
            raise ValueError("bad key block")
        if list(self._blocks) != self.columns:
            raise ValueError("column blocks do not match the header")
        cursor = 8
        for off, length in spans:
            if off != cursor or length < 0:
                raise ValueError("blocks do not tile the file")
            cursor += length
        for kind, off, length in self._blocks.values():
            if off != cursor or length < 0 or \
                    (kind != KIND_JSON and length != 8 * rows):
                raise ValueError("blocks do not tile the file")
            cursor += length
        if cursor != footer_start:
            raise ValueError("blocks do not tile the file")

    # -- block decoding ------------------------------------------------

    def key_signature(self):
        """Cheap identity of the ordered key tuple: the encoding name
        plus the raw encoded key payload bytes, compared without
        decoding a single string.  Two windows with equal signatures
        hold the exact same ordered keys (the encoding is a pure
        function of the key tuple)."""
        block = self._key_block
        first = block["offsets"][0]
        last = block["indexes"] if block["encoding"] == "dict" \
            else block["blob"]
        return block["encoding"], self._raw[first:last[0] + last[1]]

    def keys(self):
        """The key column, decoded (dict encoding resolved).  A steady
        top-k population writes the same key block window after
        window, so the last decode is kept by signature and handed out
        again: such windows share one key list (read-only, like every
        cached window)."""
        signature = self.key_signature()
        last_signature, keys = SegmentReader._last_keys
        if signature == last_signature:
            return keys
        block = self._key_block
        view = self._raw
        count = block["unique"]
        offsets = struct.unpack_from("<%dI" % (count + 1), view,
                                     block["offsets"][0])
        start, length = block["blob"]
        blob = view[start:start + length]
        keys = [blob[a:b].decode("utf-8")
                for a, b in zip(offsets, offsets[1:])]
        if block["encoding"] == "dict":
            indexes = struct.unpack_from("<%dI" % self.n_rows, view,
                                         block["indexes"][0])
            keys = [keys[i] for i in indexes]
        SegmentReader._last_keys = (signature, keys)
        return keys

    def column(self, name):
        """One feature column as a list of values (parsed types)."""
        kind, off, length = self._blocks[name]
        if kind == KIND_I64:
            return list(struct.unpack_from("<%dq" % self.n_rows,
                                           self._raw, off))
        if kind == KIND_F64:
            return list(struct.unpack_from("<%dd" % self.n_rows,
                                           self._raw, off))
        cells = json.loads(self._raw[off:off + length].decode("utf-8"))
        if type(cells) is not list or len(cells) != self.n_rows:
            raise ValueError("JSON block is not a column")
        return cells

    def to_data(self):
        """The whole window, exactly as
        :func:`~repro.observatory.tsv.read_tsv` of the source file
        returns it.  ``ValueError`` when a block does not decode."""
        try:
            keys = self.keys()
            values = [self.column(name) for name in self.columns]
        except (ValueError, struct.error, IndexError):
            raise ValueError("corrupt segment file: %r" % (self.path,))
        return TimeSeriesData.from_columns(
            self.dataset, self.granularity, self.start_ts, self.columns,
            keys, values, dict(self.stats))


def open_if_fresh(tsv_path, identity):
    """Open the sidecar for *tsv_path* iff it matches *identity*.

    *identity* is the live TSV's ``(mtime_ns, size, ino)``.  Returns a
    :class:`SegmentReader` or ``None`` when the sidecar is absent,
    unreadable, or stale -- every case where the caller must fall back
    to parsing the text.
    """
    try:
        reader = SegmentReader(segment_path(tsv_path))
    except (OSError, ValueError):
        return None
    return reader if reader.source == tuple(identity) else None


def read_segment(path):
    """Read a whole segment into a :class:`TimeSeriesData`."""
    return SegmentReader(path).to_data()


def scan_segments(directory):
    """``{tsv_basename: segment_basename}`` for every sidecar found."""
    out = {}
    try:
        names = os.listdir(directory)
    except OSError:
        return out
    for name in names:
        if not name.endswith(SEGMENT_SUFFIX):
            continue
        stem = name[:-len(SEGMENT_SUFFIX)]
        try:
            parse_filename(stem)
        except ValueError:
            continue
        out[stem] = name
    return out
