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
* **mmap-able layout** -- the reader maps the file and unpacks blocks
  straight out of the mapping; nothing is materialized until a block
  is asked for, so a columnar consumer (the store's accumulate fast
  path) never builds per-row dicts at all.

Segments are *derived data*: always built **from the parsed TSV**
(:func:`build_segment` goes through :func:`~repro.observatory.tsv.read_tsv`),
so the values a segment yields are bit-identical to what a text parse
would have produced -- the store can swap one for the other under the
same query surface, and the PR 5 differential harness can hold it to
byte-identical HTTP responses.  A segment whose recorded source
identity no longer matches the TSV on disk (the window was rewritten)
is *stale* and ignored; the compactor
(:meth:`~repro.observatory.aggregate.TimeAggregator.compact`) rebuilds
it and removes orphans whose TSV vanished under retention.
"""

import json
import mmap
import os
import struct

from repro.observatory.tsv import (
    TimeSeriesData,
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
    to detect staleness.  The write is atomic (tmp + ``os.replace``),
    matching the TSV write contract.  Returns *path*.
    """
    keys = [key for key, _ in data.rows]
    columns = list(data.columns)
    blocks = []  # (name, kind, payload)
    unique = list(dict.fromkeys(keys))
    if len(unique) < len(keys):
        # dict encoding pays: store each distinct key once + indexes
        table = {key: i for i, key in enumerate(unique)}
        offsets, blob = _pack_strings(unique)
        indexes = struct.pack("<%dI" % len(keys),
                              *(table[key] for key in keys))
        key_block = {"encoding": "dict", "unique": len(unique)}
        key_payloads = (offsets, blob, indexes)
    else:
        offsets, blob = _pack_strings(keys)
        key_block = {"encoding": "raw", "unique": len(keys)}
        key_payloads = (offsets, blob)
    for col in columns:
        values = [row.get(col, 0) for _, row in data.rows]
        kind, payload = _pack_column(values)
        blocks.append((col, kind, payload))
    footer = {
        "dataset": data.dataset,
        "granularity": data.granularity,
        "start_ts": data.start_ts,
        "rows": len(data.rows),
        "columns": columns,
        "stats": data.stats,
        "key": key_block,
        "blocks": {},
    }
    if source is not None:
        footer["source"] = {"mtime_ns": source[0], "size": source[1],
                            "ino": source[2]}
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<HH", VERSION, 0))
            offset = fh.tell()
            for name, payload in zip(("offsets", "blob", "indexes"),
                                     key_payloads):
                key_block[name] = [offset, len(payload)]
                fh.write(payload)
                offset += len(payload)
            for col, kind, payload in blocks:
                footer["blocks"][col] = [kind, offset, len(payload)]
                fh.write(payload)
                offset += len(payload)
            encoded = json.dumps(footer, separators=(",", ":")).encode(
                "utf-8")
            fh.write(encoded)
            fh.write(_TAIL.pack(len(encoded), TAIL_MAGIC))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def build_segment(tsv_path, path=None):
    """Build (or rebuild) the sidecar segment for one TSV window.

    The values are taken from a fresh :func:`read_tsv` of the file --
    *not* from any in-memory window state -- so what the segment
    yields is exactly what a text parse yields, down to float
    formatting round-trips.  Returns the segment path.
    """
    st = os.stat(tsv_path)
    data = read_tsv(tsv_path)
    return write_segment(
        data, segment_path(tsv_path) if path is None else path,
        source=(st.st_mtime_ns, st.st_size, st.st_ino))


def remove_segment_for(tsv_path):
    """Best-effort removal of a TSV's sidecar (retention cleanup).

    Returns True when a sidecar was removed."""
    try:
        os.remove(segment_path(tsv_path))
        return True
    except OSError:
        return False


class SegmentReader:
    """Zero-copy view over one segment file (context manager).

    Parses only the 8-byte tail plus the JSON footer on open; column
    blocks are unpacked lazily from the mmap when asked for.  Raises
    ``ValueError`` on a malformed or truncated file and ``OSError``
    when the file cannot be opened -- callers treat both as "no
    segment" and fall back to the TSV.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._map = mmap.mmap(self._fh.fileno(), 0,
                                  access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty or unmappable file
            self._fh.close()
            raise ValueError("not a segment file: %r" % (path,))
        try:
            self._parse_footer()
        except (ValueError, KeyError, TypeError, struct.error,
                json.JSONDecodeError, IndexError):
            self.close()
            raise ValueError("corrupt segment file: %r" % (path,))

    def _parse_footer(self):
        view = self._map
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

    # -- lifecycle -----------------------------------------------------

    def close(self):
        try:
            self._map.close()
        finally:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- block decoding ------------------------------------------------

    def _strings(self, offsets_span, blob_span, count):
        off = offsets_span[0]
        offsets = struct.unpack_from("<%dI" % (count + 1), self._map, off)
        blob_off = blob_span[0]
        view = self._map
        return [
            view[blob_off + offsets[i]:blob_off + offsets[i + 1]].decode(
                "utf-8")
            for i in range(count)
        ]

    def key_signature(self):
        """Cheap identity of the ordered key tuple: the encoding name
        plus the raw encoded key payload bytes, compared without
        decoding a single string.  Two windows with equal signatures
        hold the exact same ordered keys (the encoding is a pure
        function of the key tuple), which is what lets the store
        batch consecutive windows into one clustered accumulate run.
        """
        block = self._key_block
        first = block["offsets"][0]
        last = block["indexes"] if block["encoding"] == "dict" \
            else block["blob"]
        return (block["encoding"],
                bytes(self._map[first:last[0] + last[1]]))

    def keys(self):
        """The key column, decoded (dict encoding resolved)."""
        block = self._key_block
        unique = self._strings(block["offsets"], block["blob"],
                               block["unique"])
        if block["encoding"] == "raw":
            return unique
        off, length = block["indexes"]
        indexes = struct.unpack_from("<%dI" % self.n_rows, self._map, off)
        return [unique[i] for i in indexes]

    def column(self, name):
        """One feature column as a list of values (parsed types)."""
        kind, off, length = self._blocks[name]
        if kind == KIND_I64:
            return list(struct.unpack_from("<%dq" % self.n_rows,
                                           self._map, off))
        if kind == KIND_F64:
            return list(struct.unpack_from("<%dd" % self.n_rows,
                                           self._map, off))
        return json.loads(self._map[off:off + length].decode("utf-8"))

    def columns_values(self):
        """Every column's value list, in column order."""
        return [self.column(name) for name in self.columns]

    def to_data(self):
        """Materialize the full :class:`TimeSeriesData` (row dicts),
        exactly as :func:`read_tsv` of the source file would."""
        keys = self.keys()
        columns = self.columns
        if columns:
            rows = [
                (key, dict(zip(columns, values)))
                for key, values in zip(keys,
                                       zip(*self.columns_values()))
            ]
        else:
            rows = [(key, {}) for key in keys]
        return TimeSeriesData(self.dataset, self.granularity,
                              self.start_ts, columns=columns,
                              rows=rows, stats=dict(self.stats))


def open_if_fresh(tsv_path, identity):
    """Open the sidecar for *tsv_path* iff it matches *identity*.

    *identity* is the live TSV's ``(mtime_ns, size, ino)``.  Returns a
    :class:`SegmentReader` (caller closes it) or ``None`` when the
    sidecar is absent, unreadable, or stale -- every case where the
    caller must fall back to parsing the text.
    """
    try:
        reader = SegmentReader(segment_path(tsv_path))
    except (OSError, ValueError):
        return None
    if reader.source != tuple(identity):
        reader.close()
        return None
    return reader


def read_segment(path):
    """Read a whole segment into a :class:`TimeSeriesData`."""
    with SegmentReader(path) as reader:
        return reader.to_data()


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
