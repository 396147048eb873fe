"""Window channels: what one 60-second window is made of (Section 2.4).

"Every 60 seconds, we dump all data to disk and reset all statistics,
but without affecting the SS cache. ... Because the popularity of
objects may change at arbitrary points in time, we skip the data from
objects recently inserted in the SS cache.  That is, if we included an
object in the data dump, this means it survived the SS cache eviction
for 60 seconds."

Every per-window producer -- one dataset's Top-k tracker, the detector
set, the ``_encrypted`` aggregator -- is a *channel* with one shape:

* ``observe_batch(txns, hashes, start)`` -- fold a chunk of the
  stream in (*start*: the open window's start);
* ``cut(start, end, seen)`` -- turn the window into a
  :class:`~repro.observatory.tsv.TimeSeriesData` and reset.

Channels share no state, so a channel is also the unit of sharding:
:mod:`repro.observatory.sharded` gives each worker whole channels and
every transaction, and a window is always cut by the one process that
holds its channel's whole state
(:meth:`~repro.observatory.window.WindowManager._flush`).
"""

from repro.detect import DETECTOR_DATASET
from repro.observatory.encrypted import ENCRYPTED_DATASET
from repro.observatory.telemetry import union_columns
from repro.observatory.tracker import TrackerChannel
from repro.observatory.tsv import TimeSeriesData


def meta_dump(dataset, start, rows, seen):
    """A meta-dataset's rows as a window carrying its own column set,
    so it rides the exact TSV/aggregation path paper data does."""
    return TimeSeriesData(dataset, "minutely", start,
                          columns=union_columns(rows), rows=rows,
                          stats={"seen": seen, "kept": len(rows)})


class MetaChannel:
    """A rows producer (``observe_batch`` / ``cut -> rows``) as a window
    channel writing the meta-dataset *dataset*.  A channel with
    ``blinded`` set is fed the blinded (ciphertext-only) transactions,
    and only those."""

    blinded = False

    def __init__(self, dataset, producer):
        self.dataset = dataset
        self.producer = producer

    def observe_batch(self, txns, hashes, start):
        self.producer.observe_batch(txns)

    def cut(self, start, end, seen):
        return meta_dump(self.dataset, start,
                         self.producer.cut(start, end), seen)


class _EncryptedChannel(MetaChannel):
    """``seen`` counts the blinded transactions only."""

    blinded = True

    def cut(self, start, end, seen):
        return super().cut(start, end, self.producer.seen())


def build_channels(trackers, detectors, encrypted, skip_recent_inserts,
                   telemetry):
    """The channel list of one pipeline, in emit order.  A new
    meta-dataset is one producer class and one line here."""
    channels = [TrackerChannel(tracker, skip_recent_inserts, telemetry)
                for tracker in trackers]
    if detectors is not None:
        channels.append(MetaChannel(DETECTOR_DATASET, detectors))
    if encrypted is not None:
        channels.append(_EncryptedChannel(ENCRYPTED_DATASET, encrypted))
    return channels
