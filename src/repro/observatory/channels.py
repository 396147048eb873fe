"""Window channels: what one 60-second window is made of (Section 2.4).

"Every 60 seconds, we dump all data to disk and reset all statistics,
but without affecting the SS cache. ... Because the popularity of
objects may change at arbitrary points in time, we skip the data from
objects recently inserted in the SS cache.  That is, if we included an
object in the data dump, this means it survived the SS cache eviction
for 60 seconds."

Every per-window producer -- one dataset's Top-k tracker, the detector
set, the ``_encrypted`` aggregator -- is a *channel* with one shape:

* ``observe_batch(txns, hashes)`` -- fold a chunk of the stream in;
* ``take_state(start, end)`` -- detach this window's mergeable state
  (anything picklable) and reset for the next window;
* ``absorb(state)`` -- fold one shard's state into the merge target;
* ``cut(start, end, seen)`` -- turn everything absorbed into the
  window (a :class:`~repro.observatory.tsv.TimeSeriesData`) and reset.

A window is always flushed the same way: ``take_state`` on every
channel, ``absorb`` per shard in shard-index order, ``cut``.  A single
process is one shard merged in-process
(:meth:`~repro.observatory.window.WindowManager._flush`); a sharded run
ships the :class:`WindowState` between the first step and the second
(:func:`merge_window` is the coordinator's half).
"""

from collections import namedtuple

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


#: One shard's whole window, what crosses the shard link per cut: the
#: window start, the transactions the shard saw in it (blinded
#: included), and one ``take_state`` result per channel in channel order.
WindowState = namedtuple("WindowState", "start_ts seen states")


class MetaChannel:
    """A rows producer (``observe_batch`` / ``take_state`` / ``absorb``
    / ``cut -> rows``) as a window channel writing the meta-dataset
    *dataset*.  A channel with ``blinded`` set is fed the blinded
    (ciphertext-only) transactions, and only those."""

    blinded = False

    def __init__(self, dataset, producer):
        self.dataset = dataset
        self.producer = producer

    def observe_batch(self, txns, hashes):
        self.producer.observe_batch(txns)

    def take_state(self, start, end):
        return self.producer.take_state(start)

    def absorb(self, state):
        self.producer.absorb(state)

    def cut(self, start, end, seen):
        return meta_dump(self.dataset, start,
                         self.producer.cut(start, end), seen)


class _DetectorChannel(MetaChannel):
    """:class:`~repro.detect.DetectorSet` ships one state per member
    detector."""

    def take_state(self, start, end):
        return self.producer.take_states(start)

    def absorb(self, states):
        for state in states:
            self.producer.absorb(state)


class _EncryptedChannel(MetaChannel):
    """``seen`` counts the blinded transactions only, computed *from
    the merged accumulators*, so sharded and single-process trailers
    agree."""

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
        channels.append(_DetectorChannel(DETECTOR_DATASET, detectors))
    if encrypted is not None:
        channels.append(_EncryptedChannel(ENCRYPTED_DATASET, encrypted))
    return channels


def merge_window(channels, start, end, shard_windows):
    """Absorb *shard_windows* (:class:`WindowState` objects of the
    window starting at *start*) in the order given, then cut every
    channel; returns the cut windows in channel order.

    The order matters: a few sketch merges break ties by insertion
    order (``TopValues`` recycling), so callers pass shards in
    shard-index order, never reply-arrival order.
    """
    seen = 0
    for window in shard_windows:
        seen += window.seen
        for channel, state in zip(channels, window.states):
            channel.absorb(state)
    return [channel.cut(start, end, seen) for channel in channels]
