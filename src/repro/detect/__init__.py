"""Streaming abuse detection on the sketch layer.

See :mod:`repro.detect.base` for the detector protocol and the
accumulator/scorer split that keeps sharded runs bit-identical to a
single process.  The package exposes a small registry so CLI flags
(``--detectors``) and the daemon can build detectors by name::

    detectors = build_detectors(True)          # all defaults
    detectors = build_detectors(["ddos"])      # a subset

Detector output rides the ``_detector`` meta-dataset;
``DETECTOR_RULES`` in :mod:`repro.observatory.alerts` turn its summary
rows into ``/platform/health`` verdicts.
"""

from repro.detect.base import (DEFAULT_DETECTORS, DETECTOR_DATASET,
                               Detector, DetectorWindowState,
                               qname_info_millibits)
from repro.detect.ddos import DdosDetector
from repro.detect.exfil import ExfilDetector
from repro.detect.noh import NohDetector

#: name -> class registry; iteration order is the canonical emit order
REGISTRY = {
    "exfil": ExfilDetector,
    "ddos": DdosDetector,
    "noh": NohDetector,
}


def build_detectors(spec, psl=None):
    """Build a :class:`DetectorSet` from *spec*.

    *spec* may be True (all registered detectors), an iterable of
    registry names and/or ready :class:`Detector` instances, or a
    falsy value (returns None).  Names are instantiated with their
    default thresholds; pass instances to customize.
    """
    if not spec:
        return None
    if spec is True:
        spec = DEFAULT_DETECTORS
    detectors = []
    for item in spec:
        if isinstance(item, Detector):
            detectors.append(item)
            continue
        try:
            cls = REGISTRY[item]
        except KeyError:
            raise ValueError("unknown detector %r (have: %s)"
                             % (item, ", ".join(sorted(REGISTRY))))
        detectors.append(cls(psl=psl))
    return DetectorSet(detectors)


class DetectorSet:
    """A fixed-order group of detectors sharing the window lifecycle."""

    def __init__(self, detectors):
        self.detectors = list(detectors)
        by_name = {}
        for det in self.detectors:
            if det.name in by_name:
                raise ValueError("duplicate detector %r" % det.name)
            by_name[det.name] = det
        self._by_name = by_name

    def observe_batch(self, txns):
        """Feed transactions to every detector."""
        for det in self.detectors:
            det.observe_batch(txns)

    def take_states(self, start_ts):
        """Window states for the shard transport, one per detector."""
        return [DetectorWindowState(det.name, start_ts, det.take_state())
                for det in self.detectors]

    def absorb(self, state):
        det = self._by_name.get(state.name)
        if det is None:
            raise ValueError("state for unknown detector %r" % state.name)
        det.absorb(state.payload)

    def cut(self, start_ts, end_ts):
        """Score the window across all detectors; concatenated rows."""
        rows = []
        for det in self.detectors:
            rows.extend(det.cut(start_ts, end_ts))
        return rows


__all__ = [
    "DEFAULT_DETECTORS",
    "DETECTOR_DATASET",
    "Detector",
    "DetectorSet",
    "DetectorWindowState",
    "DdosDetector",
    "ExfilDetector",
    "NohDetector",
    "REGISTRY",
    "build_detectors",
    "qname_info_millibits",
]
