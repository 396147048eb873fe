"""Streaming abuse detection on the sketch layer.

See :mod:`repro.detect.base` for the detector protocol and the
accumulator/scorer split.  The package exposes a small registry so CLI flags
(``--detectors``) and the daemon can build detectors by name::

    detectors = build_detectors(True)          # all defaults
    detectors = build_detectors(["ddos"])      # a subset

Detector output rides the ``_detector`` meta-dataset;
``DETECTOR_RULES`` in :mod:`repro.observatory.alerts` turn its summary
rows into ``/platform/health`` verdicts.
"""

from repro.detect.base import (DEFAULT_DETECTORS, DETECTOR_DATASET,
                               Detector, chunk_facts, qname_info_millibits)
from repro.detect.ddos import DdosDetector
from repro.detect.exfil import ExfilDetector
from repro.detect.noh import NohDetector

#: name -> class registry; iteration order is the canonical emit order
REGISTRY = {
    "exfil": ExfilDetector,
    "ddos": DdosDetector,
    "noh": NohDetector,
}


def build_detectors(spec):
    """Build a :class:`DetectorSet` from *spec*.

    *spec* may be True (all registered detectors), an iterable of
    registry names and/or ready :class:`Detector` instances, or a
    falsy value (returns None).
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
        detectors.append(cls())
    return DetectorSet(detectors)


class DetectorSet:
    """A fixed-order group of detectors sharing the window lifecycle."""

    def __init__(self, detectors):
        self.detectors = list(detectors)
        names = set()
        for det in self.detectors:
            if det.name in names:
                raise ValueError("duplicate detector %r" % det.name)
            names.add(det.name)

    def observe_batch(self, txns):
        """Derive the chunk's name facts once; feed them to every
        detector."""
        facts = chunk_facts(txns)
        for det in self.detectors:
            det.observe_facts(facts)

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
    "DdosDetector",
    "ExfilDetector",
    "NohDetector",
    "REGISTRY",
    "build_detectors",
    "qname_info_millibits",
]
