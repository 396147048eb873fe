"""Detection quality: precision / recall / time-to-detection.

Scores the ``_detector`` meta-dataset (:mod:`repro.detect`) against
the simulator's ground-truth attack labels
(``WorkloadMix.attack_labels()``, exported by ``simulate --labels``).
Rendered by ``repro report --detect`` and asserted by the detection
quality gates in the test suite.

Scoring model
-------------
Each attack label names a victim eSLD and a kind (``tunnel`` /
``watertorture``).  A *detection* is any per-key ``_detector`` row
(``<detector>.<esld>``) with ``flagged == 1`` in any window.

* **Precision** is measured against the full malicious eSLD set: a
  tunnel victim flagged by the ``ddos`` detector is still a true
  positive -- the domain *is* under attack, the operator is right to
  look at it.  Only a flag on a never-attacked eSLD is a false
  positive.
* **Recall** is per-detector against that detector's own target kinds
  (:data:`DETECTOR_KINDS`): ``exfil`` and ``noh`` must find tunnel
  victims, ``ddos`` must find water-torture victims.
* **Time-to-detection** is the first flagged window's ``start_ts``
  minus the attack's labeled start, per detected target.
"""

import json

#: attack kinds each detector is responsible for recalling
DETECTOR_KINDS = {
    "exfil": ("tunnel",),
    "noh": ("tunnel",),
    "ddos": ("watertorture",),
}

try:
    from repro.detect import DETECTOR_DATASET
except ImportError:  # pragma: no cover - detect is a sibling package
    DETECTOR_DATASET = "_detector"


def load_labels(path):
    """Read a ground-truth label file written by ``simulate --labels``
    (a JSON list of ``{kind, esld, start, end, qps}`` dicts)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("attacks", [])
    return list(payload)


class DetectorScore:
    """Quality numbers for one detector against the label set."""

    __slots__ = ("name", "targets", "detections", "true_positives",
                 "false_positives", "missed", "time_to_detection")

    def __init__(self, name, targets, detections, true_positives,
                 false_positives, missed, time_to_detection):
        self.name = name
        #: eSLDs this detector should have found (its own kinds)
        self.targets = targets
        #: every eSLD the detector flagged, sorted
        self.detections = detections
        #: flagged eSLDs that were attacked (any kind)
        self.true_positives = true_positives
        #: flagged eSLDs never attacked
        self.false_positives = false_positives
        #: target eSLDs never flagged
        self.missed = missed
        #: {esld: seconds from attack start to first flagged window}
        self.time_to_detection = time_to_detection

    @property
    def precision(self):
        if not self.detections:
            return None
        return len(self.true_positives) / len(self.detections)

    @property
    def recall(self):
        if not self.targets:
            return None
        return (len(self.targets) - len(self.missed)) / len(self.targets)

    @property
    def mean_time_to_detection(self):
        if not self.time_to_detection:
            return None
        values = list(self.time_to_detection.values())
        return sum(values) / len(values)

    def __repr__(self):
        fmt = lambda v: "-" if v is None else "%.3f" % v
        return "DetectorScore(%s, p=%s, r=%s)" % (
            self.name, fmt(self.precision), fmt(self.recall))


def first_flags(series):
    """``{detector: {esld: first flagged window start_ts}}`` from a
    time-ordered ``_detector`` series."""
    flags = {}
    for data in sorted(series, key=lambda d: d.start_ts):
        for key, row in data.rows:
            detector, sep, esld = key.partition(".")
            if not sep or not row.get("flagged"):
                continue  # summary row, or nothing flagged
            flags.setdefault(detector, {}).setdefault(esld, data.start_ts)
    return flags


def evaluate_detection(series, labels):
    """Score a ``_detector`` series against ground-truth *labels*.

    Parameters
    ----------
    series:
        Iterable of ``_detector`` windows (``TimeSeriesData``).
    labels:
        Ground-truth dicts from :func:`load_labels`.

    Scores every detector appearing in the series plus every key of
    :data:`DETECTOR_KINDS` with a labeled target (so a detector that
    never emitted still scores recall = 0 rather than silently
    vanishing).  Returns ``{detector: DetectorScore}``.
    """
    malicious = {label["esld"] for label in labels}
    starts = {}
    for label in labels:
        esld = label["esld"]
        starts[esld] = min(starts.get(esld, label["start"]),
                           label["start"])
    flags = first_flags(series)
    names = set(flags)
    for name, kinds in DETECTOR_KINDS.items():
        if any(label["kind"] in kinds for label in labels):
            names.add(name)
    scores = {}
    for name in sorted(names):
        kinds = DETECTOR_KINDS.get(name, ())
        targets = {label["esld"] for label in labels
                   if label["kind"] in kinds}
        flagged = flags.get(name, {})
        detections = sorted(flagged)
        true_positives = {e for e in flagged if e in malicious}
        false_positives = {e for e in flagged if e not in malicious}
        missed = {e for e in targets if e not in flagged}
        ttd = {esld: flagged[esld] - starts[esld]
               for esld in sorted(targets - missed)}
        scores[name] = DetectorScore(
            name, targets, detections, true_positives, false_positives,
            missed, ttd)
    return scores


def detect_quality(dumps, labels):
    """Evaluate detection quality from windows.

    *dumps* is an iterable of windows -- straight from a pipeline, or
    ``store.read("_detector")`` (the ``report --detect`` path); other
    datasets are ignored.  Returns ``(series, scores)``.
    """
    series = sorted((dump for dump in dumps
                     if dump.dataset == DETECTOR_DATASET),
                    key=lambda d: d.start_ts)
    return series, evaluate_detection(series, labels)


#: the acceptance gate of ``report --detect``
PRECISION_FLOOR, RECALL_FLOOR = 0.9, 0.8


def meets_floors(scores):
    """True when every detector with targets meets both floors."""
    for score in scores.values():
        if score.precision is not None \
                and score.precision < PRECISION_FLOOR:
            return False
        if score.recall is not None and score.recall < RECALL_FLOOR:
            return False
        if score.recall is None and score.targets:
            return False  # unreachable, but fail closed
    return True


def render_detect_quality(series, scores):
    """The full ``report --detect`` text block."""
    from repro.analysis.tables import format_table

    out = []
    ok = meets_floors(scores)
    out.append("Detection quality: %s  (floors: precision >= %g, "
               "recall >= %g)" % ("PASS" if ok else "FAIL",
                                  PRECISION_FLOOR, RECALL_FLOOR))
    if not series:
        out.append("")
        out.append("No _detector series found -- run replay/run with "
                   "--detectors to record detector output.")
        return "\n".join(out)
    out.append("Windows analyzed: %d  (t=%s .. %s)"
               % (len(series), series[0].start_ts, series[-1].start_ts))
    out.append("")
    rows = []
    fmt = lambda v: "-" if v is None else "%.3f" % v
    for name in sorted(scores):
        score = scores[name]
        rows.append([
            name,
            len(score.targets),
            len(score.detections),
            len(score.true_positives),
            len(score.false_positives),
            len(score.missed),
            fmt(score.precision),
            fmt(score.recall),
            "-" if score.mean_time_to_detection is None
            else "%.0fs" % score.mean_time_to_detection,
        ])
    out.append(format_table(
        ["detector", "targets", "flagged", "tp", "fp", "missed",
         "precision", "recall", "ttd"],
        rows, title="Per-detector quality"))
    details = []
    for name in sorted(scores):
        score = scores[name]
        for esld in score.detections:
            kind = "attacked" if esld in score.true_positives \
                else "FALSE POSITIVE"
            ttd = score.time_to_detection.get(esld)
            details.append([name, esld, kind,
                            "-" if ttd is None else "%.0fs" % ttd])
        for esld in sorted(score.missed):
            details.append([name, esld, "MISSED", "-"])
    if details:
        out.append("")
        out.append(format_table(["detector", "esld", "verdict", "ttd"],
                                details, title="Detections"))
    return "\n".join(out)
