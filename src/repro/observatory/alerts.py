"""Threshold alerting over the ``_platform`` telemetry series.

The telemetry subsystem (DESIGN.md §9) turned platform health into an
ordinary time series: one ``_platform`` row per component per window
(``tracker.srvip``, ``window``, ``coordinator``, ``shard0.link``,
...).  This module closes the loop: a small rule engine evaluates
configurable thresholds against those rows, so a sagging capture
ratio, a saturating Bloom gate, a dead shard worker or a flush-latency
spike becomes a machine-readable *verdict* -- served by
``/platform/health`` (:mod:`repro.server`) and rendered by
``repro report --platform``.

Rule syntax (one rule per line, ``#`` comments allowed)::

    <name>: <component>.<column> <op> <threshold> [for <n> windows]

* ``component`` matches ``_platform`` row keys; a trailing ``*``
  matches a prefix (``tracker.*`` covers every dataset's tracker,
  ``*`` covers every component).
* ``op`` is one of ``<  <=  >  >=`` -- the rule states the *healthy*
  condition (``capture_ratio >= 0.5``); a window where it does not
  hold is a failure.
* ``for <n> windows`` requires the condition to fail in each of the
  *n* most recent windows where the component reported the column
  before the verdict trips (default 1) -- the standard debounce
  against one-window blips.

A column missing from a matched component's row is *not* a failure
(gate columns only appear once the Bloom gate engages); a rule whose
component matches nothing yields a ``no_data`` verdict so a silent
telemetry outage is visible rather than vacuously healthy.
"""

OPS = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
}

#: verdict statuses
OK, FAIL, NO_DATA = "ok", "fail", "no_data"


class Rule:
    """One healthy-condition threshold on a ``_platform`` column."""

    __slots__ = ("name", "component", "column", "op", "threshold",
                 "windows")

    def __init__(self, name, component, column, op, threshold,
                 windows=1):
        if op not in OPS:
            raise ValueError("unknown operator %r" % (op,))
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.name = name
        self.component = component
        self.column = column
        self.op = op
        self.threshold = float(threshold)
        self.windows = int(windows)

    def matches(self, component):
        if self.component.endswith("*"):
            return component.startswith(self.component[:-1])
        return component == self.component

    def healthy(self, value):
        return OPS[self.op](value, self.threshold)

    def spec(self):
        """Canonical one-line form (inverse of :func:`parse_rule`)."""
        text = "%s: %s.%s %s %g" % (self.name, self.component,
                                    self.column, self.op, self.threshold)
        if self.windows > 1:
            text += " for %d windows" % self.windows
        return text

    def __repr__(self):
        return "Rule(%s)" % self.spec()


def parse_rule(text):
    """Parse one rule line; see the module docstring for the syntax."""
    line = text.strip()
    name, sep, rest = line.partition(":")
    if not sep or not name.strip():
        raise ValueError("rule %r: missing '<name>:' prefix" % (text,))
    fields = rest.split()
    windows = 1
    if len(fields) >= 3 and fields[-1] == "windows" and fields[-3] == "for":
        try:
            windows = int(fields[-2])
        except ValueError:
            raise ValueError("rule %r: bad window count %r"
                             % (text, fields[-2]))
        fields = fields[:-3]
    if len(fields) != 3:
        raise ValueError(
            "rule %r: expected '<component>.<column> <op> <threshold>'"
            % (text,))
    target, op, threshold_text = fields
    component, sep, column = target.rpartition(".")
    if not sep:
        raise ValueError("rule %r: target must be <component>.<column>"
                         % (text,))
    # "tracker.*.capture_ratio" → component "tracker.*", column last part
    if op not in OPS:
        raise ValueError("rule %r: unknown operator %r" % (text, op))
    try:
        threshold = float(threshold_text)
    except ValueError:
        raise ValueError("rule %r: bad threshold %r"
                         % (text, threshold_text))
    return Rule(name.strip(), component, column, op, threshold, windows)


def parse_rules(text):
    """Parse a rule file / multi-line string, skipping blanks and
    ``#`` comments."""
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(parse_rule(line))
    return rules


#: The ROADMAP's alert-thresholds item, as shipped defaults: capture
#: floor (§3.1 coverage collapsing is the primary quality signal),
#: Bloom-gate FPR ceiling (a saturated gate silently drops new heavy
#: hitters), worker liveness (a dead shard bleeds its partition), and
#: a flush-latency p95 ceiling (flushes stealing the ingest budget).
DEFAULT_RULES = tuple(parse_rules("""
capture-floor:   tracker.*.capture_ratio >= 0.5 for 2 windows
gate-fpr:        tracker.*.gate_fpr <= 0.05
worker-liveness: shard*.alive >= 1
flush-latency:   window.flush_ms_p95 < 250
"""))

#: Extra rules the live ``run`` daemon appends to its rule set: the
#: ingest thread must be healthy (``ingest_ok`` drops to 0 when the
#: source loop dies) and a paced stream must not slip more than a
#: window's worth of wall clock behind schedule.  Kept out of
#: :data:`DEFAULT_RULES` so a plain ``serve`` deployment does not
#: report perpetual ``no_data`` verdicts for a daemon it is not.
DAEMON_RULES = tuple(parse_rules("""
daemon-ingest: daemon.ingest_ok >= 1
daemon-lag:    daemon.ingest_lag_s < 5 for 2 windows
"""))

#: Abuse-detection rules over the ``_detector`` meta-dataset's summary
#: rows (one row per detector per window, keyed by the bare detector
#: name; see :mod:`repro.detect`).  The healthy condition is "nothing
#: flagged": the moment a detector flags any eSLD, its rule FAILs and
#: ``/platform/health`` reports the incident.  Appended to the rule
#: set only when detectors run, so detector-less deployments do not
#: report perpetual ``no_data``.
DETECTOR_RULES = tuple(parse_rules("""
detect-exfil: exfil.flagged < 1
detect-ddos:  ddos.flagged < 1
detect-noh:   noh.flagged < 1
"""))


class Verdict:
    """Outcome of one rule against one component's recent windows."""

    __slots__ = ("rule", "component", "status", "value", "window_ts",
                 "failing_windows")

    def __init__(self, rule, component, status, value=None,
                 window_ts=None, failing_windows=0):
        self.rule = rule
        self.component = component
        self.status = status
        #: most recent observed value (None for no_data)
        self.value = value
        #: start_ts of the most recent window carrying the column
        self.window_ts = window_ts
        #: consecutive most-recent windows violating the condition
        self.failing_windows = failing_windows

    def as_dict(self):
        return {
            "rule": self.rule.name,
            "spec": self.rule.spec(),
            "component": self.component,
            "status": self.status,
            "value": self.value,
            "threshold": self.rule.threshold,
            "window_ts": self.window_ts,
            "failing_windows": self.failing_windows,
        }

    def __repr__(self):
        return "Verdict(%s, %s, %s=%r)" % (
            self.rule.name, self.component, self.status, self.value)


def evaluate(platform_series, rules=DEFAULT_RULES):
    """Evaluate *rules* against a time-ordered ``_platform`` series.

    Parameters
    ----------
    platform_series:
        Iterable of ``TimeSeriesData`` windows, from the store or
        straight from a live pipeline.
    rules:
        Iterable of :class:`Rule`.

    Returns a list of :class:`Verdict`, one per (rule, matched
    component) -- plus one ``no_data`` verdict for a rule matching no
    component at all.
    """
    windows = sorted(platform_series, key=lambda d: d.start_ts)
    # component -> [(window_ts, row)] in time order
    history = {}
    for data in windows:
        for component, row in data.rows:
            history.setdefault(component, []).append((data.start_ts, row))
    verdicts = []
    for rule in rules:
        matched = False
        for component in sorted(history):
            if not rule.matches(component):
                continue
            matched = True
            verdicts.append(_evaluate_one(rule, component,
                                          history[component]))
        if not matched:
            verdicts.append(Verdict(rule, rule.component, NO_DATA))
    return verdicts


def _evaluate_one(rule, component, windows):
    # Most-recent-first windows where the component reported the column.
    observed = [(ts, row[rule.column])
                for ts, row in reversed(windows) if rule.column in row]
    if not observed:
        return Verdict(rule, component, NO_DATA)
    failing = 0
    for _, value in observed:
        if rule.healthy(value):
            break
        failing += 1
    ts, value = observed[0]
    status = FAIL if failing >= rule.windows else OK
    return Verdict(rule, component, status, value=value, window_ts=ts,
                   failing_windows=failing)


def summarize(verdicts):
    """Overall status + counts: the ``/platform/health`` envelope."""
    counts = {OK: 0, FAIL: 0, NO_DATA: 0}
    for verdict in verdicts:
        counts[verdict.status] += 1
    if counts[FAIL]:
        status = FAIL
    elif counts[OK]:
        status = OK
    else:
        status = NO_DATA
    return {"status": status, "rules_ok": counts[OK],
            "rules_failed": counts[FAIL],
            "rules_no_data": counts[NO_DATA]}
