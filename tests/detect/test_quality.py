"""Detection-quality gates: the subsystem's acceptance criteria.

One adversarial scenario carrying both labeled attacks (a DNS tunnel
and a water-torture flood) runs once per module; every detector must
clear precision >= 0.9 and recall >= 0.8 against the simulator's
ground truth, with a bounded time-to-detection.
"""

import pytest

from repro.analysis.detectquality import (detect_quality,
                                          evaluate_detection,
                                          meets_floors,
                                          render_detect_quality)
from repro.observatory import Observatory
from repro.simulation.scenario import (Scenario, TunnelAttack,
                                       WaterTorture)
from repro.simulation.sie import SieChannel
from tests.util import cut_windows

PRECISION_FLOOR = 0.9
RECALL_FLOOR = 0.8

#: attacks start at window 3 (after the 2-window detector warm-up)
ATTACK_START = 180.0


@pytest.fixture(scope="module")
def adversarial_run():
    """Simulate both attacks, ingest with all detectors; returns
    (labels, _detector dumps)."""
    scenario = Scenario.tiny(
        duration=480.0, client_qps=30.0,
        scripted_events=[
            TunnelAttack(at=ATTACK_START, qps=20.0),
            WaterTorture(at=ATTACK_START, qps=25.0),
        ])
    channel = SieChannel(scenario)
    labels = channel.attack_labels()
    obs = Observatory(datasets=[("qname", 512)], window_seconds=60.0,
                      detectors=True)
    return labels, cut_windows(obs, channel.run())["_detector"]


def test_ground_truth_labels(adversarial_run):
    labels, _ = adversarial_run
    assert sorted(label["kind"] for label in labels) == \
        ["tunnel", "watertorture"]
    for label in labels:
        assert label["start"] == ATTACK_START
        assert label["end"] == 480.0
        assert label["esld"]
    # distinct auto-picked victims
    assert len({label["esld"] for label in labels}) == 2


def test_every_detector_clears_the_floors(adversarial_run):
    labels, dumps = adversarial_run
    series, scores = detect_quality(dumps, labels)
    assert sorted(scores) == ["ddos", "exfil", "noh"]
    for name, score in scores.items():
        assert score.precision is not None, name
        assert score.precision >= PRECISION_FLOOR, \
            "%s precision %.3f: %r" % (name, score.precision,
                                       score)
        assert score.recall is not None, name
        assert score.recall >= RECALL_FLOOR, \
            "%s recall %.3f: %r" % (name, score.recall, score)
    assert meets_floors(scores)


def test_time_to_detection_is_bounded(adversarial_run):
    """Each detector fires within two windows of its attack start."""
    labels, dumps = adversarial_run
    scores = evaluate_detection(dumps, labels)
    for name, score in scores.items():
        assert score.time_to_detection, name
        for esld, ttd in score.time_to_detection.items():
            assert 0.0 <= ttd <= 120.0, (name, esld, ttd)


def test_detectors_stay_quiet_before_the_attack(adversarial_run):
    """No window before the attack start flags anything: the simulated
    benign workload does not trip the thresholds."""
    _, dumps = adversarial_run
    for dump in dumps:
        if dump.start_ts >= ATTACK_START:
            continue
        for key, row in dump.rows:
            assert row.get("flagged", 0) == 0, (dump.start_ts, key, row)


def test_render_marks_pass(adversarial_run):
    labels, dumps = adversarial_run
    series, scores = detect_quality(dumps, labels)
    text = render_detect_quality(series, scores)
    assert text.startswith("Detection quality: PASS")
    for name in ("ddos", "exfil", "noh"):
        assert name in text
