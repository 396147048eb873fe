"""Unit tests for the streaming detection subsystem."""

import math

import pytest

from repro.detect import (DetectorSet, DdosDetector, ExfilDetector,
                          NohDetector, build_detectors,
                          qname_info_millibits)
from tests.util import make_txn, tuned


def window(detector, qnames, start=0.0):
    """Feed one window of transactions and return {key: row}."""
    for qname in qnames:
        detector.observe(make_txn(qname=qname))
    return dict(detector.cut(start, start + 60.0))


class TestQnameInfo:
    def test_empty_subdomain_is_zero(self):
        assert qname_info_millibits("") == 0

    def test_repetition_carries_no_information(self):
        assert qname_info_millibits("aaaaaaaa") == 0

    def test_matches_entropy_times_length(self):
        # 4 distinct chars, uniform: 2 bits/char * 4 chars = 8 bits
        assert qname_info_millibits("abcd") == 8000

    def test_integer_quantization(self):
        value = qname_info_millibits("abcdefgh1234")
        assert isinstance(value, int)
        n = 12
        entropy = -sum((1 / n) * math.log2(1 / n) for _ in range(n))
        assert value == int(round(entropy * n * 1000))


class TestBuildDetectors:
    def test_falsy_spec_is_none(self):
        assert build_detectors(None) is None
        assert build_detectors(False) is None
        assert build_detectors([]) is None

    def test_true_builds_all_in_canonical_order(self):
        detectors = build_detectors(True)
        assert [d.name for d in detectors.detectors] == ["exfil", "ddos", "noh"]

    def test_names_and_instances_mix(self):
        custom = tuned(DdosDetector(), min_value=5.0)
        detectors = build_detectors(["exfil", custom])
        assert [d.name for d in detectors.detectors] == ["exfil", "ddos"]
        assert detectors.detectors[1] is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            build_detectors(["nosuch"])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DetectorSet([ExfilDetector(), ExfilDetector()])


class TestFlagLogic:
    def test_warmup_windows_never_flag(self):
        det = tuned(ExfilDetector(), min_value=1.0, warmup=2)
        loud = ["%08x.evil.com" % (i * 2654435761 % 2**32)
                for i in range(50)]
        rows = window(det, loud, start=0.0)
        assert rows["exfil"]["flagged"] == 0
        rows = window(det, loud, start=60.0)
        assert rows["exfil"]["flagged"] == 0

    def test_flags_after_warmup_on_jump(self):
        det = tuned(ExfilDetector(), min_value=10.0, warmup=1, ratio=4.0)
        window(det, ["www.quiet.com"], start=0.0)
        rows = window(det, ["%08x.quiet.com" % (i * 48271 % 2**32)
                            for i in range(40)], start=60.0)
        assert rows["exfil.quiet.com"]["flagged"] == 1
        assert rows["exfil"]["flagged"] == 1

    def test_steady_traffic_never_flags(self):
        det = tuned(ExfilDetector(), min_value=1.0, warmup=1, ratio=4.0)
        steady = ["mail.steady.com", "www.steady.com", "api.steady.com"]
        for i in range(6):
            rows = window(det, steady, start=60.0 * i)
            if i >= 1:
                # value == baseline, far below ratio * baseline
                assert rows["exfil.steady.com"]["flagged"] == 0

    def test_attack_does_not_launder_its_baseline(self):
        """A sustained attack keeps flagging: flagged windows must not
        feed the EWMA baseline."""
        det = tuned(ExfilDetector(), min_value=10.0, warmup=1, ratio=4.0)
        window(det, ["www.victim.com"], start=0.0)
        attack = ["%010x.victim.com" % (i * 69621 % 2**40)
                  for i in range(60)]
        for i in range(1, 5):
            rows = window(det, attack, start=60.0 * i)
            assert rows["exfil.victim.com"]["flagged"] == 1

    def test_absolute_floor_suppresses_small_keys(self):
        det = tuned(ExfilDetector(), min_value=1e6, warmup=0)
        rows = window(det, ["%08x.small.com" % i for i in range(20)])
        assert rows["exfil.small.com"]["flagged"] == 0

    def test_topn_caps_per_key_rows(self):
        det = tuned(ExfilDetector(), topn=3)
        rows = window(det, ["www.domain%02d.com" % i for i in range(10)])
        per_key = [k for k in rows if k.startswith("exfil.")]
        assert len(per_key) == 3
        assert rows["exfil"]["keys"] == 10


class TestDdosDetector:
    def test_counts_distinct_not_volume(self):
        det = tuned(DdosDetector(), min_value=10.0, warmup=0)
        qnames = ["sub%04d.victim.net" % i for i in range(300)]
        rows = window(det, qnames + ["www.loud.net"] * 500)
        distinct = rows["ddos.victim.net"]["distinct"]
        assert distinct == pytest.approx(300, rel=0.05)
        assert rows["ddos.loud.net"]["distinct"] == 1
        assert rows["ddos.victim.net"]["flagged"] == 1
        assert rows["ddos.loud.net"]["flagged"] == 0

    def test_case_and_dot_insensitive(self):
        det = DdosDetector()
        for qname in ("WWW.Example.COM.", "www.example.com"):
            det.observe(make_txn(qname=qname))
        rows = dict(det.cut(0.0, 60.0))
        assert rows["ddos.example.com"]["distinct"] == 1


class TestNohDetector:
    def test_first_window_all_new_then_suppressed(self):
        det = tuned(NohDetector(), min_value=5.0, warmup=0, ratio=4.0)
        qnames = ["host%02d.corp.org" % i for i in range(30)]
        rows = window(det, qnames, start=0.0)
        assert rows["noh.corp.org"]["noh"] == 30
        # the same hostnames again: all remembered, nothing new
        rows = window(det, qnames, start=60.0)
        assert rows["noh.corp.org"]["noh"] == 0

    def test_generation_rotation_forgets_old_names(self):
        det = tuned(NohDetector(), min_value=1.0, warmup=0,
                    generation_windows=2)
        qnames = ["a.gen.org", "b.gen.org"]
        window(det, qnames, start=0.0)     # cut 1
        window(det, [], start=60.0)        # cut 2 -> rotation
        window(det, [], start=120.0)       # cut 3
        window(det, [], start=180.0)       # cut 4 -> rotation again
        rows = window(det, qnames, start=240.0)
        # both generations rotated past the names: new again
        assert rows["noh.gen.org"]["noh"] == 2


class TestDetectorSet:
    def test_cut_concatenates_in_order(self):
        detectors = build_detectors(True)
        detectors.observe_batch([make_txn(qname="www.example.com")])
        rows = detectors.cut(0.0, 60.0)
        names = [key for key, _ in rows if "." not in key]
        assert names == ["exfil", "ddos", "noh"]
