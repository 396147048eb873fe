"""End-to-end tests for ``dns-observatory run``.

These spawn the real CLI in a subprocess and talk to it over TCP:
the window must become queryable within one window period of being
cut, SSE framing must conform on a raw socket, and SIGTERM must cut
the in-progress window, drain subscribers, and exit 0.
"""

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"),
                    env.get("PYTHONPATH", "")) if p)
    return env


def spawn_daemon(series_dir, *extra):
    """Start the daemon, wait for its ready line, return (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run", str(series_dir),
         "--preset", "tiny", "--port", "0"] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=_env(), text=True)
    line = proc.stdout.readline()
    if "live daemon:" not in line:
        proc.kill()
        raise AssertionError("no ready line, got: %r" % line)
    # "... on http://127.0.0.1:43211  (window=1s, ...)"
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def get_json(port, target, timeout=15.0):
    url = "http://127.0.0.1:%d%s" % (port, target)
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def srvip_files(series_dir):
    return sorted(glob.glob(os.path.join(str(series_dir),
                                         "srvip.*.tsv")))


def reap(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


class TestLiveDaemon:
    def test_follow_sees_window_within_one_period(self, tmp_path):
        series = tmp_path / "series"
        proc, port = spawn_daemon(series, "--window", "1", "--pace", "3",
                                  "--duration", "60", "--qps", "200",
                                  "--datasets", "srvip", "qname")
        try:
            # one 1 s window at pace 3 is ~0.33 s of wall time; the
            # long-poll must deliver the first flush inside one period
            # (generous wall allowance for process start + scheduling)
            started = time.monotonic()
            doc = get_json(port, "/series/srvip?follow=&timeout=10")
            elapsed = time.monotonic() - started
            assert doc["windows"], "long-poll returned no window"
            assert doc["timed_out"] is False
            assert doc["next_cursor"] == doc["windows"][-1]["start_ts"]
            assert elapsed < 2.0

            health = get_json(port, "/platform/health")
            assert health["daemon"]["running"] is True
            assert health["daemon"]["ingest_active"] is True
            assert health["daemon"]["windows_flushed"] >= 1
            assert health["broker"]["closed"] == 0
            assert health["server"]["uptime_s"] >= 0.0

            before = len(srvip_files(series))
            time.sleep(0.3)  # get solidly mid-window before the signal
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
            assert rc == 0
            # SIGTERM cut the in-progress window before exiting
            assert len(srvip_files(series)) > before
            assert "Traceback" not in proc.stdout.read()
        finally:
            reap(proc)

    def test_file_input_skips_and_counts_malformed_lines(self, tmp_path):
        """A line the feature update cannot take (negative delay) and
        plain garbage are dropped and counted; ingest carries on and
        the daemon still exits 0."""
        stream = tmp_path / "stream.tsv"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "simulate", "--preset",
             "tiny", "--duration", "130", "--qps", "50",
             "-o", str(stream)],
            env=_env(), check=True, capture_output=True)
        lines = stream.read_text().splitlines()
        fields = next(l for l in lines
                      if l.split("\t")[7] == "1").split("\t")
        fields[9] = "-1.0"
        lines[10:10] = ["\t".join(fields), "garbage"]
        stream.write_text("\n".join(lines) + "\n")
        series = tmp_path / "series"
        proc, port = spawn_daemon(
            series, "--window", "60", "--pace", "0", "--input",
            str(stream), "--exit-when-done", "--datasets", "srvip")
        try:
            assert proc.wait(timeout=30) == 0
            output = proc.stdout.read()
            assert "Traceback" not in output
            assert "skipped 2 malformed input lines" in output
            assert len(srvip_files(series)) >= 2
        finally:
            reap(proc)

    def test_sse_frames_then_drains_on_sigterm(self, tmp_path):
        series = tmp_path / "series"
        proc, port = spawn_daemon(series, "--window", "1", "--pace", "3",
                                  "--duration", "60", "--qps", "200",
                                  "--datasets", "srvip")
        sock = None
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=10)
            sock.settimeout(10)
            sock.sendall(b"GET /stream/srvip HTTP/1.1\r\n"
                         b"Host: e2e\r\n"
                         b"Accept: text/event-stream\r\n\r\n")
            buf = b""
            while b"event: window" not in buf:
                chunk = sock.recv(4096)
                assert chunk, "stream closed before any window event"
                buf += chunk
            head = buf.split(b"\r\n\r\n", 1)[0].decode("latin-1")
            assert " 200 " in head.split("\r\n")[0]
            assert "text/event-stream" in head
            assert "Transfer-Encoding: chunked" in head
            assert b"retry: 2000" in buf
            assert b"\nid: " in buf or b"id: " in buf
            assert b"\ndata: " in buf

            proc.send_signal(signal.SIGTERM)
            while b"event: eof" not in buf:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
            assert b"event: eof" in buf, "drain must end with eof"
            rc = proc.wait(timeout=20)
            assert rc == 0
        finally:
            if sock is not None:
                sock.close()
            reap(proc)

    def test_file_input_exit_when_done(self, tmp_path):
        stream = tmp_path / "stream.tsv"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "simulate", "--preset",
             "tiny", "--duration", "180", "--qps", "50",
             "-o", str(stream)],
            env=_env(), check=True, capture_output=True)
        series = tmp_path / "series"
        proc, port = spawn_daemon(
            series, "--window", "60", "--pace", "0", "--input",
            str(stream), "--exit-when-done", "--datasets", "srvip")
        try:
            rc = proc.wait(timeout=30)
            assert rc == 0
            # the trailing partial window was cut at end-of-stream
            files = srvip_files(series)
            assert len(files) >= 2
            assert any(".0000000120." in f for f in files)
            assert "Traceback" not in proc.stdout.read()
        finally:
            reap(proc)


def test_run_segments_flag_writes_fresh_sidecars(tmp_path):
    """``run --segments``: every flushed window gets a columnar
    sidecar whose contents equal the text parse."""
    from repro.observatory import segments as segmentfmt
    from repro.observatory.tsv import read_tsv

    series = tmp_path / "series"
    proc, port = spawn_daemon(series, "--window", "1", "--pace", "3",
                              "--duration", "60", "--qps", "100",
                              "--datasets", "srvip", "--segments")
    try:
        doc = get_json(port, "/series/srvip?follow=&timeout=10")
        assert doc["windows"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        flushed = srvip_files(series)
        assert flushed
        for path in flushed:
            seg = path + segmentfmt.SEGMENT_SUFFIX
            assert os.path.exists(seg), "missing sidecar for %s" % path
            assert segmentfmt.read_segment(seg).rows == \
                read_tsv(path).rows
    finally:
        reap(proc)


def test_run_detectors_fire_health_rule_during_attack(tmp_path):
    """``run --detectors`` against a scripted water-torture flood: the
    ``_detector`` series flows through the live chain and
    ``/platform/health`` trips ``detect-ddos`` while the attack is in
    the newest window."""
    series = tmp_path / "series"
    # 10 s windows: two warm-up cuts before the flood starts at t=30;
    # 60 qps of random subdomains is ~600 distinct per window, far
    # over the detector's floor
    proc, port = spawn_daemon(
        series, "--window", "10", "--pace", "4", "--duration", "130",
        "--qps", "30", "--datasets", "srvip", "--detectors",
        "--attack", "watertorture:30:60")
    try:
        deadline = time.monotonic() + 60.0
        tripped = None
        while time.monotonic() < deadline:
            health = get_json(port, "/platform/health")
            verdicts = {v["rule"]: v["status"]
                        for v in health["verdicts"]}
            assert "detect-ddos" in verdicts, \
                "detector rules not wired into the daemon"
            if verdicts["detect-ddos"] == "fail":
                tripped = health
                break
            time.sleep(0.5)
        assert tripped is not None, "detect-ddos never fired"
        assert tripped["status"] == "fail"
        assert tripped["detector_windows"] >= 1

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        detector_files = sorted(glob.glob(os.path.join(
            str(series), "_detector.*.tsv")))
        assert detector_files, "no _detector windows flushed"
        assert "Traceback" not in proc.stdout.read()
    finally:
        reap(proc)
