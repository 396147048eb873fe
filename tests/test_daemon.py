"""End-to-end tests for ``dns-observatory run``.

These spawn the real CLI in a subprocess and talk to it over TCP:
the window must become queryable within one window period of being
cut, SSE framing must conform on a raw socket, and SIGTERM must cut
the in-progress window, drain subscribers, and exit 0.  A window is
handed over on its boundary line, and ``run`` writes the tree
``replay`` writes from the same lines.
"""

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.daemon import stdin_lines
from tests.util import window_tree

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


def simulate(path, duration, qps):
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "simulate", "--preset",
         "tiny", "--duration", str(duration), "--qps", str(qps),
         "-o", str(path)],
        env=_env(), check=True, capture_output=True)
    return path


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
        stream = simulate(tmp_path / "stream.tsv", 130, 50)
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
        stream = simulate(tmp_path / "stream.tsv", 180, 50)
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


def test_stdin_lines_yields_every_line_of_one_write():
    """Every complete line of a write is yielded without waiting for
    the next write; a last line without a newline comes at EOF."""
    read_fd, write_fd = os.pipe()
    stop = threading.Event()
    guard = threading.Timer(2.0, stop.set)  # a held-back line ends it
    guard.start()
    try:
        lines = stdin_lines(stop, read_fd)
        os.write(write_fd, b"one\ntwo\nthr")
        assert next(lines, None) == b"one"
        assert next(lines, None) == b"two"  # the pipe is still open
        os.write(write_fd, b"ee\nlast")
        assert next(lines, None) == b"three"
        os.close(write_fd)
        write_fd = None
        assert list(lines) == [b"last"]
    finally:
        guard.cancel()
        os.close(read_fd)
        if write_fd is not None:
            os.close(write_fd)


def test_stdin_boundary_line_hands_window_over(tmp_path):
    """The first line past a window cuts it at once: windows 0 and 1
    plus one line of window 2 in one write, stdin left open, and a
    parked follow long-poll gets window 1 (window 0 is the cold start,
    whose srvip file has no rows and is not written)."""
    lines = simulate(tmp_path / "stream.tsv", 4, 50).read_bytes() \
        .splitlines(keepends=True)
    crossing = next(i for i, line in enumerate(lines)
                    if float(line.split(b"\t", 1)[0]) >= 2.0)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run", str(tmp_path / "series"),
         "--input", "-", "--window", "1", "--pace", "0", "--port", "0",
         "--datasets", "srvip", "--exit-when-done"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, env=_env())
    try:
        ready = proc.stdout.readline().decode()
        assert "live daemon:" in ready, ready
        port = int(ready.split("http://", 1)[1].split()[0]
                   .rsplit(":", 1)[1])
        with ThreadPoolExecutor(1) as pool:
            parked = pool.submit(get_json, port,
                                 "/series/srvip?follow=&timeout=2")
            time.sleep(0.3)  # parked before the lines go out
            proc.stdin.write(b"".join(lines[:crossing + 1]))
            proc.stdin.flush()
            doc = parked.result(timeout=15)
        assert doc["timed_out"] is False
        assert [w["start_ts"] for w in doc["windows"]] == [1]
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
    finally:
        reap(proc)


def test_non_utf8_line_is_skipped_by_every_line_source(tmp_path):
    """``replay FILE``, ``run --input FILE`` and ``run --input -`` each
    drop and count a line that is not UTF-8, and exit 0."""
    stream = simulate(tmp_path / "stream.tsv", 60, 20)
    lines = stream.read_bytes().splitlines(keepends=True)
    lines.insert(10, b"\xff\xfe garbage\n")
    stream.write_bytes(b"".join(lines))
    base = [sys.executable, "-m", "repro.cli"]
    live = ["--pace", "0", "--port", "0", "--exit-when-done"]
    for argv, stdin in (
            (["replay", str(stream), str(tmp_path / "replayed")], None),
            (["run", str(tmp_path / "file"), "--input", str(stream)]
             + live, None),
            (["run", str(tmp_path / "stdin"), "--input", "-"] + live,
             stream)):
        with open(stdin or os.devnull, "rb") as fh:
            done = subprocess.run(base + argv, stdin=fh, env=_env(),
                                  capture_output=True, timeout=60)
        assert done.returncode == 0, (argv, done.stderr[-600:])
        assert b"skipped 1 malformed input lines" in done.stderr, argv


def test_health_reports_the_workers_run(tmp_path):
    """``--shards 8`` over srvip, qname and the always-armed
    ``_encrypted`` channel runs three workers, one per channel, and
    ``/platform/health`` says so."""
    proc, port = spawn_daemon(tmp_path / "series", "--window", "1",
                              "--pace", "3", "--duration", "30",
                              "--qps", "50", "--datasets", "srvip", "qname",
                              "--shards", "8")
    try:
        assert get_json(port, "/platform/health")["daemon"]["shards"] == 3
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
    finally:
        reap(proc)


@pytest.fixture(scope="module")
def minute_stream(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("minute") / "stream.tsv",
                    60, 80)


@pytest.mark.parametrize("shards", ["1", "2"])
def test_daemon_writes_the_replay_tree(minute_stream, tmp_path, shards):
    """``run`` over a file and over stdin writes the tree ``replay``
    writes: its batch cuts fall elsewhere, the windows do not."""
    flags = ["--window", "1", "--segments", "--detectors",
             "--shards", shards]
    base = [sys.executable, "-m", "repro.cli"]
    live = ["--pace", "0", "--port", "0", "--exit-when-done"]
    stream = str(minute_stream)
    for name, argv in (
            ("replay", ["replay", stream, "replay", "--telemetry"]),
            ("file", ["run", "file", "--input", stream] + live),
            ("stdin", ["run", "stdin", "--input", "-"] + live)):
        with open(stream if name == "stdin" else os.devnull, "rb") as fh:
            subprocess.run(base + argv + flags, stdin=fh, cwd=tmp_path,
                           env=_env(), check=True, capture_output=True,
                           timeout=120)
    expected = window_tree(tmp_path / "replay")
    assert any(name.startswith("srvip.") for name in expected)
    assert window_tree(tmp_path / "file") == expected
    assert window_tree(tmp_path / "stdin") == expected
