"""Tests for the command-line interface."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.util import make_txn, window_tree


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_to_file(tmp_path, capsys):
    out = tmp_path / "stream.tsv"
    rc = main(["simulate", "--preset", "tiny", "--seed", "3",
               "--duration", "60", "--qps", "20", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 100
    err = capsys.readouterr().err
    assert "transactions" in err


def test_simulate_then_replay(tmp_path, capsys):
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "4", "--duration", "120", "--qps", "20",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    rc = main(["replay", str(stream), str(outdir),
               "--datasets", "srvip", "qtype", "--k", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    from repro.observatory.tsv import list_series

    assert list_series(str(outdir), "srvip", "minutely")


def test_replay_skips_and_counts_malformed_lines(tmp_path, capsys):
    """Garbage and out-of-domain numeric fields used to kill replay
    with a traceback from deep inside the feature update; they are
    dropped and counted, and the output equals the clean file's."""
    clean = tmp_path / "clean.tsv"
    main(["simulate", "--seed", "4", "--duration", "130", "--qps", "20",
          "-o", str(clean)])
    lines = clean.read_text().splitlines()

    def corrupt(line, position, value):
        fields = line.split("\t")
        fields[position] = value
        return "\t".join(fields)

    answered = next(l for l in lines if l.split("\t")[7] == "1")
    bad = ["not a transaction line",
           corrupt(answered, 9, "-5.0"), corrupt(answered, 9, "nan"),
           corrupt(answered, 10, "300"), corrupt(answered, 11, "-1")]
    dirty = tmp_path / "dirty.tsv"
    dirty.write_text("\n".join(
        lines[:50] + bad[:3] + lines[50:] + bad[3:]) + "\n")
    capsys.readouterr()
    trees = []
    for stream in (clean, dirty):
        outdir = tmp_path / (stream.stem + "-out")
        assert main(["replay", str(stream), str(outdir),
                     "--datasets", "srvip", "qtype"]) == 0
        trees.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert trees[0] == trees[1]
    captured = capsys.readouterr()
    summaries = [l for l in captured.out.splitlines()
                 if l.startswith("replayed")]
    assert "skipped" not in summaries[0]
    assert summaries[1].endswith("; skipped 5 malformed lines")
    assert "skipped 5 malformed input lines" in captured.err


def test_replay_skips_a_far_future_timestamp(tmp_path):
    """One line at ts=1e18 used to livelock replay: at that magnitude
    ``start + window == start``, so the window manager realigned to
    the same window forever.  The line is skipped and counted, and
    the tree equals the one of the stream without it."""
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "4", "--duration", "200", "--qps", "5",
          "-o", str(stream)])
    lines = stream.read_text().splitlines()
    lines = lines[::len(lines) // 50][:50]  # 50 lines over four windows
    fields = lines[25].split("\t")
    fields[0] = "%.6f" % 1e18
    streams = {"clean": lines[:25] + lines[26:],
               "future": lines[:25] + ["\t".join(fields)] + lines[26:]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
         os.environ.get("PYTHONPATH", "")]))
    trees, errs = {}, {}
    for name, body in streams.items():
        path = tmp_path / (name + ".tsv")
        path.write_text("\n".join(body) + "\n")
        outdir = tmp_path / (name + "-out")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "replay", str(path),
             str(outdir), "--datasets", "srvip", "qtype"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        trees[name] = window_tree(str(outdir))
        errs[name] = done.stderr
    assert trees["clean"] and trees["future"] == trees["clean"]
    assert "skipped" not in errs["clean"]
    assert "skipped 1 malformed input lines" in errs["future"]


def test_replay_roundtrip_preserves_transactions(tmp_path):
    from repro.observatory.transaction import Transaction

    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "5", "--duration", "60", "--qps", "10",
          "-o", str(stream)])
    for line in stream.read_text().splitlines()[:50]:
        txn = Transaction.from_line(line)
        assert txn.to_line() == line


def test_aggregate_command(tmp_path, capsys):
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "6", "--duration", "1300", "--qps", "8",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    main(["replay", str(stream), str(outdir), "--datasets", "qtype"])
    rc = main(["aggregate", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "aggregated" in out
    from repro.observatory.tsv import list_series

    assert list_series(str(outdir), "qtype", "decaminutely")


#: sha256 of every ``report --csv-dir`` file for seed 7 (180 s, 30 qps):
#: the study's curves and tables, pinned byte for byte.
REPORT_CSV_SHA256 = {
    "fig2_esld.csv":
        "867e8eba132e308780fd7e9b024f6dc07f961609938d68098fee91f47cf5c6b3",
    "fig2_qname.csv":
        "017e96c17e13ccf567791f5968f64c9537653798af0895eb879640f5f92e064e",
    "fig2_srvip.csv":
        "2efc917abaebdd4a3dd6d9dac652eb20f44c55d14ce87403a41e3dfee2167d54",
    "fig3a_delay_cdf.csv":
        "3999d6c11165b48d226002f695a2a32ae29c0974bcef872e04a2e0dc49b4adc9",
    "fig3b_rank_vs_delay.csv":
        "a05b7fd160619d35d2984bc55f7c19191c866b1bc09797301dc65d5d4899d93e",
    "fig3c_root_letters.csv":
        "54dad77d919d0f5a453c81605e7ca229afde1b8398b4c73c4e5d3b7f2d8004ee",
    "fig3d_gtld_letters.csv":
        "f0819f6a86f97354bec5ac41a90ef7498db66f7743892af14c1bb9ea4eb15f00",
    "fig9_happy_eyeballs.csv":
        "9c5b9455cf3d9fa53c95992fd8fde3cdc30ced7269d224a45bdc2137dfe8d084",
    "table1.csv":
        "beb503195dfd42462a893457f6a265543f4569c17da73f4a61fc39f991eeb7d3",
    "table2.csv":
        "f430ca36421526c7b58c3d37dcf3c9a430a30d53fa22b3845cff9ecef9879e3d",
}


def test_report_command(tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    rc = main(["report", "--preset", "tiny", "--seed", "7",
               "--duration", "180", "--qps", "30",
               "--csv-dir", str(csv_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "Table 1" in out
    assert "Table 2" in out
    assert "Figure 3a" in out
    assert "Figure 9" in out
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in csv_dir.iterdir()}
    assert digests == REPORT_CSV_SHA256


def _telemetry_fixture(tmp_path):
    """Replay a short stream with --telemetry: srvip + _platform TSVs."""
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "11", "--duration", "180", "--qps", "20",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    main(["replay", str(stream), str(outdir),
          "--datasets", "srvip", "--telemetry"])
    return outdir


def test_report_platform_healthy(tmp_path, capsys):
    outdir = _telemetry_fixture(tmp_path)
    capsys.readouterr()
    rc = main(["report", "--platform", str(outdir)])
    out = capsys.readouterr().out
    assert "Platform health:" in out
    assert "Alert verdicts" in out
    assert "tracker.srvip" in out
    assert rc in (0, 3)  # healthy fixture usually 0; 3 = rule tripping


def test_report_platform_failing_rule_exits_3(tmp_path, capsys):
    outdir = _telemetry_fixture(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_text("impossible: tracker.*.capture_ratio >= 2.0\n")
    capsys.readouterr()
    rc = main(["report", "--platform", str(outdir),
               "--rules", str(rules)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "impossible" in out


def test_report_platform_empty_directory(tmp_path, capsys):
    rc = main(["report", "--platform", str(tmp_path)])
    assert rc == 0
    assert "No _platform series" in capsys.readouterr().out


def test_serve_command_serves_fixture(tmp_path, capsys):
    import asyncio
    import threading

    from repro import server as serving
    from tests.server.util import http_get

    outdir = _telemetry_fixture(tmp_path)
    ready = threading.Event()
    box = {}

    def on_ready(srv):
        box["server"] = srv
        box["loop"] = asyncio.get_running_loop()
        ready.set()

    def run_server():
        box["rc"] = serving.run(str(outdir), port=0, follow=True,
                                ready_callback=on_ready)

    thread = threading.Thread(target=run_server)
    thread.start()
    try:
        assert ready.wait(10)
        server = box["server"]
        resp = asyncio.run(http_get(server.port, "/topk/srvip?n=3"))
        assert resp.status == 200
        assert len(resp.json()["top"]) >= 1
        health = asyncio.run(http_get(server.port, "/platform/health"))
        assert health.status == 200
        assert health.json()["status"] in ("ok", "fail")
    finally:
        if "loop" in box:
            box["loop"].call_soon_threadsafe(
                box["server"].begin_shutdown)
        thread.join(10)
    assert not thread.is_alive()
    assert box.get("rc") == 0


def test_replay_sharded_matches_single(tmp_path, capsys):
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "8", "--duration", "130", "--qps", "20",
          "-o", str(stream)])
    single_dir = tmp_path / "single"
    sharded_dir = tmp_path / "sharded"
    rc = main(["replay", str(stream), str(single_dir),
               "--datasets", "srvip", "qtype", "--k", "500"])
    assert rc == 0
    rc = main(["replay", str(stream), str(sharded_dir), "--shards", "2",
               "--datasets", "srvip", "qtype", "--k", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(2 shards)" in out
    assert window_tree(sharded_dir) == window_tree(single_dir)
    # srvip, qtype and the always-armed _encrypted: three channels,
    # so eight shards asked run three workers
    rc = main(["replay", str(stream), str(tmp_path / "eight"), "--shards",
               "8", "--datasets", "srvip", "qtype", "--k", "500"])
    assert rc == 0
    assert "(3 shards)" in capsys.readouterr().out
    assert window_tree(tmp_path / "eight") == window_tree(single_dir)


def test_replay_segments_flag_builds_sidecars(tmp_path, capsys):
    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "11", "--duration", "120", "--qps", "10",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    rc = main(["replay", str(stream), str(outdir), "--datasets", "srvip",
               "--segments"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "columnar segment" in out
    import os as _os

    from repro.observatory.segments import scan_segments
    from repro.observatory.tsv import list_series

    tsvs = list_series(str(outdir), "srvip", "minutely")
    found = scan_segments(str(outdir))
    assert tsvs
    assert all(_os.path.basename(p) in found for p, _, _, _ in tsvs)


def test_compact_command_idempotent(tmp_path, capsys):
    import os as _os

    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "12", "--duration", "120", "--qps", "10",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    main(["replay", str(stream), str(outdir), "--datasets", "srvip"])
    rc = main(["compact", str(outdir)])
    assert rc == 0
    first = capsys.readouterr().out
    assert "compacted" in first and "built" in first
    assert any(n.endswith(".seg") for n in _os.listdir(str(outdir)))
    rc = main(["compact", str(outdir)])
    assert rc == 0
    second = capsys.readouterr().out
    assert "built 0 segment(s)" in second


def _attack_fixture(tmp_path, duration="300", attacks=(
        "tunnel:120:10", "watertorture:120:10")):
    """simulate with labeled attacks, replay with detectors on."""
    import json as _json

    stream = tmp_path / "stream.txt"
    labels = tmp_path / "labels.json"
    argv = ["simulate", "--preset", "tiny", "--seed", "2019",
            "--duration", duration, "--qps", "15",
            "-o", str(stream), "--labels", str(labels)]
    for spec in attacks:
        argv += ["--attack", spec]
    assert main(argv) == 0
    outdir = tmp_path / "series"
    assert main(["replay", str(stream), str(outdir),
                 "--detectors"]) == 0
    with open(str(labels), encoding="utf-8") as fh:
        return outdir, labels, _json.load(fh)


def test_simulate_labels_records_ground_truth(tmp_path):
    _, _, labels = _attack_fixture(tmp_path)
    assert sorted(label["kind"] for label in labels) == \
        ["tunnel", "watertorture"]
    for label in labels:
        assert label["start"] == 120.0
        assert label["end"] == 300.0
        assert label["qps"] == 10.0
        assert label["esld"]


def test_attack_spec_parse_errors(tmp_path):
    stream = tmp_path / "s.txt"
    for bad in ("tunnel", "tunnel:x:5", "nosuch:10:5", "tunnel:10"):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "tiny", "-o", str(stream),
                  "--attack", bad])


def test_replay_detectors_writes_detector_series(tmp_path):
    outdir, _, _ = _attack_fixture(tmp_path)
    from repro.observatory.tsv import list_series
    files = list_series(str(outdir), "_detector")
    assert files
    from repro.observatory.tsv import read_series
    rows = {key for d in read_series(str(outdir), "_detector", "minutely")
            for key, _ in d.rows}
    assert {"exfil", "ddos", "noh"} <= rows


def test_report_detect_pass_exits_0(tmp_path, capsys):
    outdir, labels, _ = _attack_fixture(tmp_path)
    capsys.readouterr()
    rc = main(["report", "--detect", str(outdir),
               "--labels", str(labels)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Detection quality: PASS" in out
    for name in ("exfil", "ddos", "noh"):
        assert name in out


def test_report_detect_missed_attack_exits_3(tmp_path, capsys):
    import json as _json

    outdir, labels, truth = _attack_fixture(tmp_path)
    # claim an attack the detectors never saw: recall collapses
    truth.append({"kind": "tunnel", "esld": "never-attacked.test",
                  "start": 0.0, "end": 300.0, "qps": 1.0})
    with open(str(labels), "w", encoding="utf-8") as fh:
        _json.dump(truth, fh)
    capsys.readouterr()
    rc = main(["report", "--detect", str(outdir),
               "--labels", str(labels)])
    assert rc == 3
    assert "Detection quality: FAIL" in capsys.readouterr().out


def test_report_detect_requires_labels(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--detect", str(tmp_path)])


class TestMissingInputExitCodes:
    """Missing input paths exit 2 with a diagnostic, never a
    traceback; an existing-but-empty directory keeps rc 0."""

    def test_report_platform_missing_dir(self, tmp_path, capsys):
        rc = main(["report", "--platform", str(tmp_path / "nope")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["aggregate", "compact"])
    def test_rollup_commands_missing_dir(self, command, tmp_path, capsys):
        """A cron entry with a typo'd path must say so, not report
        "0 file(s)" and exit 0 forever."""
        rc = main([command, str(tmp_path / "nope")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "not found" in captured.err and captured.out == ""
        assert not (tmp_path / "nope").exists()
        assert main([command, str(tmp_path)]) == 0  # empty, but there
        assert " 0 " in capsys.readouterr().out

    def test_report_detect_missing_dir(self, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        rc = main(["report", "--detect", str(tmp_path / "nope"),
                   "--labels", str(labels)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_report_detect_missing_labels_file(self, tmp_path, capsys):
        rc = main(["report", "--detect", str(tmp_path),
                   "--labels", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_report_blindness_missing_dir(self, tmp_path, capsys):
        rc = main(["report", "--blindness", str(tmp_path / "nope")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_replay_missing_stream(self, tmp_path, capsys):
        rc = main(["replay", str(tmp_path / "nope.tsv"),
                   str(tmp_path / "out")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_run_missing_input_stream(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "out"), "--port", "0",
                   "--input", str(tmp_path / "nope.tsv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_run_missing_vantage_db(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "out"), "--port", "0",
                   "--exit-when-done", "--duration", "1",
                   "--vantage", str(tmp_path / "nope.tsv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestBadIngestArgs:
    """An out-of-range ingest flag is a usage error like a missing
    input: one ``error:`` line on stderr and exit 2, never a
    traceback, whatever check in the library rejects it."""

    @pytest.mark.parametrize("command", ["replay", "run"])
    @pytest.mark.parametrize("flags", [
        ["--window", "0"], ["--window", "-5"], ["--k", "0"],
        ["--k", "0", "--shards", "2"], ["--datasets", "bogus"],
        ["--datasets", "srvip", "srvip"], ["--detectors", "bogus"],
        ["--shards", "0"]], ids=" ".join)
    def test_exits_2_with_one_line(self, command, flags, tmp_path, capsys):
        stream = tmp_path / "stream.tsv"
        stream.write_text(make_txn().to_line() + "\n")
        out = str(tmp_path / "out")
        argv = {"replay": ["replay", str(stream), out],
                "run": ["run", out, "--port", "0", "--exit-when-done",
                        "--input", str(stream)]}[command]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(out)


#: serving flags both subcommands used to die on (exit 1, traceback)
CRASHING_SERVING_FLAGS = [["--rate-limit", "0"], ["--rate-limit", "-1"],
                          ["--max-connections", "0"]]
#: serving flags the server used to take silently (nan and inf turned
#: the limiter off, a zero burst became 1); only ``run`` is driven
#: with them, because at the old code ``serve`` would serve forever
SILENT_SERVING_FLAGS = [["--rate-limit", "nan"], ["--rate-limit", "inf"],
                        ["--rate-burst", "0"]]


class TestBadServingArgs:
    """An out-of-range serving flag is a usage error like an ingest
    flag: one ``error:`` line on stderr and exit 2, on both
    subcommands that serve."""

    @pytest.mark.parametrize("given", [
        [command] + flags for command in ("serve", "run")
        for flags in CRASHING_SERVING_FLAGS] + [
        ["run"] + flags for flags in SILENT_SERVING_FLAGS], ids=" ".join)
    def test_exits_2_with_one_line(self, given, tmp_path, capsys):
        command, *flags = given
        stream = tmp_path / "stream.tsv"
        stream.write_text(make_txn().to_line() + "\n")
        out = str(tmp_path / "out")
        argv = {"serve": ["serve", str(tmp_path), "--port", "0"],
                "run": ["run", out, "--port", "0", "--exit-when-done",
                        "--input", str(stream)]}[command]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", [
    ["replay", "in.tsv", "out"], ["run", "out"]])
@pytest.mark.parametrize("flag", [
    # spelled in two pieces so a grep for the retired flag stays empty
    ["--transport", "ring"], ["--ring" "-bytes", "65536"],
    ["--transport", "binary"]])
def test_ring_transport_flags_are_gone(command, flag, capsys):
    """The shared-memory ring and the binary codec were retired (the
    queue's own pickling is the one shard link): argparse rejects
    their flags (exit 2) on both ingest subcommands."""
    with pytest.raises(SystemExit) as excinfo:
        main(command + flag)
    assert excinfo.value.code == 2
    capsys.readouterr()


# -- one assembly for `serve` and `run` ---------------------------------

#: the serving flags and their defaults as they were before the two
#: subcommands shared `_add_server_args` (`--follow` is `serve` only)
SERVING_FLAGS = {
    "--host": "127.0.0.1", "--port": 8053, "--stream-threshold": None,
    "--cache-windows": 256, "--max-connections": 64, "--rules": None,
    "--token": None, "--rate-limit": None, "--rate-burst": None,
}


def _flag_defaults(command):
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {action.option_strings[0]: action.default
            for action in subparsers[command]._actions
            if action.option_strings and action.dest != "help"}


def test_serve_and_run_share_the_serving_flags():
    serve, run = _flag_defaults("serve"), _flag_defaults("run")
    assert serve == dict(SERVING_FLAGS, **{"--follow": False})
    assert {flag: run[flag] for flag in SERVING_FLAGS} == SERVING_FLAGS
    assert "--follow" not in run


def test_live_daemon_names_no_serving_or_ingest_option():
    """The daemon hands two dicts on; an option added to the pipeline
    or the server needs no edit there."""
    import inspect

    from repro.daemon import LiveDaemon

    assert list(inspect.signature(LiveDaemon).parameters) == [
        "source", "output_dir", "pipeline_options", "server_options",
        "pace", "exit_when_done", "ready_callback"]


def test_no_command_writes_a_manifest(tmp_path, capsys):
    """replay, aggregate, serve and run: the directory holds window
    files and sidecars only, and a manifest an older version left is
    neither rewritten nor served as a series."""
    import asyncio
    import os
    import threading

    from repro import server as serving
    from tests.server.util import http_get

    stream = tmp_path / "stream.tsv"
    main(["simulate", "--seed", "6", "--duration", "700", "--qps", "8",
          "-o", str(stream)])
    outdir = tmp_path / "tsv"
    stale = outdir / ".observatory-manifest.json"

    def check(leftover=None):
        names = os.listdir(outdir)
        assert all(name.endswith((".tsv", ".tsv.seg"))
                   for name in names if name != stale.name), names
        if leftover is None:
            assert stale.name not in names
        else:
            assert stale.read_text() == leftover

    assert main(["replay", str(stream), str(outdir), "--datasets",
                 "qtype", "--segments"]) == 0
    check()
    assert main(["aggregate", str(outdir), "--segments"]) == 0
    check()
    leftover = '{"version": 2, "windows": {}}'
    stale.write_text(leftover)
    ready = threading.Event()
    box = {}

    def on_ready(srv):
        box["server"] = srv
        box["loop"] = asyncio.get_running_loop()
        ready.set()

    thread = threading.Thread(target=lambda: serving.run(
        str(outdir), port=0, follow=True, ready_callback=on_ready))
    thread.start()
    try:
        assert ready.wait(10)
        port = box["server"].port
        listing = asyncio.run(http_get(port, "/datasets")).json()
        assert list(listing["datasets"]) == ["qtype"]
        assert asyncio.run(http_get(port, "/topk/qtype")).status == 200
    finally:
        if "loop" in box:
            box["loop"].call_soon_threadsafe(box["server"].begin_shutdown)
        thread.join(10)
    assert not thread.is_alive()
    check(leftover)
    assert main(["run", str(outdir), "--port", "0", "--input", str(stream),
                 "--pace", "0", "--exit-when-done", "--datasets", "qtype",
                 "--segments"]) == 0
    check(leftover)
    capsys.readouterr()
