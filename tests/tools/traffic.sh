#!/usr/bin/env bash
# The program's traffic, defined once: every CLI subcommand with every
# flag group the CI smokes and README use (with the compact and
# live-detection assertions), the paper benches, the three --check
# scripts, the perf ledger and the examples.  tests/ is not traffic.
# tests/tools/unreached.py runs this under its profile hook and reports
# every function in src/repro that nothing here reaches, every
# defaulted parameter and every CLI flag that nothing here sets.
#
#   usage: traffic.sh WORKDIR      (run from the repository root)
set -eu
W=$(mkdir -p "$1" && cd "$1" && pwd)
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
R="python -m repro"
ok3() { "$@" || [ $? -eq 3 ]; }   # report modes exit 3 on a failing verdict
no2() { if "$@"; then return 1; else [ $? -eq 2 ]; fi; }   # missing input: exit 2
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# -- simulate ---------------------------------------------------------
$R simulate --preset tiny --duration 660 --qps 25 -o "$W/stream.tsv" \
    --vantage-db "$W/vantage.tsv"
$R simulate --preset tiny --seed 2019 --duration 480 --qps 30 \
    --attack tunnel:180:20 --attack watertorture:180:25 \
    -o "$W/attacks.tsv" --labels "$W/labels.json"
$R simulate --preset tiny --seed 2019 --duration 240 --qps 25 \
    --encrypted-fraction 0 -o "$W/enc0.tsv"
# tiny has few resolvers: below 0.5 none is blinded and the whole
# _encrypted path looks dead
$R simulate --preset tiny --seed 2019 --duration 240 --qps 25 \
    --encrypted-fraction 0.5 --doh-share 0.7 --padding-block 468 \
    -o "$W/enc50.tsv"
$R simulate --preset tiny --seed 7 --duration 30 --qps 10 \
    --attack tunnel:5:5:20 > /dev/null

# -- replay: single, sharded (one tree aggregated, one served), stdin --
FULL="--segments --telemetry --detectors --vantage $W/vantage.tsv"
$R replay "$W/stream.tsv" "$W/single" $FULL
$R replay "$W/stream.tsv" "$W/sharded" --shards 2 $FULL
# each worker owns whole channels: the single tree, #stats included
diff -r -x '_platform*' -x '*.seg' "$W/single" "$W/sharded"
# forced retention below prunes this copy; the sharded tree stays whole
# for report --platform and serve
cp -r "$W/sharded" "$W/sharded-retained"
$R replay "$W/attacks.tsv" "$W/attacked" --detectors exfil ddos noh \
    --datasets srvip esld --k 500 --window 60
$R replay "$W/enc0.tsv" "$W/enc-out-0" --vantage "$W/vantage.tsv"
$R replay - "$W/enc-out-50" --shards 2 < "$W/enc50.tsv"
# every dataset key README's module table lists
$R replay "$W/enc0.tsv" "$W/all-keys" --k 300 \
    --datasets srvip qname esld etld qtype rcode aafqdn srcsrv

# -- compact, aggregate (660 s: a decaminutely roll-up is written) ----
# plain: the single tree's TSVs, with the compactor's sidecars in place
# of the ones the emitter packed from memory
mkdir "$W/plain"
cp "$W/single"/*.tsv "$W/plain"
$R compact "$W/plain"
$R compact "$W/plain"   # the second pass finds every sidecar current
$R compact "$W/plain" --dataset srvip --granularity minutely
python - "$W/single" "$W/plain" <<'EOF'
import os, sys
from repro.observatory.segments import read_segment
from repro.observatory.store import SeriesStore

memory, compacted = sys.argv[1:]
seg = SeriesStore(compacted, cache_windows=0)
tsv = SeriesStore(compacted, cache_windows=0, use_segments=False)
for dataset in ("srvip", "qname", "qtype"):
    assert seg.accumulate(dataset) == tsv.accumulate(dataset), dataset
    assert seg.topk(dataset, n=10) == tsv.topk(dataset, n=10), dataset
assert seg.segment_reads > 0 and seg.parses == 0, \
    (seg.segment_reads, seg.parses)

def typed(window):
    return (window.dataset, window.granularity, window.start_ts,
            window.columns, window.keys, window.stats,
            [[(type(cell), cell) for cell in cells]
             for cells in window.values])

# the sidecars the emitter packed from memory equal the compactor's,
# column by column, types included
names = sorted(name for name in os.listdir(memory) if name.endswith(".seg"))
assert names and names == sorted(
    name for name in os.listdir(compacted) if name.endswith(".seg")), names
for name in names:
    assert typed(read_segment(os.path.join(memory, name))) == \
        typed(read_segment(os.path.join(compacted, name))), name
EOF
# a window file edited outside the program: its text cells in numeric
# columns fold as missing, and a top-k over them still answers
mkdir "$W/edited"
cp "$W/single"/srvip.minutely.*.tsv "$W/edited"
python - "$W/edited" <<'EOF'
import os, sys
from repro.observatory.store import SeriesStore

path = os.path.join(sys.argv[1], sorted(os.listdir(sys.argv[1]))[1])
with open(path) as fh:
    lines = fh.read().split("\n")
header, cells = lines[0].split("\t"), lines[1].split("\t")
cells[header.index("hits")], cells[header.index("ok")] = "inf", "n/a"
lines[1] = "\t".join(cells)
with open(path, "w") as fh:
    fh.write("\n".join(lines))
store = SeriesStore(sys.argv[1])
for by in ("hits", "ok", "srvips"):
    assert store.topk("srvip", n=5, by=by), by
assert store.cache_info()["text_cells"] >= 3, store.cache_info()
EOF
# no retention: plain keeps its minutely windows under the roll-ups
$R aggregate "$W/plain"
$R aggregate "$W/single" --segments --retention-now 1e9
$R aggregate "$W/sharded-retained" --retention-now 1e9 --retention-force
no2 $R aggregate "$W/no-such-tree"
no2 $R compact "$W/no-such-tree"
# many short windows: the fold, roll-up sidecars and retention at depth
$R replay "$W/stream.tsv" "$W/short" --window 2 --datasets srvip qtype \
    --segments --telemetry --detectors
$R aggregate "$W/short" --segments --retention-now 1e9

# -- report: all four modes --------------------------------------------
$R report --preset tiny --duration 180 --csv-dir "$W/csv" > /dev/null
printf 'latency: flush.flush_mean_ms > 100000\n' > "$W/rules.txt"
ok3 $R report --platform "$W/sharded"
ok3 $R report --platform "$W/sharded" --rules "$W/rules.txt"
$R report --detect "$W/attacked" --labels "$W/labels.json"   # floors met
ok3 $R report --blindness "$W/enc-out-0" "$W/enc-out-50"

# -- serve: every route, 304/404/SSE/long-poll, auth, rate limit ------
$R serve "$W/sharded" --port 18053 --follow --token t0k --rate-limit 5 \
    --rate-burst 60 --stream-threshold 0 --rules "$W/rules.txt" &
SERVE=$!
$R serve "$W/plain" --port 18054 --cache-windows 8 &
PLAIN=$!
python - <<'EOF'
import json, time, urllib.error, urllib.request

def get(port, path, headers=None, tries=100, raw=False):
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path),
        headers=dict({"Authorization": "Bearer t0k"}, **(headers or {})))
    for _ in range(tries):
        try:
            with urllib.request.urlopen(request, timeout=20) as resp:
                body = resp.read(400) if raw else resp.read()
                return resp.status, dict(resp.headers), body
        except urllib.error.HTTPError as err:
            return err.code, dict(err.headers), err.read()
        except OSError:
            time.sleep(0.2)
    raise SystemExit("no server on port %d" % port)

def expect(status, port, path, **kw):
    got = get(port, path, **kw)
    assert got[0] == status, (path, got[0], got[2][:200])
    return got

def sse_equals_series(port):
    """The first SSE window event's data is that window's /series
    entry, byte for byte."""
    request = urllib.request.Request(
        "http://127.0.0.1:%d/stream/srvip?cursor=-1" % port,
        headers={"Authorization": "Bearer t0k"})
    with urllib.request.urlopen(request, timeout=20) as resp:
        for line in resp:
            if line.startswith(b"id: "):
                start = int(line[4:])
            elif line.startswith(b"data: "):
                data = line[6:].rstrip(b"\n")
                break
    _, _, body = expect(200, port, "/series/srvip?start=%d&end=%d"
                        % (start, start + 60))
    assert body.endswith(b"[" + data + b"]}\n"), (port, start)

def reuses(port):
    _, _, body = expect(200, port, "/platform/health")
    return json.loads(body)["server"]["window_reuses"]

_, _, body = expect(200, 18053, "/datasets")
assert "srvip" in json.loads(body)["datasets"]
_, headers, body = expect(200, 18053, "/topk/srvip?n=5&by=hits")
key = json.loads(body)["top"][0]["key"]
expect(304, 18053, "/topk/srvip?n=5&by=hits",
       headers={"If-None-Match": headers["ETag"]})
expect(200, 18053, "/topk/srvip?n=5", headers={"Accept-Encoding": "gzip"})
expect(200, 18053, "/topk/windows/srvip?n=3&by=hits&start=0&end=3600")
expect(200, 18053, "/topk/windows/_detector?n=5&by=flagged")
expect(200, 18053, "/topk/srvip?by=delay_q50&start=0&end=600")
expect(200, 18053, "/topk/srvip?by=ttl_top1")
expect(400, 18053, "/topk/srvip?by=nosuch")
expect(400, 18053, "/topk/windows/srvip?by=nosuch")
expect(200, 18053, "/series/qtype?limit=4")
expect(200, 18053, "/series/qname?limit=2&cursor=0",
       headers={"Accept-Encoding": "gzip"})
expect(200, 18053, "/series/srvip?granularity=minutely&start=0&end=600")
expect(200, 18053, "/key/srvip/%s?column=delay_q50" % key)
expect(200, 18053, "/key/srvip/%s?limit=100&cursor=-1" % key)
expect(404, 18053, "/key/srvip/no-such-key")
expect(404, 18053, "/series/nosuch")
expect(404, 18053, "/nosuch")
expect(400, 18053, "/topk/srvip?n=zero")
expect(400, 18053, "/series/srvip?granularity=weekly")
_, headers, _ = expect(401, 18053, "/datasets",
                       headers={"Authorization": "Bearer no"})
assert any(k.lower() == "www-authenticate" for k in headers), headers
_, _, body = expect(200, 18053, "/vantage")
groups = json.loads(body)["groups"]
assert set(groups) == {"asn", "cc"} and groups["asn"]["entries"], groups
expect(200, 18053, "/vantage/cc?n=10&by=reach")
expect(404, 18053, "/vantage/continent")
expect(200, 18053, "/platform/health")
expect(200, 18053, "/series/srvip?follow=&timeout=0.5")   # long-poll
expect(200, 18053, "/series/srvip?follow=0&timeout=1")
expect(200, 18053, "/stream/srvip?cursor=0", raw=True)     # SSE
expect(200, 18053, "/stream/srvip", raw=True,
       headers={"Last-Event-ID": "0"})
# one rendered text per window: SSE and a streamed /series send the
# same bytes, and a repeated /series serves the texts it rendered
sse_equals_series(18053)
before = reuses(18053)
expect(200, 18053, "/series/qtype?limit=4")
assert reuses(18053) > before, before
throttled = [headers for status, headers, _ in
             (get(18053, "/datasets") for _ in range(120)) if status == 429]
assert throttled and all(any(k.lower() == "retry-after" for k in headers)
                         for headers in throttled), throttled[:1]
expect(200, 18054, "/datasets", headers={"Authorization": ""})
expect(200, 18054, "/topk/srvip")
expect(200, 18054, "/series/srvip")
# past the 8-window LRU: the window is parsed and rendered again
sse_equals_series(18054)
expect(200, 18054, "/vantage")
expect(200, 18054, "/platform/health")
# the roll-ups, by granularity and time range
_, _, body = expect(200, 18054, "/topk/srvip?n=1&granularity=decaminutely"
                    "&start=0&end=3600")
coarse = json.loads(body)["top"][0]["key"]
expect(200, 18054, "/topk/windows/srvip?n=2&granularity=decaminutely")
expect(200, 18054, "/key/srvip/%s?granularity=decaminutely&start=0&end=3600"
       % coarse)
EOF
kill -TERM $SERVE $PLAIN
wait $SERVE $PLAIN

# -- run: simulator, file, stdin ---------------------------------------
# a parked follow= long-poll gets a window, SSE sends one, and
# /platform/health shows the daemon running with the broker open
live_checks() {
    python - "$1" <<'EOF'
import json, sys, time, urllib.request
base = "http://127.0.0.1:%s" % sys.argv[1]
for _ in range(100):
    try:
        with urllib.request.urlopen(
                base + "/series/srvip?follow=&timeout=10", timeout=20) as resp:
            doc = json.load(resp)
        break
    except OSError:
        time.sleep(0.2)
else:
    raise SystemExit("daemon never came up")
assert doc["windows"] and doc["timed_out"] is False, doc
with urllib.request.urlopen(base + "/stream/srvip", timeout=20) as resp:
    assert resp.read(200)
with urllib.request.urlopen(base + "/platform/health", timeout=20) as resp:
    health = json.load(resp)
assert health["daemon"]["running"], health
assert health["daemon"]["windows_flushed"] >= 1, health
assert health["broker"]["closed"] == 0, health
EOF
}
$R run "$W/live-sim" --preset tiny --duration 40 --qps 60 --window 5 \
    --pace 8 --port 18055 --detectors --attack watertorture:10:60 \
    --segments --exit-when-done &
RUN=$!
live_checks 18055
wait $RUN
$R run "$W/live-file" --input "$W/enc50.tsv" --pace 0 --port 18056 \
    --shards 2 --vantage "$W/vantage.tsv" \
    --exit-when-done
# the encrypted mix and the vantage index both reach the tree
for dataset in _encrypted _vantage_asn _vantage_cc; do
    ls "$W/live-file/$dataset".minutely.*.tsv > /dev/null
done
# a live water-torture flood trips detect-ddos in /platform/health: two
# quiet warm-up windows, then ~600 distinct names a window (floor 400)
$R run "$W/live-detect" --preset tiny --duration 120 --qps 30 --window 10 \
    --pace 4 --port 18058 --datasets srvip --detectors \
    --attack watertorture:30:60:110 &
RUN=$!
python - <<'EOF'
import json, time, urllib.request
verdicts = {}
deadline = time.monotonic() + 120.0
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(
                "http://127.0.0.1:18058/platform/health", timeout=20) as resp:
            health = json.load(resp)
    except OSError:
        time.sleep(0.2)
        continue
    verdicts = {v["rule"]: v["status"] for v in health["verdicts"]}
    assert "detect-ddos" in verdicts, sorted(verdicts)
    if verdicts["detect-ddos"] == "fail":
        break
    time.sleep(0.5)
else:
    raise SystemExit("detect-ddos never fired: %s" % verdicts)
EOF
kill -TERM $RUN
wait $RUN
ls "$W/live-detect"/_detector.minutely.*.tsv > /dev/null
# SIGTERM mid-stream: the daemon cuts the open window and exits 0
head -2000 "$W/stream.tsv" | $R run "$W/live-stdin" --input - --window 5 \
    --pace 8 --port 18057 &
RUN=$!
live_checks 18057
kill -TERM $RUN
wait $RUN
ls "$W/live-stdin"/srvip.minutely.*.tsv > /dev/null

# -- paper benches (timed calls escape sys.setprofile: disable them) --
# The telemetry/detector overhead tests read benchmark.stats and gate a
# timing ratio; both mean nothing under --benchmark-disable and a
# profile hook, and the --check scripts below drive the same code.
python -m pytest -q benchmarks/ --ignore=benchmarks/ledger --benchmark-disable \
    -p no:cacheprovider -k "not ingest_rate and not overhead_within_bound"
gate() { "$@" || echo "traffic: '$*' exit $? (a timing gate, not judged here)"; }
gate python benchmarks/bench_telemetry_overhead.py --check
gate python benchmarks/bench_detect.py --check
gate python benchmarks/bench_serve.py --check

# -- the perf ledger ----------------------------------------------------
python3 benchmarks/ledger/run.py --smoke
python3 benchmarks/ledger/run.py --trace 1 --seed 1
python -m pytest -q benchmarks/ledger/test_ledger.py -p no:cacheprovider

# -- examples -----------------------------------------------------------
for example in examples/*.py; do
    python "$example" > /dev/null
done
