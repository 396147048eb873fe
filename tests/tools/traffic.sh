#!/usr/bin/env bash
# The program's traffic, defined once: every CLI subcommand with every
# flag group the CI smokes and README use, the paper benches, the three
# --check scripts, the perf ledger and the examples.  tests/ is not
# traffic.  tests/tools/unreached.py runs this under its profile hook
# and reports every function in src/repro that nothing here reaches.
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
    --attack tunnel:180:20 --attack watertorture:180:25:400 \
    -o "$W/attacks.tsv" --labels "$W/labels.json"
$R simulate --preset tiny --seed 2019 --duration 240 --qps 25 \
    --encrypted-fraction 0 -o "$W/enc0.tsv"
# tiny has few resolvers: below 0.5 none is blinded and the whole
# _encrypted path looks dead
$R simulate --preset tiny --seed 2019 --duration 240 --qps 25 \
    --encrypted-fraction 0.5 --doh-share 0.7 --padding-block 468 \
    -o "$W/enc50.tsv"
$R simulate --preset tiny --duration 30 --qps 10 > /dev/null

# -- replay: single, both sharded transports, stdin -------------------
FULL="--segments --telemetry --detectors --vantage $W/vantage.tsv"
$R replay "$W/stream.tsv" "$W/single" $FULL
$R replay "$W/stream.tsv" "$W/pickle" --shards 2 $FULL
$R replay "$W/stream.tsv" "$W/binary" --shards 2 --transport binary $FULL
$R replay "$W/attacks.tsv" "$W/attacked" --detectors exfil ddos noh \
    --datasets srvip esld --k 500 --window 60
$R replay "$W/enc0.tsv" "$W/enc-out-0" --vantage "$W/vantage.tsv"
$R replay - "$W/enc-out-50" --shards 2 < "$W/enc50.tsv"
# every dataset key README's module table lists
$R replay "$W/enc0.tsv" "$W/all-keys" --k 300 \
    --datasets srvip qname esld etld qtype rcode aafqdn srcsrv

# -- aggregate (660 s: a decaminutely roll-up is written), compact ----
cp -r "$W/single" "$W/plain"
$R aggregate "$W/single" --segments --retention-now 1e9
$R aggregate "$W/pickle" --retention-now 1e9 --retention-force
$R compact "$W/plain"
$R compact "$W/plain" --dataset srvip --granularity minutely
no2 $R aggregate "$W/no-such-tree"
no2 $R compact "$W/no-such-tree"
# many short windows: the fold, roll-up sidecars and retention at depth
$R replay "$W/stream.tsv" "$W/short" --window 2 --datasets srvip qtype \
    --segments --telemetry --detectors
$R aggregate "$W/short" --segments --retention-now 1e9

# -- report: all four modes --------------------------------------------
$R report --preset tiny --duration 180 --csv-dir "$W/csv" > /dev/null
printf 'latency: flush.flush_mean_ms > 100000\n' > "$W/rules.txt"
ok3 $R report --platform "$W/binary"
ok3 $R report --platform "$W/binary" --rules "$W/rules.txt"
ok3 $R report --detect "$W/attacked" --labels "$W/labels.json"
ok3 $R report --blindness "$W/enc-out-0" "$W/enc-out-50"

# -- serve: every route, 304/404/SSE/long-poll, auth, rate limit ------
$R serve "$W/binary" --port 18053 --follow --token t0k --rate-limit 5 \
    --rate-burst 60 --stream-threshold 0 --rules "$W/rules.txt" &
SERVE=$!
$R serve "$W/enc-out-0" --port 18054 --cache-windows 8 &
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

_, _, body = expect(200, 18053, "/datasets")
assert "srvip" in json.loads(body)["datasets"]
_, headers, body = expect(200, 18053, "/topk/srvip?n=5&by=hits")
key = json.loads(body)["top"][0]["key"]
expect(304, 18053, "/topk/srvip?n=5&by=hits",
       headers={"If-None-Match": headers["ETag"]})
expect(200, 18053, "/topk/srvip?n=5", headers={"Accept-Encoding": "gzip"})
expect(200, 18053, "/topk/windows/srvip?n=3&by=hits&start=0&end=3600")
expect(200, 18053, "/topk/windows/_detector?n=5&by=flagged")
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
expect(401, 18053, "/datasets", headers={"Authorization": "Bearer no"})
expect(200, 18053, "/vantage")
expect(200, 18053, "/vantage/cc?n=10&by=reach")
expect(404, 18053, "/vantage/continent")
expect(200, 18053, "/platform/health")
expect(200, 18053, "/series/srvip?follow=&timeout=0.5")   # long-poll
expect(200, 18053, "/series/srvip?follow=0&timeout=1")
expect(200, 18053, "/stream/srvip?cursor=0", raw=True)     # SSE
expect(200, 18053, "/stream/srvip", raw=True,
       headers={"Last-Event-ID": "0"})
assert 429 in {get(18053, "/datasets")[0] for _ in range(120)}
expect(200, 18054, "/datasets", headers={"Authorization": ""})
expect(200, 18054, "/topk/srvip")
expect(200, 18054, "/series/srvip")
expect(200, 18054, "/vantage")
expect(200, 18054, "/platform/health")
EOF
kill -TERM $SERVE $PLAIN
wait $SERVE $PLAIN

# -- run: simulator, file, stdin ---------------------------------------
$R run "$W/live-sim" --preset tiny --duration 40 --qps 60 --window 5 \
    --pace 8 --port 18055 --detectors --attack watertorture:10:60 \
    --segments --exit-when-done &
RUN=$!
python - <<'EOF'
import json, time, urllib.request
for _ in range(100):
    try:
        with urllib.request.urlopen(
                "http://127.0.0.1:18055/series/srvip?follow=&timeout=10",
                timeout=20) as resp:
            assert json.load(resp)["windows"]
        with urllib.request.urlopen(
                "http://127.0.0.1:18055/stream/srvip", timeout=20) as resp:
            assert resp.read(200)
        with urllib.request.urlopen(
                "http://127.0.0.1:18055/platform/health", timeout=20) as resp:
            assert json.load(resp)["daemon"]["running"]
        break
    except OSError:
        time.sleep(0.2)
else:
    raise SystemExit("daemon never came up")
EOF
wait $RUN
$R run "$W/live-file" --input "$W/enc50.tsv" --pace 0 --port 18056 \
    --shards 2 --transport binary --vantage "$W/vantage.tsv" \
    --exit-when-done
head -2000 "$W/stream.tsv" | $R run "$W/live-stdin" --input - --pace 0 \
    --port 18057 --exit-when-done

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
