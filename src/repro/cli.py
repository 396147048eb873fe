"""Command-line interface: ``dns-observatory`` / ``python -m repro``.

Subcommands:

* ``simulate`` -- run a scenario and dump the transaction stream as
  one summary line per transaction (§2.1's text format), replayable
  with ``replay``;
* ``replay``   -- feed a transaction-line file through the Observatory
  and write TSV time series to an output directory;
* ``report``   -- run a scenario end-to-end and print the Big Picture
  report (the paper's headline tables and figures); with
  ``--platform DIR`` instead render the platform-health summary from
  a directory's ``_platform`` telemetry series; with ``--detect DIR
  --labels FILE`` score a directory's ``_detector`` series against
  simulator ground truth (precision / recall / time-to-detection);
* ``aggregate`` -- roll minutely TSV files up the granularity chain
  and apply retention;
* ``compact``  -- build binary columnar sidecar segments
  (``<window>.tsv.seg``) for the TSV windows in a directory and drop
  orphans, so cold queries scan columns instead of re-parsing text;
* ``serve``    -- run the asyncio HTTP query API over an output
  directory (top-k, per-key series, platform-health alerting);
* ``run``      -- live daemon: drive the simulator (or a transaction
  stream on stdin) through the ingest pipeline while serving HTTP
  from the same process, each window pushed to ``/series?follow=``
  long-polls and ``/stream`` SSE subscribers the moment it flushes.
"""

import argparse
import os
import sys

from repro.observatory.pipeline import Observatory, build_pipeline
from repro.observatory.transaction import TransactionLines
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel

_PRESETS = {
    "tiny": Scenario.tiny,
    "small": Scenario.small,
    "medium": Scenario.medium,
}


def _add_scenario_args(parser):
    parser.add_argument("--preset", choices=sorted(_PRESETS),
                        default="tiny", help="scenario size preset")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (overrides preset)")
    parser.add_argument("--qps", type=float, default=None,
                        help="client queries/second (overrides preset)")
    parser.add_argument("--attack", action="append", default=[],
                        metavar="KIND:AT:QPS[:UNTIL]",
                        help="add a labeled attack to the scenario: "
                             "KIND is 'tunnel' or 'watertorture', AT "
                             "the start second, QPS the attack rate, "
                             "UNTIL an optional end second; the victim "
                             "zone is picked deterministically "
                             "(repeatable)")
    parser.add_argument("--encrypted-fraction", type=float, default=None,
                        metavar="F",
                        help="fraction of recursive resolvers on "
                             "encrypted transports (DoH/DoT) in [0, 1]; "
                             "sensors on those paths emit blinded "
                             "size/timing-only observations (default 0: "
                             "all plaintext, byte-identical to a run "
                             "without this flag)")
    parser.add_argument("--doh-share", type=float, default=None,
                        metavar="F",
                        help="among encrypted resolvers, the DoH share "
                             "(rest use DoT; default 0.5)")
    parser.add_argument("--padding-block", type=int, default=None,
                        metavar="BYTES",
                        help="EDNS(0)-padding block size applied to "
                             "blinded response sizes (RFC 8467 "
                             "recommends 468; default 128)")


def _parse_attack(spec):
    from repro.simulation.scenario import TunnelAttack, WaterTorture

    kinds = {"tunnel": TunnelAttack, "watertorture": WaterTorture}
    fields = spec.split(":")
    if not 3 <= len(fields) <= 4 or fields[0] not in kinds:
        raise SystemExit(
            "error: --attack expects KIND:AT:QPS[:UNTIL] with KIND "
            "tunnel|watertorture, got %r" % spec)
    try:
        at, qps = float(fields[1]), float(fields[2])
        until = float(fields[3]) if len(fields) == 4 else None
    except ValueError:
        raise SystemExit("error: bad number in --attack %r" % spec)
    return kinds[fields[0]](at=at, qps=qps, until=until)


def _build_scenario(args):
    overrides = {"seed": args.seed}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.qps is not None:
        overrides["client_qps"] = args.qps
    if getattr(args, "attack", None):
        overrides["scripted_events"] = [
            _parse_attack(spec) for spec in args.attack]
    if getattr(args, "encrypted_fraction", None) is not None:
        overrides["encrypted_fraction"] = args.encrypted_fraction
    if getattr(args, "doh_share", None) is not None:
        overrides["doh_share"] = args.doh_share
    if getattr(args, "padding_block", None) is not None:
        overrides["padding_block"] = args.padding_block
    return _PRESETS[args.preset](**overrides)


def _add_server_args(parser):
    """The serving flags ``serve`` and ``run`` share."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback only: "
                             "without --token the API has no auth, so "
                             "exposing it beyond the host is an "
                             "explicit decision -- front 0.0.0.0 with "
                             "a real proxy)")
    parser.add_argument("--port", type=int, default=8053,
                        help="listen port (0 = pick a free port)")
    parser.add_argument("--stream-threshold", type=int, default=None,
                        metavar="BYTES",
                        help="stream (chunked) /series and /key answers "
                             "whose backing files exceed BYTES (default "
                             "256 KiB); 0 streams everything with a body")
    parser.add_argument("--cache-windows", type=int, default=256,
                        help="parsed windows held in the store LRU cache")
    parser.add_argument("--max-connections", type=int, default=64,
                        help="connection cap; past it requests get "
                             "503 + Retry-After")
    parser.add_argument("--rules", metavar="FILE", default=None,
                        help="alert-rule file for /platform/health "
                             "(default: built-in rules; 'run' appends "
                             "its daemon heartbeat rules either way)")
    parser.add_argument("--token", action="append", default=None,
                        metavar="TOKEN",
                        help="require 'Authorization: Bearer TOKEN' on "
                             "every request; repeatable -- any listed "
                             "token is accepted, anything else gets "
                             "401 (default: no auth, loopback trust)")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="RPS",
                        help="per-client token-bucket rate limit in "
                             "requests/second; a client above it gets "
                             "429 + Retry-After (default: unlimited)")
    parser.add_argument("--rate-burst", type=int, default=None,
                        metavar="N",
                        help="token-bucket burst capacity (default: "
                             "2 x RPS, at least 1)")


def _server_options(args):
    """:func:`_add_server_args` values as ``build_server`` options; a
    flag left at ``None`` is left out (the default is its consumer's)."""
    if args.max_connections < 1:
        raise SystemExit("error: --max-connections must be >= 1")
    options = dict(host=args.host, port=args.port,
                   cache_windows=args.cache_windows,
                   max_connections=args.max_connections,
                   stream_threshold=args.stream_threshold,
                   rules=_load_rules(args.rules), auth_tokens=args.token,
                   rate_limit=args.rate_limit, rate_burst=args.rate_burst)
    return {name: value for name, value in options.items()
            if value is not None}


def _add_ingest_args(parser):
    """The pipeline flags ``replay`` and ``run`` share."""
    parser.add_argument("--datasets", nargs="+",
                        default=["srvip", "qname", "esld", "qtype"])
    parser.add_argument("--k", type=int, default=2000, help="Top-k size")
    parser.add_argument("--window", type=float, default=60.0,
                        help="statistics window seconds (the paper "
                             "dumps every 60 s)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="ingest with N sharded worker processes "
                             "(1 = single-process)")
    parser.add_argument("--transport", choices=["pickle", "binary"],
                        default="pickle",
                        help="shard transport codec (with --shards > 1): "
                             "default-pickle object graphs, or 'binary' "
                             "line-block batches + protocol-5 "
                             "out-of-band sketch buffers")
    parser.add_argument("--segments", action="store_true",
                        help="build a columnar sidecar segment next to "
                             "every TSV window written, so cold queries "
                             "scan binary columns instead of re-parsing "
                             "text")
    parser.add_argument("--detectors", dest="detectors_on", nargs="*",
                        default=None, metavar="NAME",
                        help="run streaming abuse detectors and write a "
                             "_detector TSV per window (bare flag = all: "
                             "exfil ddos noh); 'run' adds detect-* rules "
                             "to /platform/health")
    parser.add_argument("--vantage", metavar="FILE", default=None,
                        help="derive per-ASN (_vantage_asn) and "
                             "per-country (_vantage_cc) reachability / "
                             "time-to-answer index TSVs from every srvip "
                             "window, using the attribution db written "
                             "by 'simulate --vantage-db'")


def _check_ingest_args(args):
    """Validate what :func:`_add_ingest_args` (plus the input stream)
    takes from outside: the exit code of the first problem, else
    None."""
    if args.shards < 1:
        raise SystemExit("error: --shards must be >= 1, got %d" % args.shards)
    if args.input not in (None, "-") and not os.path.isfile(args.input):
        return _missing_input("input stream", args.input)
    if args.vantage is not None and not os.path.isfile(args.vantage):
        return _missing_input("vantage db", args.vantage)
    return None


def _pipeline_options(args):
    """:func:`_add_ingest_args` values as pipeline keyword options."""
    names = args.detectors_on  # bare flag (empty list) = all detectors
    vantage = None
    if args.vantage is not None:
        from repro.analysis.vantage import VantageDb, VantageEmitter

        vantage = VantageEmitter(VantageDb.from_tsv(args.vantage))
    return dict(datasets=[(name, args.k) for name in args.datasets],
                window_seconds=args.window, shards=args.shards,
                transport=args.transport, segments=args.segments,
                detectors=True if names == [] else names, vantage=vantage)


def cmd_simulate(args):
    scenario = _build_scenario(args)
    channel = SieChannel(scenario)
    if args.vantage_db is not None:
        from repro.analysis.vantage import VantageDb

        db = VantageDb.from_topology(channel.dns.topology)
        db.to_tsv(args.vantage_db)
        print("wrote vantage db (%d ASNs) to %s"
              % (len(db), args.vantage_db), file=sys.stderr)
    if args.labels is not None:
        import json

        with open(args.labels, "w", encoding="utf-8") as fh:
            json.dump(channel.attack_labels(), fh, indent=2)
            fh.write("\n")
        print("wrote %d attack label(s) to %s"
              % (len(channel.workload.attacks), args.labels),
              file=sys.stderr)
    out = open(args.output, "w") if args.output != "-" else sys.stdout
    count = 0
    try:
        for txn in channel.run():
            out.write(txn.to_line() + "\n")
            count += 1
    finally:
        if out is not sys.stdout:
            out.close()
    print("simulated %d client queries -> %d transactions "
          "(cache hit ratio %.1f%%)" % (
              channel.client_queries, count,
              100 * channel.cache_hit_ratio()), file=sys.stderr)
    return 0


def cmd_replay(args):
    rc = _check_ingest_args(args)
    if rc is not None:
        return rc
    # The _encrypted channel is always armed: it costs nothing until
    # the first blinded record arrives, and a replay of an encrypted-
    # mix capture must never silently drop the blinded traffic.
    obs = build_pipeline(output_dir=args.output_dir,
                         telemetry=args.telemetry, encrypted=True,
                         **_pipeline_options(args))
    with open(args.input) if args.input != "-" else sys.stdin as fh:
        parsed = TransactionLines(fh)
        obs.consume(parsed)
    obs.finish()
    print("replayed %d transactions into %s%s%s" % (
        obs.total_seen, args.output_dir,
        " (%d shards, %s transport)" % (args.shards, args.transport)
        if args.shards > 1 else "", _report_skipped(parsed)))
    for name, ratio in sorted(obs.capture_ratios().items()):
        print("  %-8s capture %.1f%%" % (name, ratio * 100))
    if args.segments:
        print("  built %d columnar segment(s)" % obs.emitter.segments_built)
    return 0


def _load_rules(path):
    from repro.observatory.alerts import DEFAULT_RULES, parse_rules

    if path is None:
        return list(DEFAULT_RULES)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rules(fh.read())


def cmd_report(args):
    if args.platform:
        return _report_platform(args)
    if args.detect:
        return _report_detect(args)
    if args.blindness:
        return _report_blindness(args)
    from repro.analysis import export as csv_export
    from repro.analysis.asattribution import render_table1, table1
    from repro.analysis.delays import (
        delay_cdf, hierarchy_shares, letter_stats, rank_vs_delay,
        render_figure3)
    from repro.analysis.distributions import figure2, render_figure2
    from repro.analysis.happyeyeballs import figure9, render_figure9
    from repro.analysis.qtypes import render_table2, table2

    scenario = _build_scenario(args)
    channel = SieChannel(scenario)
    obs = Observatory(datasets=[
        ("srvip", 2000), ("qname", 4000), ("esld", 2000), "qtype",
    ])
    obs.consume(channel.run())
    obs.finish()

    distributions = figure2(obs, datasets=("srvip", "qname", "esld"))
    print(render_figure2(distributions))
    topo = channel.dns.topology
    rows, total, _ = table1(obs, topo.asdb, topo.asnames)
    print(render_table1(rows, total))
    print()
    qrows, _ = table2(obs)
    print(render_table2(qrows))
    print()
    root_ips = {ns.hostname.split(".")[0]: ns.ip
                for ns in channel.dns.root.nameservers}
    gtld_ips = {ns.hostname.split(".")[0]: ns.ip
                for ns in channel.dns.root.tlds["com"].nameservers}
    cdf = delay_cdf(obs)
    groups = rank_vs_delay(obs)
    root_stats = letter_stats(obs, root_ips)
    gtld_stats = letter_stats(obs, gtld_ips)
    print(render_figure3(
        cdf, groups, root_stats, gtld_stats,
        hierarchy_shares(obs, root_ips), hierarchy_shares(obs, gtld_ips)))

    def negttl(fqdn):
        zone = channel.dns.find_sld_zone(fqdn)
        return zone.soa_negttl if zone else None

    points = figure9(obs, negttl, top_n=200, horizon=scenario.duration)
    print(render_figure9(points))

    if args.csv_dir:
        csv_export.export_figure2(distributions, args.csv_dir,
                                  max_rank=2000)
        csv_export.export_table1(rows, total, args.csv_dir)
        csv_export.export_table2(qrows, args.csv_dir)
        csv_export.export_figure3(cdf, groups, root_stats, gtld_stats,
                                  args.csv_dir)
        csv_export.export_figure9(points, args.csv_dir)
        print("\nCSV data series written to %s" % args.csv_dir)
    return 0


def _missing_input(what, path):
    """Uniform missing-input contract (the report sub-modes, the
    ingest inputs, ``aggregate`` and ``compact``): a one-line stderr
    message and exit code 2 (argparse's own usage-error code), never
    a traceback.  An *existing* but empty input still renders its
    'nothing found' report with exit 0."""
    print("error: %s not found: %s" % (what, path), file=sys.stderr)
    return 2


def _report_platform(args):
    from repro.analysis.platformhealth import (
        PLATFORM_DATASET, platform_health, render_platform_health)
    from repro.observatory.store import SeriesStore

    if not os.path.isdir(args.platform):
        return _missing_input("--platform directory", args.platform)
    series, verdicts, summary = platform_health(
        SeriesStore(args.platform).read(PLATFORM_DATASET),
        rules=_load_rules(args.rules))
    print(render_platform_health(series, verdicts, summary))
    # scripting contract: nonzero exit when an alert rule is tripping
    return 3 if summary["status"] == "fail" else 0


def _report_detect(args):
    from repro.analysis.detectquality import (
        DETECTOR_DATASET, detect_quality, load_labels, meets_floors,
        render_detect_quality)
    from repro.observatory.store import SeriesStore

    if args.labels is None:
        raise SystemExit("error: --detect requires --labels FILE "
                         "(ground truth from 'simulate --labels')")
    if not os.path.isdir(args.detect):
        return _missing_input("--detect directory", args.detect)
    if not os.path.isfile(args.labels):
        return _missing_input("--labels file", args.labels)
    labels = load_labels(args.labels)
    series, scores = detect_quality(
        SeriesStore(args.detect).read(DETECTOR_DATASET), labels)
    print(render_detect_quality(series, scores))
    # scripting contract: nonzero exit when a quality floor is missed
    return 3 if not meets_floors(scores) else 0


def _report_blindness(args):
    from repro.analysis.blindness import blindness_report, render_blindness

    try:
        summaries, ratios, violations = blindness_report(args.blindness)
    except FileNotFoundError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    print(render_blindness(summaries, ratios, violations))
    # scripting contract: nonzero exit when the sweep is not a
    # monotone blinding of one workload
    return 3 if violations else 0


def cmd_aggregate(args):
    from repro.observatory.aggregate import TimeAggregator

    if not os.path.isdir(args.directory):
        return _missing_input("directory", args.directory)
    aggregator = TimeAggregator(args.directory, segments=args.segments)
    datasets = list(aggregator.store.datasets())
    written = []
    for dataset in datasets:
        written.extend(aggregator.aggregate_directory(dataset))
    print("aggregated %d dataset(s), wrote %d file(s)"
          % (len(datasets), len(written)))
    if args.retention_now is not None:
        deleted = aggregator.apply_retention(args.retention_now,
                                             force=args.retention_force)
        print("retention deleted %d file(s)" % len(deleted))
    return 0


def cmd_compact(args):
    from repro.observatory.aggregate import TimeAggregator

    if not os.path.isdir(args.directory):
        return _missing_input("directory", args.directory)
    aggregator = TimeAggregator(args.directory)
    result = aggregator.compact(dataset=args.dataset,
                                granularity=args.granularity)
    print("compacted %s: built %d segment(s), %d already fresh, "
          "removed %d orphan(s)"
          % (args.directory, len(result["built"]), result["fresh"],
             len(result["removed"])))
    return 0


def cmd_serve(args):
    from repro import server as serving

    def ready(srv):
        print("serving %s on http://%s:%d  "
              "(follow=%s, cache=%d windows, max %d connections)"
              % (args.directory, srv.host, srv.port, args.follow,
                 args.cache_windows, args.max_connections))
        sys.stdout.flush()

    return serving.run(args.directory, ready_callback=ready,
                       follow=args.follow, **_server_options(args))


def _report_skipped(parsed):
    """Say on stderr how many malformed input lines *parsed* (a
    :class:`TransactionLines`) dropped; returns the same count as a
    summary-line suffix (empty when nothing was dropped)."""
    if not parsed.skipped:
        return ""
    print("skipped %d malformed input lines" % parsed.skipped,
          file=sys.stderr)
    return "; skipped %d malformed lines" % parsed.skipped


def cmd_run(args):
    from repro.daemon import LiveDaemon, stdin_lines

    rc = _check_ingest_args(args)
    if rc is not None:
        return rc
    server_options = _server_options(args)
    scenario = None if args.input is not None else _build_scenario(args)
    parsed = TransactionLines(())  # given its lines once there is a stop

    def source(stop):
        if args.input is None:
            return SieChannel(scenario).run()

        def file_lines():
            with open(args.input) as fh:
                for line in fh:
                    if stop.is_set():
                        return
                    yield line

        parsed.lines = stdin_lines(stop) if args.input == "-" \
            else file_lines()
        return parsed

    def ready(srv):
        what = "stdin" if args.input == "-" else (
            args.input or "%s scenario" % args.preset)
        print("live daemon: %s -> %s on http://%s:%d  "
              "(window=%gs, pace=%g, shards=%d)"
              % (what, args.output_dir, srv.host, srv.port,
                 args.window, args.pace, args.shards))
        sys.stdout.flush()

    daemon = LiveDaemon(
        source, args.output_dir, _pipeline_options(args), server_options,
        pace=args.pace, exit_when_done=args.exit_when_done,
        ready_callback=ready)
    rc = daemon.run()
    _report_skipped(parsed)
    return rc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dns-observatory",
        description="DNS Observatory: stream analytics for passive DNS "
                    "(IMC 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario, dump transactions")
    _add_scenario_args(p)
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' = stdout)")
    p.add_argument("--labels", metavar="FILE", default=None,
                   help="write attack ground-truth labels (JSON) for "
                        "'report --detect'")
    p.add_argument("--vantage-db", metavar="FILE", default=None,
                   help="write the scenario's prefix->ASN/country/org "
                        "attribution TSV, consumed by 'replay/run "
                        "--vantage' for the per-ASN and per-country "
                        "vantage indices")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="replay transactions into TSVs")
    p.add_argument("input", help="transaction-line file ('-' = stdin)")
    p.add_argument("output_dir", help="directory for TSV time series")
    _add_ingest_args(p)
    p.add_argument("--telemetry", action="store_true",
                   help="emit platform self-telemetry: one _platform "
                        "TSV row per component per window (sketch "
                        "saturation, gate churn, flush latency, shard "
                        "queue depth)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="simulate and print the Big Picture")
    _add_scenario_args(p)
    p.add_argument("--csv-dir", default=None,
                   help="also export the figure data series as CSV")
    p.add_argument("--platform", metavar="DIR", default=None,
                   help="instead of simulating, render the platform-"
                        "health summary (latest vitals, trends, alert "
                        "verdicts) from DIR's _platform series; exits 3 "
                        "when a rule is failing")
    p.add_argument("--rules", metavar="FILE", default=None,
                   help="alert-rule file for --platform (default: "
                        "built-in capture/gate/liveness/latency rules)")
    p.add_argument("--detect", metavar="DIR", default=None,
                   help="instead of simulating, score DIR's _detector "
                        "series against --labels ground truth "
                        "(precision / recall / time-to-detection); "
                        "exits 3 when a quality floor is missed")
    p.add_argument("--labels", metavar="FILE", default=None,
                   help="attack ground-truth JSON for --detect "
                        "(from 'simulate --labels')")
    p.add_argument("--blindness", metavar="DIR", nargs="+",
                   default=None,
                   help="instead of simulating, quantify sensor "
                        "blindness across an encrypted-fraction sweep "
                        "of replay directories (first DIR = baseline): "
                        "per-dataset capture ratios vs baseline, gated "
                        "on monotone degradation; exits 3 on a "
                        "monotonicity violation")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("aggregate", help="roll up TSV files + retention")
    p.add_argument("directory")
    p.add_argument("--retention-now", type=float, default=None,
                   help="apply retention as of this timestamp")
    p.add_argument("--retention-force", action="store_true",
                   help="delete expired files even when no coarser "
                        "file covers them yet (default: only delete "
                        "rolled-up data)")
    p.add_argument("--segments", action="store_true",
                   help="write a columnar sidecar segment next to "
                        "every coarse window this pass writes")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("compact",
                       help="build columnar sidecar segments for a "
                            "TSV directory")
    p.add_argument("directory", help="replay/aggregate output directory")
    p.add_argument("--dataset", default=None,
                   help="only compact this dataset")
    p.add_argument("--granularity", default=None,
                   help="only compact this granularity "
                        "(minutely, decaminutely, hourly, ...)")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("serve", help="HTTP query API over TSV series")
    p.add_argument("directory", help="replay/aggregate output directory")
    p.add_argument("--follow", action="store_true",
                   help="re-scan the directory per query so windows "
                        "flushed by a live replay/aggregate writer "
                        "become visible immediately")
    _add_server_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("run", help="live daemon: ingest + HTTP API in "
                                   "one process")
    _add_scenario_args(p)
    p.add_argument("output_dir", help="directory for TSV time series "
                                      "(also the serving root)")
    p.add_argument("--input", default=None, metavar="FILE",
                   help="ingest a transaction-line file ('-' = stdin, "
                        "an SIE-style pipe) instead of the simulator")
    _add_ingest_args(p)
    p.add_argument("--pace", type=float, default=1.0, metavar="SPEED",
                   help="map stream time onto wall time at SPEED x "
                        "(1 = real time, 10 = 10x compressed; 0 = "
                        "ingest as fast as possible)")
    p.add_argument("--exit-when-done", action="store_true",
                   help="exit once the input stream is exhausted "
                        "instead of continuing to serve")
    _add_server_args(p)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
