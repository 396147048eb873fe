#!/usr/bin/env python3
"""The perf ledger: four workloads, eight end-to-end metrics, a traced
per-layer run.  See README.md next to this file.

    python benchmarks/ledger/run.py                     # all four workloads
    python benchmarks/ledger/run.py --workload live_flush --seed 7
    python benchmarks/ledger/run.py --trace             # per-layer run
    python benchmarks/ledger/run.py --smoke             # 1/10 size + asserts
    python benchmarks/ledger/run.py --compare A.json B.json

The benchmark driver calls ``run.py --workload W --seed N --seconds S
--trace 0|1`` and reads the last line of standard output: one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: ``run_seconds`` of BENCHMARK.json: what ``live_flush`` streams for
RUN_SECONDS = 32
TRACE_FILE = "trace.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one of the four workloads (default: all, "
                             "each in its own runner process)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="passed by the benchmark driver; the work "
                             "lists are fixed, so it changes nothing")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: the traced per-layer run instead of the "
                             "end-to-end one (writes %s)" % TRACE_FILE)
    parser.add_argument("--smoke", action="store_true",
                        help="whole suite at 1/10 size, asserting schema, "
                             "the sparse table and the checks")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this invocation's results to FILE "
                             "(the input of --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def emit(workload, metrics, units, ledger, contract=None):
    """Every metric as ``workload/metric value unit``, then the driver's
    JSON object as the last line.  *metrics* are the workload's own
    pairs; *contract*, when given, is the same row widened to every
    end-to-end name (``workloads.contract_row``), which only the last
    line carries."""
    for key, value in sorted(ledger.info.items()):
        print("# %s/%s: %s" % (workload, key, json.dumps(value)))
    for failure in ledger.failures:
        print("# FAILED %s: %s" % (workload, failure))
    for name, value in metrics.items():
        print("%s/%s %s %s" % (workload, name,
                               "null" if value is None else repr(value),
                               units[name]))
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in (contract or metrics).items()},
    }
    print(json.dumps(result))
    return result


def run_one(args):
    """One workload (or the traced run) in this process."""
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("error: --workload must be one of %s"
                         % ", ".join(workloads.WORKLOADS))
    harness.install_cleanup()
    ledger = harness.Ledger()
    ledger.info["nproc"] = harness.NPROC
    ledger.info["calibration_loops_per_s"] = \
        harness.calibration_loops_per_s()
    started = time.perf_counter()
    workdir = harness.make_workdir()
    run = workloads.Run(args.seed, args.scale, workdir, ledger)
    contract = None
    try:
        if args.trace:
            import layers
            metrics = layers.run_traced(run, TRACE_FILE)
            units = layers.UNITS
        else:
            metrics = workloads.run_workload(args.workload, run)
            contract = workloads.contract_row(args.workload, metrics)
            units = {name: unit for name, (unit, _)
                     in workloads.END_TO_END.items()}
    except harness.PhaseFailed as exc:
        ledger.fail("phase failed: %s" % exc)
        emit(args.workload, {}, {}, ledger)
        return 1
    finally:
        harness.kill_all()
        harness.remove_workdir(workdir)
    ledger.info["run_wall_s"] = time.perf_counter() - started
    result = emit(args.workload, metrics, units, ledger, contract)
    if args.out:
        append_result(args.out, {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "info": ledger.info, **result,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}})
    return 0 if result["correct"] else 1


def append_result(path, record):
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")


def run_all(args, extra=()):
    """Each workload in its own runner process (noise rule 6: a
    ``ru_maxrss`` high-water mark must not leak into the next one).
    Returns ``{workload: (result or None, printed)}`` where *printed*
    is ``{metric: unit}`` of the ``workload/metric value unit`` lines."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed), *extra]
        if args.out:
            argv += ["--out", args.out]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if proc.returncode != 0 and result is not None:
            result["correct"] = False
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and parts[0].startswith(workload + "/"):
                printed[parts[0].split("/", 1)[1]] = parts[2]
        results[workload] = (result, printed)
    return results


def summarize(results):
    """The all-workloads invocation's own last line: the same four
    keys, the metrics being the ledger's pairs as ``workload/metric``."""
    done = {w: r for w, (r, _) in results.items() if r is not None}
    summary = {
        "correct": len(done) == len(results)
        and all(r["correct"] for r in done.values()),
        "attempted": max(1, sum(r["attempted"] for r in done.values())),
        "failed": sum(r["failed"] for r in done.values())
        + (len(results) - len(done)),
        "metrics": {"%s/%s" % (workload, name): r["metrics"][name]
                    for workload, r in done.items()
                    for name in results[workload][1]
                    if name in r["metrics"]},
    }
    print(json.dumps(summary))
    return summary


def check_spec(spec):
    """BENCHMARK.json against the ledger's own tables."""
    import layers
    from workloads import END_TO_END, LIVE_SECONDS, REPORTED_ON

    problems = []
    if not spec["run_seconds"] == RUN_SECONDS == LIVE_SECONDS:
        problems.append("BENCHMARK.json run_seconds differs from the "
                        "live_flush stream length")
    if [w["name"] for w in spec["workloads"]] != list(REPORTED_ON):
        problems.append("BENCHMARK.json workloads differ from the ledger")
    for entry in spec["workloads"]:
        # the schema has no per-metric workload list; each workload's
        # ``why`` ends with the pairs it reports instead
        listed = entry["why"].rsplit("reports: ", 1)[-1].split(", ")
        if tuple(listed) != REPORTED_ON.get(entry["name"]):
            problems.append("BENCHMARK.json %s: 'reports:' list differs "
                            "from the sparse table" % entry["name"])
    if {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
            != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the ledger")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layers.UNITS:
        problems.append("BENCHMARK.json per_layer differs from the ledger")
    return problems


def smoke(args):
    """The whole suite at 1/10 size, asserting what the full run
    promises: schema, names, the sparse workload x metric table, the
    full row in the driver's last line, and the output checks."""
    from workloads import END_TO_END, REPORTED_ON

    results = run_all(args, extra=("--scale", "0.1"))
    name_ok = re.compile(r"^[A-Za-z0-9_.-]+$")
    problems = []
    for workload, (result, printed) in results.items():
        if result is None:
            problems.append("%s: no result line" % workload)
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: result keys %s" % (workload,
                                                    sorted(result)))
        if not result["correct"] or result["failed"]:
            problems.append("%s: %d failed operations"
                            % (workload, result["failed"]))
        if set(printed) != set(REPORTED_ON[workload]):
            problems.append("%s: reported pairs %s differ from the sparse "
                            "table" % (workload, sorted(printed)))
        if set(result["metrics"]) != set(END_TO_END):
            problems.append("%s: result line lacks %s" % (
                workload, sorted(set(result["metrics"]) ^ set(END_TO_END))))
        for name, entry in result["metrics"].items():
            if not name_ok.match(name):
                problems.append("%s: bad metric name %r" % (workload, name))
            value = entry.get("value")
            if not isinstance(value, (int, float)) or not value > 0:
                problems.append("%s/%s: value %r" % (workload, name, value))
            if name in END_TO_END and entry.get("unit") != \
                    END_TO_END[name][0]:
                problems.append("%s/%s: unit %r" % (workload, name,
                                                    entry.get("unit")))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        problems += check_spec(json.load(fh))
    for problem in problems:
        print("# SMOKE FAILED %s" % problem)
    print("# smoke: %s" % ("ok" if not problems else "FAILED"))
    summarize(results)
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # the benchmark measures the program in this checkout; without
        # it there is nothing to run and no result to print
        print("error: %s not found: run from a checkout of the "
              "repository" % os.path.join(SRC, "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1])
    if args.smoke:
        return smoke(args)
    if args.workload is not None:
        return run_one(args)
    if args.trace:
        args.workload = "wire_to_tsv"  # the traced run is one job
        return run_one(args)
    summary = summarize(run_all(args))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
