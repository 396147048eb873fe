"""Child-side passes for the two jobs that have no CLI.

Run as ``python child_pass.py wire PACKETS OUT WINDOW`` or ``python
child_pass.py sharded LINES OUT WINDOW``: a fresh interpreter per pass (noise
rule 1), configured exactly as ``repro.cli replay`` configures its
pipeline, printing one JSON object when done.  The timed bracket holds
only the program's own calls; loading inputs and writing the check
files sit outside it.
"""

import json
import os
import pickle
import resource
import sys
import time

from repro.observatory.aggregate import TimeAggregator
from repro.observatory.pipeline import Observatory
from repro.observatory.preprocess import summarize_batch
from repro.observatory.transaction import Transaction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from corpus import dns_facts  # noqa: E402
from harness import DATASETS, TOPK  # noqa: E402


def pipeline_options(out, window):
    return dict(datasets=[(name, TOPK) for name in DATASETS],
                output_dir=out, window_seconds=window, telemetry=True,
                detectors=True, encrypted=True)


def wire_pass(packets_path, out, window):
    """wire bytes -> summaries -> windows -> TSV -> segments."""
    with open(packets_path, "rb") as fh:
        records = pickle.load(fh)  # written by this benchmark's set-up
    skipped = []
    started = time.perf_counter_ns()
    txns = summarize_batch(
        records, on_error=lambda record, exc: skipped.append(record))
    obs = Observatory(**pipeline_options(out, window))
    obs.consume(txns)
    obs.finish()
    built = TimeAggregator(out).compact()
    ended = time.perf_counter_ns()
    with open(os.path.join(out, "parsed.facts"), "w",
              encoding="utf-8") as fh:
        for txn in txns:
            fh.write(dns_facts(txn))
            fh.write("\n")
    return {"wall_s": (ended - started) / 1e9, "parsed": len(txns),
            "skipped": len(skipped), "seen": obs.total_seen,
            "segments": len(built["built"])}


def sharded_pass(lines_path, out, window):
    """The ``replay --shards 2`` job driven in process, so coordinator
    and worker CPU can be told apart (``RUSAGE_SELF`` against
    ``RUSAGE_CHILDREN``, whose workers ``finish()`` has joined)."""
    from repro.observatory.sharded import ShardedObservatory

    def cpu(who):
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    self0, kids0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter_ns()
    obs = ShardedObservatory(shards=2, transport="pickle",
                             **pipeline_options(out, window))
    with open(lines_path, encoding="utf-8") as fh:
        obs.consume(Transaction.from_line(line)
                    for line in fh if line.strip())
    obs.finish()
    TimeAggregator(out).compact()
    ended = time.perf_counter_ns()
    return {"wall_s": (ended - started) / 1e9, "seen": obs.total_seen,
            "coordinator_cpu_s": cpu(resource.RUSAGE_SELF) - self0,
            "worker_cpu_s": cpu(resource.RUSAGE_CHILDREN) - kids0}


if __name__ == "__main__":
    job = {"wire": wire_pass, "sharded": sharded_pass}[sys.argv[1]]
    print(json.dumps(job(sys.argv[2], sys.argv[3], float(sys.argv[4]))))
