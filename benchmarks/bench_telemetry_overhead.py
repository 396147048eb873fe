"""Telemetry overhead: the self-monitoring must not tax ingest.

The telemetry design is pull-based -- sketches keep their own counters
and the registry samples them once per window -- so the per-transaction
hot path is identical whether telemetry is on or off.  This bench
proves it empirically: full-pipeline ingest throughput with
``telemetry=True`` must stay within 3% of the disabled path, and the
disabled path (the default, i.e. the seed configuration) is a fortiori
untouched.

Two entry points:

* ``pytest benchmarks/bench_telemetry_overhead.py --benchmark-only``
  records both rates under ``benchmarks/results/``;
* ``python benchmarks/bench_telemetry_overhead.py --check`` runs a
  quick interleaved A/B and exits nonzero when the overhead bound is
  violated -- the CI guard.
"""

import sys
import time

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

from repro.observatory.pipeline import Observatory
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel

#: maximum tolerated throughput cost of enabling telemetry
OVERHEAD_BOUND = 0.03

DATASETS = [("srvip", 2000), ("qname", 2000)]


def _build_batch(duration=120.0, client_qps=120.0, seed=2019):
    scenario = Scenario.tiny(duration=duration, client_qps=client_qps,
                             seed=seed)
    return list(SieChannel(scenario).run())


def _ingest(batch, telemetry):
    obs = Observatory(datasets=DATASETS, telemetry=telemetry)
    obs.consume(batch)
    obs.finish()
    return obs


def _best_times(batch, rounds=5):
    """Interleaved A/B: best-of-*rounds* wall time per configuration.

    Interleaving keeps thermal / frequency drift from biasing one arm;
    the best-of minimum is the standard noise-robust point estimate.
    """
    best = {False: float("inf"), True: float("inf")}
    for _ in range(rounds):
        for telemetry in (False, True):
            started = time.perf_counter()
            _ingest(batch, telemetry)
            best[telemetry] = min(best[telemetry],
                                  time.perf_counter() - started)
    return best[False], best[True]


def check_overhead(rounds=5, bound=OVERHEAD_BOUND):
    """Measure the enabled-vs-disabled overhead; returns (ok, report)."""
    batch = _build_batch()
    disabled, enabled = _best_times(batch, rounds=rounds)
    overhead = enabled / disabled - 1.0
    rate_off = len(batch) / disabled
    rate_on = len(batch) / enabled
    report = (
        "telemetry overhead: disabled %d txn/s, enabled %d txn/s, "
        "overhead %+.1f%% (bound %.0f%%, %d transactions)"
        % (rate_off, rate_on, overhead * 100, bound * 100, len(batch)))
    return overhead <= bound, report


if pytest is not None:

    @pytest.fixture(scope="module")
    def transaction_batch():
        return _build_batch()

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["disabled", "enabled"])
    def test_ingest_rate(benchmark, transaction_batch, telemetry):
        from benchmarks.conftest import save_result

        obs = benchmark.pedantic(
            lambda: _ingest(transaction_batch, telemetry),
            rounds=3, iterations=1)
        rate = len(transaction_batch) / benchmark.stats["mean"]
        save_result(
            "telemetry_%s" % ("enabled" if telemetry else "disabled"),
            "telemetry %s: %d txn/s (%d transactions)"
            % ("enabled" if telemetry else "disabled", rate,
               len(transaction_batch)))
        assert obs.total_seen == len(transaction_batch)

    def test_overhead_within_bound(transaction_batch):
        disabled, enabled = _best_times(transaction_batch, rounds=5)
        overhead = enabled / disabled - 1.0
        # Double the CI bound for the in-suite assertion: shared
        # runners are noisy, and the hard gate is the --check entry.
        assert overhead <= 2 * OVERHEAD_BOUND, \
            "telemetry overhead %.1f%% exceeds bound" % (overhead * 100)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--check" not in argv:
        print("usage: python benchmarks/bench_telemetry_overhead.py --check",
              file=sys.stderr)
        return 2
    ok, report = check_overhead()
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
