"""Shared fixtures for the benchmark harness.

``pytest benchmarks/ --benchmark-only`` reproduces every table and
figure of the paper: each bench times the analysis computation and
writes the rendered result to ``benchmarks/results/<name>.txt`` (the
numbers recorded in EXPERIMENTS.md come from these files).

The expensive part -- simulating the DNS and feeding the Observatory
-- happens once per scenario in session-scoped fixtures; the timed
portions are the per-experiment computations.
"""

import os

import pytest

from repro.observatory.pipeline import Observatory
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class BenchRun:
    """One simulated run loaded into an Observatory."""

    def __init__(self, scenario, datasets, keep_transactions=True,
                 **obs_kw):
        self.scenario = scenario
        self.channel = SieChannel(scenario)
        obs_kw.setdefault("use_bloom_gate", False)
        self.obs = Observatory(datasets=datasets, **obs_kw)
        self.transactions = [] if keep_transactions else None
        for txn in self.channel.run():
            if self.transactions is not None:
                self.transactions.append(txn)
            self.obs.ingest(txn)
        self.obs.finish()

    @property
    def dns(self):
        return self.channel.dns

    def root_letter_ips(self):
        return {ns.hostname.split(".")[0]: ns.ip
                for ns in self.dns.root.nameservers}

    def gtld_letter_ips(self):
        return {ns.hostname.split(".")[0]: ns.ip
                for ns in self.dns.root.tlds["com"].nameservers}

    def negttl_lookup(self, fqdn):
        zone = self.dns.find_sld_zone(fqdn)
        return zone.soa_negttl if zone is not None else None

    @staticmethod
    def server_ips(nameservers):
        """All addresses (v4 + v6) of a nameserver group."""
        ips = set()
        for ns in nameservers:
            ips.add(ns.ip)
            if ns.ipv6:
                ips.add(ns.ipv6)
        return ips

    def root_server_ips(self):
        return self.server_ips(self.dns.root.nameservers)

    def tld_server_ips(self):
        return self.server_ips(
            ns for tld in self.dns.root.tlds.values()
            for ns in tld.nameservers)


def base_scenario(**overrides):
    params = dict(
        seed=2019, duration=900.0, client_qps=150.0, n_resolvers=48,
        n_contributors=10, n_tlds=80, n_slds=1200, fqdns_per_sld=4,
        popular_fqdns=1500, qmin_resolver_fraction=0.05,
    )
    params.update(overrides)
    return Scenario(**params)


@pytest.fixture(scope="session")
def base_run():
    """The main measurement run shared by most benches."""
    return BenchRun(
        base_scenario(),
        datasets=[("srvip", 2000), ("qname", 4000), ("esld", 2000),
                  "qtype", "rcode", ("aafqdn", 2000)],
    )


def measure_sharded_run(txns, shards, transport, datasets, **obs_kw):
    """One measured sharded ingest: wall time plus *worker* CPU time.

    Worker CPU comes from ``getrusage(RUSAGE_CHILDREN)`` deltas --
    the workers are joined during ``finish()``/``close()``, so their
    usage has been folded into the parent's children-counters by the
    time the measurement ends.  ``worker_utilization`` is the mean
    fraction of one core each worker kept busy; on a single-core box
    the whole run time-shares one CPU and utilization lands around
    ``1/shards`` even though the code would scale given real cores --
    which is exactly why throughput gates must look at the measured
    core count, not assume parallel hardware.
    """
    import resource
    import time

    from repro.observatory.sharded import ShardedObservatory

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    obs = ShardedObservatory(shards=shards, datasets=datasets,
                             transport=transport, **obs_kw)
    obs.consume(txns)
    obs.finish()
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = ((after.ru_utime - before.ru_utime)
                  + (after.ru_stime - before.ru_stime))
    assert obs.total_seen == len(txns)
    return {
        "txn_per_s": round(len(txns) / wall, 1),
        "wall_s": round(wall, 3),
        "worker_cpu_s": round(worker_cpu, 3),
        "worker_utilization": round(worker_cpu / (shards * wall), 3),
    }


def save_result(name, text):
    """Persist a rendered table/figure under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.rstrip() + "\n")
    print("\n" + text)
    return path
