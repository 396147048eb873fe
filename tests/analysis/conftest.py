"""Shared end-to-end run for the analysis tests.

One tiny-but-complete simulation feeds one Observatory with all
datasets, writing a tree; every analysis module is tested against
that tree through one store (session-scoped: the simulation runs
once).
"""

import pytest

from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel


class AnalysisRun:
    """Bundle of channel, transactions, the Observatory and a store
    over the tree it wrote to *directory*."""

    def __init__(self, directory, scenario=None, datasets=None, **obs_kw):
        self.scenario = scenario or Scenario.tiny(
            seed=101, duration=420.0, client_qps=60.0,
            qmin_resolver_fraction=0.15,
        )
        self.channel = SieChannel(self.scenario)
        self.transactions = []
        datasets = datasets or [
            ("srvip", 600), ("qname", 1500), ("esld", 800),
            "qtype", "rcode", ("aafqdn", 800),
        ]
        obs_kw.setdefault("use_bloom_gate", False)
        self.obs = Observatory(datasets=datasets, output_dir=str(directory),
                               **obs_kw)
        for txn in self.channel.run():
            self.transactions.append(txn)
            self.obs.ingest(txn)
        self.obs.finish()
        self.store = SeriesStore(str(directory))

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


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    return AnalysisRun(tmp_path_factory.mktemp("analysis-run"))
