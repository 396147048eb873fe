"""Figure 8: TTL changes vs query-volume changes across top SLDs.

Paper result: for the top-100 SLDs by traffic change between two
months, TTL decreases mostly produce traffic increases (near-inverse
relation); among TTL-*increase* cases, traffic rose anyway in twice as
many SLDs as it fell, and 28 of those 34 were query-only growth
(NXDOMAIN/junk, not real responses).
"""

import pytest

from benchmarks.conftest import BenchRun, base_scenario, save_result
from repro.analysis.ttltraffic import (
    figure8,
    figure8_summary,
    render_figure8,
)
from repro.dnswire.constants import QTYPE
from repro.simulation.buildout import build_global_dns
from repro.simulation.scenario import JunkSurge, TtlChange

DURATION = 3000.0
SPLIT_AT = 1200.0


def _scenario_with_epoch_changes():
    """Deterministically pick SLDs and script TTL flips at the epoch
    boundary: decreases for high-TTL zones, increases for low-TTL."""
    params = dict(duration=DURATION, client_qps=100.0, n_slds=800,
                  popular_fqdns=1200)
    probe = build_global_dns(base_scenario(**params))
    events = []
    decreases = increases = 0
    for zone in probe.slds[2:60]:
        record = zone.get_record("www." + zone.name, QTYPE.A) or \
            zone.get_record(zone.name, QTYPE.A)
        if record is None:
            continue
        if record.ttl >= 300 and decreases < 12:
            new_ttl, decreases = 10, decreases + 1
        elif record.ttl < 300 and increases < 12:
            new_ttl, increases = 86400, increases + 1
        else:
            continue
        # Operators change the whole zone: A and AAAA alike.
        events.append(TtlChange(at=SPLIT_AT, name=zone.name,
                                new_ttl=new_ttl, rtype="A"))
        events.append(TtlChange(at=SPLIT_AT, name=zone.name,
                                new_ttl=new_ttl, rtype="AAAA"))
        # The paper's inconsistent cases: some up-TTL SLDs *gain*
        # queries anyway because PRSD-style junk hits them in the
        # second epoch -- query-only growth, no extra responses.
        if new_ttl == 86400 and increases <= 6:
            events.append(JunkSurge(at=SPLIT_AT, sld=zone.name, qps=1.5))
    return base_scenario(scripted_events=events, **params)


@pytest.fixture(scope="module")
def epoch_run():
    return BenchRun(_scenario_with_epoch_changes(),
                    datasets=[("esld", 2000)], keep_transactions=False)


def test_fig8_ttl_vs_traffic(benchmark, epoch_run):
    changes = benchmark.pedantic(
        figure8, args=(epoch_run.store, SPLIT_AT),
        rounds=3, iterations=1)
    summary = figure8_summary(changes)
    save_result("fig8_ttl_vs_traffic", render_figure8(changes, summary))

    assert summary["ttl_down"] >= 5
    # Inverse relation: most TTL decreases increase traffic.
    assert summary["ttl_down_traffic_up"] > summary["ttl_down"] / 2
    # The scripted increases are detected too.
    assert summary["ttl_up"] >= 3
    # And the inconsistent up-TTL/up-traffic cases are query-only
    # growth (paper: 28 of 34 such cases were NXDOMAIN-driven).
    if summary["ttl_up_traffic_up"]:
        assert summary["ttl_up_traffic_up_query_only"] >= \
            summary["ttl_up_traffic_up"] / 2
