"""Section 5.3: the effect of deploying IPv6 on an IPv4-only FQDN.

Paper result: for 10 FQDNs that enabled IPv6 during the observation
window, empty AAAA responses dropped as expected, while total query
volume did not change significantly (their negTTLs matched their
regular TTLs).
"""

import pytest

from benchmarks.conftest import BenchRun, base_scenario, save_result
from repro.analysis.happyeyeballs import ipv6_rollout, render_ipv6_rollout
from repro.simulation.scenario import EnableIpv6, TtlChange

FQDN = "updates.softcdn.com"
ROLLOUT_AT = 1200.0
DURATION = 2400.0


@pytest.fixture(scope="module")
def rollout_run():
    scenario = base_scenario(
        duration=DURATION, client_qps=100.0, n_slds=600,
        popular_fqdns=800, dualstack_fraction=0.6,
        scripted_events=[
            # Align negTTL with the regular TTL first (the paper's
            # no-volume-change precondition), then publish AAAA.
            TtlChange(at=ROLLOUT_AT, name="softcdn.com", new_ttl=3600,
                      rtype="SOA"),
            EnableIpv6(at=ROLLOUT_AT, fqdn=FQDN),
        ],
    )
    return BenchRun(scenario, datasets=[("qname", 3000)],
                    keep_transactions=False)


def test_sec53_ipv6_rollout(benchmark, rollout_run):
    result = benchmark.pedantic(
        ipv6_rollout, args=(rollout_run.store, FQDN, ROLLOUT_AT),
        rounds=3, iterations=1)
    save_result("sec53_ipv6_rollout", render_ipv6_rollout(result, FQDN))

    # Empty AAAA responses collapse after the rollout...
    assert result["before"]["empty_aaaa_share"] > 0.1
    assert result["after"]["empty_aaaa_share"] < \
        result["before"]["empty_aaaa_share"] / 2
    # ...while AAAA-with-data appears.
    assert result["after"]["aaaa_data_share"] > 0
