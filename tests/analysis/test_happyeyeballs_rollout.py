"""Section 5.3: effect of enabling IPv6 on empty-AAAA shares."""

import pytest

from repro.analysis.happyeyeballs import ipv6_rollout, render_ipv6_rollout
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation.scenario import EnableIpv6, Scenario
from repro.simulation.sie import SieChannel

FQDN = "time-a.ntpsync.com"
ROLLOUT_AT = 900.0
DURATION = 1800.0


@pytest.fixture(scope="module")
def rollout_run(tmp_path_factory):
    scenario = Scenario.tiny(
        seed=41, duration=DURATION, client_qps=40.0,
        dualstack_fraction=0.8,
        scripted_events=[EnableIpv6(at=ROLLOUT_AT, fqdn=FQDN)],
    )
    channel = SieChannel(scenario)
    tree = str(tmp_path_factory.mktemp("rollout-run"))
    obs = Observatory(datasets=[("qname", 1500)], use_bloom_gate=False,
                      output_dir=tree)
    for txn in channel.run():
        obs.ingest(txn)
    obs.finish()
    return channel, SeriesStore(tree)


def test_empty_aaaa_share_drops_after_rollout(rollout_run):
    _, store = rollout_run
    result = ipv6_rollout(store, FQDN, ROLLOUT_AT)
    # Before: IPv4-only with negTTL 15 -> lots of empty AAAA.
    assert result["before"]["empty_aaaa_share"] > 0.2
    # After: AAAA answered with data, empty share collapses.
    assert result["after"]["empty_aaaa_share"] < \
        result["before"]["empty_aaaa_share"] / 2


def test_render(rollout_run):
    _, store = rollout_run
    out = render_ipv6_rollout(ipv6_rollout(store, FQDN, ROLLOUT_AT), FQDN)
    assert "Section 5.3" in out
    assert FQDN in out
