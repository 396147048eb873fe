"""Figure 7: the xmsecu.com TTL slash (600 s -> 10 s).

Paper result: after the surveillance-device domain cut its TTL from 10
minutes to 10 seconds, the query volume at the authoritative side
rose massively -- a direct demonstration that TTLs gate query rates.
"""

import pytest

from benchmarks.conftest import BenchRun, base_scenario, save_result
from repro.analysis.ttltraffic import figure7, render_figure7
from repro.simulation.buildout import XMSECU_FQDN
from repro.simulation.scenario import TtlChange

DURATION = 3000.0
CHANGE_AT = 1200.0


@pytest.fixture(scope="module")
def ttl_drop_run():
    scenario = base_scenario(
        duration=DURATION, client_qps=80.0, n_slds=600,
        popular_fqdns=800,
        scripted_events=[
            TtlChange(at=CHANGE_AT, name="xmsecu.com", new_ttl=10),
        ],
    )
    return BenchRun(scenario, datasets=[("esld", 1500)],
                    keep_transactions=False)


def test_fig7_ttl_drop_amplifies_queries(benchmark, ttl_drop_run):
    result = benchmark.pedantic(
        figure7, args=(ttl_drop_run.store, "xmsecu.com"),
        kwargs={"change_at": CHANGE_AT}, rounds=3, iterations=1)
    save_result("fig7_ttl_drop", render_figure7(result, "xmsecu.com"))

    assert result["rate_before"] > 0
    # Paper: "a massive increase in queries".
    assert result["amplification"] > 3.0
    # The per-window TTL reading flips from 600 to 10 after the change
    # (ignoring windows without A answers).
    ttls_after = {ttl for ts, _, ttl in result["series"]
                  if ts > CHANGE_AT + 600 and ttl}
    assert 10 in ttls_after
