#!/usr/bin/env python3
"""Audit negative-caching misconfigurations (Section 5 / Figure 9).

Dual-stack clients pair every A lookup with an AAAA lookup (Happy
Eyeballs).  For IPv4-only domains, every one of those AAAA queries is
answered empty -- and when the zone's negative-caching TTL is much
lower than its A TTL, resolvers barely cache the emptiness, hammering
the authoritative servers and adding client latency.

This example ranks the top FQDNs by their empty-AAAA share, flags the
misconfigured ones, and demonstrates the fix (Section 5.3): once a
domain publishes AAAA records, the junk traffic collapses.

Run:  python examples/happy_eyeballs_audit.py
"""

import tempfile

from repro.analysis.happyeyeballs import (
    figure9,
    high_empty_fqdns,
    ipv6_rollout,
    render_figure9,
    render_ipv6_rollout,
)
from repro.observatory import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation import Scenario, SieChannel
from repro.simulation.scenario import EnableIpv6


def run(scenario, tree):
    channel = SieChannel(scenario)
    obs = Observatory(datasets=[("qname", 2000)], output_dir=tree)
    obs.consume(channel.run())
    obs.finish()
    return channel, SeriesStore(tree)


def main():
    # --- phase 1: the audit -----------------------------------------
    scenario = Scenario.tiny(seed=19, duration=600.0, client_qps=60.0,
                             dualstack_fraction=0.6)
    audit_tree = tempfile.TemporaryDirectory()
    channel, store = run(scenario, audit_tree.name)

    def negttl(fqdn):
        zone = channel.dns.find_sld_zone(fqdn)
        return zone.soa_negttl if zone else None

    points = figure9(store, negttl, top_n=250, horizon=scenario.duration)
    print(render_figure9(points))

    flagged = high_empty_fqdns(points, threshold=0.5)
    print("\nRecommendations:")
    for p in flagged:
        print("  %s: negTTL %ds vs A TTL %ds -- raise the SOA minimum "
              "or publish AAAA records." % (p.fqdn, p.neg_ttl, p.a_ttl))

    # --- phase 2: the fix (Section 5.3) ------------------------------
    rollout_at = 300.0
    fix_scenario = Scenario.tiny(
        seed=19, duration=900.0, client_qps=60.0, dualstack_fraction=0.6,
        scripted_events=[
            EnableIpv6(at=rollout_at, fqdn="time-a.ntpsync.com"),
        ],
    )
    fixed_tree = tempfile.TemporaryDirectory()
    _, fixed_store = run(fix_scenario, fixed_tree.name)
    result = ipv6_rollout(fixed_store, "time-a.ntpsync.com", rollout_at)
    print()
    print(render_ipv6_rollout(result, "time-a.ntpsync.com"))
    audit_tree.cleanup()
    fixed_tree.cleanup()


if __name__ == "__main__":
    main()
