"""The SIE channel: merge all sensors into one time-ordered stream.

This is the simulator's stand-in for Farsight's Security Information
Exchange: hundreds of sensors submit their resolver-to-authoritative
transactions, and the channel delivers one merged, time-ordered stream
-- exactly what DNS Observatory ingests (Section 2.1).

Because a resolution may emit transactions slightly after the client
event that triggered it (network delays accumulate along the referral
chain), the channel reorders with a small watermark buffer before
yielding.
"""

import heapq
import logging

from repro.simulation.authoritative import AuthoritativeService
from repro.simulation.buildout import build_global_dns
from repro.simulation.resolver import RecursiveResolver
from repro.simulation.sensor import Sensor
from repro.simulation.workload import WorkloadMix

#: transactions may trail their client event by at most this long
_WATERMARK_LAG = 8.0

#: share of resolvers that clamp high negative-caching TTLs (the
#: Figure 9 rank-140 observation: "some resolvers not respecting its
#: relatively high negative caching TTL")
_NEGTTL_CLAMP_FRACTION = 0.12
_NEGTTL_CLAMP_SECONDS = 30.0

logger = logging.getLogger(__name__)


class SieChannel:
    """One simulation run: world buildout + workload + sensors."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.dns = build_global_dns(scenario)
        hub = self.dns.hub
        self.service = AuthoritativeService(
            self.dns.topology, hub,
            unanswered_rate=scenario.unanswered_rate,
            wire_check_fraction=scenario.wire_check_fraction,
        )
        self.resolvers = []
        self.sensors = []
        for i in range(scenario.n_resolvers):
            ip = "10.%d.%d.53" % (i // 250, i % 250)
            contributor = "contrib%02d" % (
                i * scenario.n_contributors // scenario.n_resolvers)
            resolver = RecursiveResolver(
                ip, self.dns, self.service, hub, source=contributor,
                qmin=hub.uniform_hash("qmin:" + ip)
                < scenario.qmin_resolver_fraction,
                dnssec_ok=hub.uniform_hash("do:" + ip) < 0.9,
                cache_size=scenario.resolver_cache_size,
                prefetch=hub.uniform_hash("prefetch:" + ip)
                < scenario.prefetch_resolver_fraction,
            )
            if hub.uniform_hash("negclamp:" + ip) < _NEGTTL_CLAMP_FRACTION:
                resolver.neg_ttl_cap = _NEGTTL_CLAMP_SECONDS
            if hub.uniform_hash("v6:" + ip) < scenario.resolver_ipv6_fraction:
                resolver.ipv6_addr = "2620:fe:0:%x::53" % i
            # Encrypted-channel membership is a pure per-IP hash
            # threshold, so the DoH/DoT population *nests* as
            # encrypted_fraction rises: 0 -> today's byte-identical
            # plaintext stream, and every increase only blinds
            # resolvers that were already blinded at higher fractions.
            if hub.uniform_hash("enc:" + ip) < scenario.encrypted_fraction:
                resolver.transport = "doh" \
                    if hub.uniform_hash("doh:" + ip) < scenario.doh_share \
                    else "dot"
            self.resolvers.append(resolver)
            self.sensors.append(Sensor(resolver, self._capture,
                                       padding_block=scenario.padding_block))
        self.workload = WorkloadMix(scenario, self.dns)
        # -- stream state and accounting --
        self._buffer = []
        self._seq = 0
        self.client_queries = 0
        self.transactions = 0
        self.status_counts = {}

    # ------------------------------------------------------------------

    def _capture(self, txn):
        self._seq += 1
        heapq.heappush(self._buffer, (txn.ts, self._seq, txn))
        self.transactions += 1

    def run(self):
        """Yield the merged transaction stream, time-ordered."""
        logger.info(
            "SIE channel starting: %d resolvers, %d nameservers, "
            "%.0f s at %.0f client qps",
            len(self.resolvers), len(self.dns.topology.nameservers_by_ip),
            self.scenario.duration, self.scenario.client_qps)
        buffer = self._buffer
        for event in self.workload.events():
            self.dns.apply_events_until(event.ts)
            resolver = self.resolvers[event.resolver_index]
            sensor = self.sensors[event.resolver_index]
            self.client_queries += 1
            result = resolver.resolve(
                event.qname, event.qtype, event.ts, sensor.emit)
            self.status_counts[result.status] = \
                self.status_counts.get(result.status, 0) + 1
            watermark = event.ts - _WATERMARK_LAG
            while buffer and buffer[0][0] <= watermark:
                yield heapq.heappop(buffer)[2]
        self.dns.apply_events_until(self.scenario.duration)
        while buffer:
            yield heapq.heappop(buffer)[2]
        logger.info(
            "SIE channel finished: %d client queries -> %d transactions "
            "(cache hit ratio %.3f)",
            self.client_queries, self.transactions, self.cache_hit_ratio())

    def cache_hit_ratio(self):
        """Aggregate client-query cache-hit ratio across resolvers."""
        answered = sum(r.cache_answers for r in self.resolvers)
        total = sum(r.client_queries for r in self.resolvers)
        return answered / total if total else 0.0

    def attack_labels(self):
        """Ground truth for scripted attacks (see
        :meth:`WorkloadMix.attack_labels`)."""
        return self.workload.attack_labels()
