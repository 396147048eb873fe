"""Adversarial workloads with ground-truth labels.

Two labeled attack generators ride the scripted-event mechanism next
to the DGA botnet (:mod:`repro.simulation.botnet`) and
:class:`~repro.simulation.scenario.JunkSurge`:

* :class:`~repro.simulation.scenario.TunnelAttack` -- a DNS-tunnel /
  exfiltration client pushing fresh high-entropy subdomains through a
  wildcard-answering victim zone (every query resolves, like a live
  tunnel server);
* :class:`~repro.simulation.scenario.WaterTorture` -- a
  random-subdomain DDoS botnet flooding a non-wildcard victim zone
  with unique nonexistent names (every query is a cache miss ending in
  NXDOMAIN at the victim's authoritative).

Victims default to deterministically chosen zones of the simulated
DNS, and :func:`attack_labels` exports the resolved ground truth --
``(kind, esld, start, end)`` per attack -- which
:mod:`repro.analysis.detectquality` scores detector output against.
"""

from repro.dnswire.constants import QTYPE
from repro.simulation.workload import ClientEvent

#: fraction of resolvers fronting infected clients (water torture is
#: botnet-sourced; tunnels are single-operator but roam resolvers)
ATTACK_RESOLVER_FRACTION = 0.5

_LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


class ResolvedAttack:
    """A scripted attack bound to its concrete victim zone."""

    __slots__ = ("event", "esld", "index")

    def __init__(self, event, esld, index):
        self.event = event
        self.esld = esld
        self.index = index

    def label(self, duration):
        end = self.event.until
        end = duration if end is None else min(end, duration)
        return {
            "kind": self.event.kind,
            "esld": self.esld,
            "start": self.event.at,
            "end": end,
            "qps": self.event.qps,
        }


def resolve_attacks(mix):
    """Bind every scripted attack event to a victim zone.

    The choice is deterministic given the scenario (it only reads the
    zone lists built from the scenario seed): tunnels prefer a
    wildcard **A** zone (answered queries) that is not an anti-virus
    TXT zone, water torture a mid-popularity non-wildcard zone
    (NXDOMAIN floods).  Distinct attacks get distinct victims.
    """
    from repro.simulation.scenario import TunnelAttack, WaterTorture

    resolved = []
    used = set()
    for index, event in enumerate(mix.scenario.scripted_events):
        if not isinstance(event, (TunnelAttack, WaterTorture)):
            continue
        if isinstance(event, TunnelAttack):
            esld = _pick_tunnel_victim(mix.dns, used)
        else:
            esld = _pick_torture_victim(mix.dns, used)
        used.add(esld)
        resolved.append(ResolvedAttack(event, esld, index))
    return resolved


def _pick_tunnel_victim(dns, used):
    wildcards = [z for z in dns.wildcard_slds if z.name not in used]
    plain_a = [z for z in wildcards
               if not (z.wildcard and "TXT" in z.wildcard)]
    for pool in (plain_a, wildcards, dns.slds):
        for zone in pool:
            if zone.name not in used:
                return zone.name
    raise ValueError("no zone available for a tunnel victim")


def _pick_torture_victim(dns, used):
    slds = dns.slds
    # Start mid-list: head zones carry heavy legitimate traffic, tail
    # zones barely resolve; the middle is a plausible victim.
    order = slds[len(slds) // 3:] + slds[: len(slds) // 3]
    for zone in order:
        if zone.wildcard is None and zone.name not in used:
            return zone.name
    for zone in order:
        if zone.name not in used:
            return zone.name
    raise ValueError("no zone available for a water-torture victim")


def attack_events(mix, attack):
    """The :class:`ClientEvent` generator for one resolved attack."""
    from repro.simulation.scenario import TunnelAttack

    if isinstance(attack.event, TunnelAttack):
        return _tunnel_events(mix, attack)
    return _torture_events(mix, attack)


def _window(mix, event):
    end = mix.scenario.duration
    if event.until is not None:
        end = min(end, event.until)
    return event.at, end


def _infected_resolver(mix, rng):
    n = max(1, int(mix.scenario.n_resolvers * ATTACK_RESOLVER_FRACTION))
    return rng.randrange(n)


def _tunnel_events(mix, attack):
    event = attack.event
    rng = mix.hub.stream("tunnel:%d" % attack.index)
    start, end = _window(mix, event)
    choice = rng.choice
    t = start + rng.expovariate(event.qps)
    while t < end:
        payload = ".".join(
            "".join(choice(_LABEL_ALPHABET)
                    for _ in range(event.label_len))
            for _ in range(event.payload_labels))
        qname = "%s.t.%s" % (payload, attack.esld)
        yield ClientEvent(t, _infected_resolver(mix, rng), qname,
                          QTYPE.A, "tunnel")
        t += rng.expovariate(event.qps)


def _torture_events(mix, attack):
    event = attack.event
    rng = mix.hub.stream("watertorture:%d" % attack.index)
    start, end = _window(mix, event)
    choice = rng.choice
    t = start + rng.expovariate(event.qps)
    while t < end:
        label = "".join(choice(_LABEL_ALPHABET)
                        for _ in range(event.label_len))
        qname = "%s.%s" % (label, attack.esld)
        yield ClientEvent(t, _infected_resolver(mix, rng), qname,
                          QTYPE.A, "watertorture")
        t += rng.expovariate(event.qps)
