"""DGA botnet traffic: the Mylobot analogue.

Section 3.2: "the surprising starting point of the NXDOMAIN traffic
above 20% is caused by a large botnet, likely Mylobot.  The botnet's
Domain Generation Algorithm (DGA) produced millions of FQDNs under
thousands of non-existing SLDs within the .com TLD, which caused
spikes of NXDOMAIN traffic towards the gTLD nameservers."

The generator reproduces exactly that structure: a bounded pool of
pseudo-random ``.com`` SLDs (thousands), each queried with rotating
host labels, funnelled through the subset of resolvers serving the
infected networks.  Every query ends as gTLD NXDOMAIN -- unique SLDs
defeat both the resolvers' delegation caches and, at DGA scale, their
negative caches.
"""

from repro.dnswire.constants import QTYPE
from repro.simulation.workload import ClientEvent

#: size of the DGA SLD pool ("thousands of non-existing SLDs")
DGA_SLD_POOL = 4000

#: fraction of resolvers with infected client populations
INFECTED_RESOLVER_FRACTION = 0.5


def dga_name(rng):
    """One DGA FQDN: random host label under a pooled fake .com SLD."""
    sld_index = rng.randrange(DGA_SLD_POOL)
    host = "%08x" % rng.getrandbits(32)
    return "%s.mylo%05d.com" % (host, sld_index)


def dga_events(mix, rate):
    """Generator of botnet :class:`ClientEvent`; plugged into the
    workload mix as the ``botnet`` source."""
    scenario = mix.scenario
    n_infected = max(1, int(scenario.n_resolvers
                            * INFECTED_RESOLVER_FRACTION))
    for t, rng in mix._arrivals("botnet", rate):
        resolver = rng.randrange(n_infected)
        yield ClientEvent(t, resolver, dga_name(rng), QTYPE.A, "botnet")
