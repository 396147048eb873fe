"""The SIE substitute: a deterministic model of the global DNS.

The paper's raw data -- "a large stream of passive observations of DNS
traffic between recursive resolvers and authoritative nameservers"
from the Farsight Security Information Exchange -- is proprietary.
This subpackage replaces it with a synthetic Internet that exercises
the exact same code paths (see DESIGN.md, "Substitutions"):

* :mod:`~repro.simulation.topology` -- organizations, ASes, IP
  prefixes, nameserver fleets (the Table 1 cast plus a long tail);
* :mod:`~repro.simulation.zones` -- the root zone, TLD zones, SLD
  zones and their records, with Zipf-distributed popularity;
* :mod:`~repro.simulation.buildout` -- assembles a
  :class:`~repro.simulation.buildout.GlobalDns` instance from a
  :class:`~repro.simulation.scenario.Scenario`;
* :mod:`~repro.simulation.authoritative` -- authoritative server
  logic: referrals, authoritative answers, NXDOMAIN, NoData, DNSSEC;
* :mod:`~repro.simulation.resolver` -- caching recursive resolvers
  (TTL cache, RFC 2308 negative cache, optional QNAME minimization);
* :mod:`~repro.simulation.workload` -- client query generators (web
  with Happy Eyeballs, PTR, TXT, MX, NS/PRSD, ...);
* :mod:`~repro.simulation.botnet` -- DGA botnet traffic (the Mylobot
  analogue behind the paper's NXDOMAIN spikes);
* :mod:`~repro.simulation.sensor` / :mod:`~repro.simulation.sie` --
  passive sensors above each resolver, merged into one time-ordered
  channel, exactly what DNS Observatory ingests.

Everything is deterministic given the scenario seed.
"""

from repro.simulation.buildout import GlobalDns, build_global_dns
from repro.simulation.scenario import Scenario
from repro.simulation.sie import SieChannel

__all__ = [
    "GlobalDns",
    "build_global_dns",
    "Scenario",
    "SieChannel",
]
