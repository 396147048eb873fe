"""Resolver-to-nameserver delay model.

Section 3.5: "this delay generally comes from two sources: the
Internet transmission delay, and the server processing delay", and
nameservers closer in router hops tend to respond faster.  The paper's
Figure 3a splits the delay CDF into four regimes: 0-5 ms (co-located,
3.1 % of nameservers), 5-35 ms (same country, 22.3 %), 35-350 ms
(distant, 71.5 %), >350 ms (impaired, 2.3 %).

:class:`PathProfile` is the per-(resolver, nameserver) ground truth --
hop count plus base network delay -- and :class:`DelayModel` samples a
response delay: base RTT + lognormal jitter + server processing time.
The simulator assigns profiles so that popular nameservers (CDNs,
anycast) get short paths, reproducing the rank-vs-delay correlation of
Figure 3b.
"""

import math


class PathProfile:
    """Ground-truth path between one resolver and one nameserver."""

    __slots__ = ("hops", "base_delay_ms", "server_delay_ms", "initial_ttl")

    def __init__(self, hops, base_delay_ms, initial_ttl=64):
        if hops < 1:
            raise ValueError("a path has at least one hop")
        if base_delay_ms < 0:
            raise ValueError("delays must be non-negative")
        #: router hops between resolver and nameserver
        self.hops = int(hops)
        #: one-way-ish base network RTT contribution in milliseconds
        self.base_delay_ms = float(base_delay_ms)
        #: nameserver processing time in milliseconds
        self.server_delay_ms = 1.0
        #: initial TTL the nameserver's OS uses (for hop inference)
        self.initial_ttl = int(initial_ttl)

    @classmethod
    def from_distance_class(cls, distance_class, rng, initial_ttl=64):
        """Build a profile for one of the paper's four delay regimes.

        ``distance_class`` is one of ``"colocated"``, ``"regional"``,
        ``"distant"``, ``"impaired"`` (Figure 3a sections 1-4).
        """
        if distance_class == "colocated":
            hops = rng.randint(1, 4)
            base = rng.uniform(0.2, 4.0)
        elif distance_class == "regional":
            hops = rng.randint(4, 10)
            base = rng.uniform(5.0, 35.0)
        elif distance_class == "distant":
            hops = rng.randint(8, 22)
            base = rng.uniform(35.0, 300.0)
        elif distance_class == "impaired":
            hops = rng.randint(12, 30)
            base = rng.uniform(350.0, 900.0)
        else:
            raise ValueError("unknown distance class %r" % (distance_class,))
        return cls(hops=hops, base_delay_ms=base, initial_ttl=initial_ttl)


class DelayModel:
    """Sample response delays for a :class:`PathProfile`.

    delay = base + lognormal jitter (sigma scales with base) + server
    processing.  Deterministic given the caller's RNG.
    """

    jitter_sigma = 0.25
    min_delay_ms = 0.1

    def sample_ms(self, profile, rng):
        """Return one response delay in milliseconds."""
        jitter = math.exp(rng.gauss(0.0, self.jitter_sigma))
        delay = profile.base_delay_ms * jitter + profile.server_delay_ms
        return max(delay, self.min_delay_ms)

    def expected_ms(self, profile):
        """Mean of the sampled distribution (for tests/calibration)."""
        lognormal_mean = math.exp(self.jitter_sigma ** 2 / 2.0)
        return max(
            profile.base_delay_ms * lognormal_mean + profile.server_delay_ms,
            self.min_delay_ms,
        )
