"""Shared-landmark exponential decay for streaming rate estimates.

Section 2.2 of the paper describes the frequency estimate kept for each
Space-Saving entry as "an exponentially decaying moving average that
tracks the rate of transactions per second for this object".

A naive implementation stores ``(rate, last_update)`` per entry and
decays on access, but then the rates of two entries touched at
different times are not directly comparable -- which breaks the
Space-Saving eviction rule ("evict the least frequent object").

We instead use the *forward decay* construction (Cormode et al., 2009):
an observation at time *t* receives weight ``g(t) = exp((t - L) / tau)``
relative to a fixed landmark *L*.  Accumulated weights of different
entries are then directly comparable at any moment, and the decayed
rate at time *now* is ``weight * exp(-(now - L) / tau) / tau``.

Because ``g(t)`` grows without bound, the accumulator renormalizes:
when the exponent exceeds a threshold, every stored weight is expected
to be rescaled by the owner (see :meth:`ForwardDecay.renormalize`).
"""

import math


class ForwardDecay:
    """Forward-decay weight calculator with periodic renormalization.

    Parameters
    ----------
    tau:
        Decay time constant in seconds.  An observation's influence
        halves every ``tau * ln(2)`` seconds.
    """

    #: when ``(now - landmark) / tau`` exceeds this threshold,
    #: :meth:`needs_renormalize` returns True and the owner should call
    #: :meth:`renormalize` and rescale its stored weights by the
    #: returned factor; 200 keeps ``exp()`` far away from overflow
    #: (which occurs near exponent 709 for doubles)
    max_exponent = 200.0

    def __init__(self, tau=60.0):
        if tau <= 0:
            raise ValueError("tau must be positive, got %r" % (tau,))
        self.tau = float(tau)
        self.landmark = 0.0

    def weight(self, now):
        """Return the forward-decay weight ``g(now)`` of one observation."""
        return math.exp((now - self.landmark) / self.tau)

    def rate(self, weight, now):
        """Convert an accumulated *weight* into a rate (events/second)."""
        return weight * math.exp((self.landmark - now) / self.tau) / self.tau

    def needs_renormalize(self, now):
        """True when accumulated exponents are getting dangerously large."""
        return (now - self.landmark) / self.tau > self.max_exponent

    def renormalize(self, now):
        """Move the landmark to *now* and return the weight rescale factor.

        Every weight accumulated under the previous landmark must be
        multiplied by the returned factor to stay consistent.
        """
        return self.rebase(now)

    def rebase(self, landmark):
        """Move the landmark to an arbitrary point and return the
        weight rescale factor.

        Weights accumulated under two different landmarks are not
        directly comparable; rebasing both decays onto the same
        landmark (and rescaling their stored weights by the returned
        factors) makes them so.
        """
        factor = math.exp((self.landmark - landmark) / self.tau)
        self.landmark = float(landmark)
        return factor
