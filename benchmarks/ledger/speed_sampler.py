"""The speed meter's child: how fast is this core right now?

Run as ``python speed_sampler.py OUTFILE`` (the parent pins it to one
core).  Ten times a second it runs three fixed loops that use nothing
of the program under test, takes the CPU time of each (not the wall
time: the core's other process may be scheduled in between), and
appends ``<time.monotonic() stamp> <slowdown>`` to OUTFILE, where
*slowdown* is the mean of the three CPU times as multiples of what the
same loops cost on the quiet reference box.  ``harness.SpeedMeter``
reads the file; the parent kills this process when the run ends.

The loops are integer arithmetic in the interpreter, a gather of
random elements of a 2 M-element list, and random look-ups in a
600 k-entry dict.  The last two miss the cache the way the program's
own object graph does: what slows the box is a neighbour's memory
traffic, and a loop that stays in the cache, or reads memory in order,
slows half as much as the program does (measured over seven minutes of
an ingest job and a read-back job on the same core: quartile spread of
job time over slowdown 10 % with arithmetic plus a sequential read,
4-5 % with these three).
"""

import operator
import random
import sys
import time

#: CPU seconds of each loop on the quiet 2-core box the ledger was
#: sized on (the tenth percentile of a few minutes of samples)
REF_S = (0.00133, 0.00162, 0.00210)
PERIOD_S = 0.1

_RANDOM = random.Random(2019)
_LIST = [float(i) for i in range(2_000_000)]
_GATHER = operator.itemgetter(
    *[_RANDOM.randrange(len(_LIST)) for _ in range(10_000)])
_DICT = {i * 7919 % 1_000_003: i for i in range(600_000)}
_KEYS = _RANDOM.sample(list(_DICT), 8_000)


def arith():
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return acc


def gather():
    return sum(_GATHER(_LIST))


def probe():
    return sum(map(_DICT.__getitem__, _KEYS))


LOOPS = (arith, gather, probe)


def sample():
    """CPU seconds of each loop, in order."""
    stamps = [time.process_time()]
    for loop in LOOPS:
        loop()
        stamps.append(time.process_time())
    return [after - before for before, after in zip(stamps, stamps[1:])]


def main(path):
    sample()  # the first one pays for cold caches and page faults
    with open(path, "w", encoding="ascii") as out:
        while True:
            stamp = time.monotonic()
            slowdown = sum(cpu / ref for cpu, ref in zip(sample(), REF_S))
            out.write("%.6f %.6f\n" % (stamp, slowdown / len(LOOPS)))
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
