"""Process control, timing and statistics shared by the ledger.

Everything here exists so that a run cannot fail for a reason the
program under test did not cause: children run in their own process
groups and are killed on every exit path, every wait has a deadline,
every file lives under one work directory that ``finally`` removes,
and nothing outside the standard library is imported.
"""

import atexit
import hashlib
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: scratch root inside the checkout (the contract forbids writing
#: outside it); every run makes one mkdtemp() below and removes it
WORK_ROOT = os.path.join(ROOT, ".ledger_work")

#: ingest configuration used by every workload (ISSUE 15, "Corpus")
DATASETS = ("srvip", "qname", "esld", "qtype", "rcode", "aafqdn")
TOPK = 2000

_CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(_CPUS)
ALL_CPUS = set(_CPUS)
#: noise rule 4: system under test on one core, load generator on another
SUT_CPUS = {_CPUS[0]} if NPROC >= 2 else None
LOAD_CPUS = {_CPUS[1]} if NPROC >= 2 else None

_READY = re.compile(r"http://([0-9.]+):(\d+)")


class PhaseFailed(Exception):
    """A phase could not complete; the run reports failed operations
    and exits non-zero instead of hanging or guessing."""


class PhaseTimeout(PhaseFailed):
    """A phase ran past its hard deadline."""


class Ledger:
    """Operations attempted/failed and free-form notes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, what, n=1):
        self.failed += n
        if len(self.failures) < 50:
            self.failures.append(what)

    def check(self, ok, what):
        """One output check: counts as an operation, fails loudly."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok


def pin(pid, cpus):
    """Pin *pid* to *cpus*; ``False`` when there is nothing to pin to
    or the kernel refuses (recorded as ``pinned: false``, not fatal)."""
    if not cpus:
        return False
    try:
        os.sched_setaffinity(pid, cpus)
        return True
    except OSError:
        return False


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    # one hash seed for every child: dict/set layout then repeats
    # between passes instead of adding its own run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    return env


_LIVE = set()


def kill_all():
    for child in list(_LIVE):
        child.kill()


def _on_signal(signum, frame):
    kill_all()
    raise SystemExit(128 + signum)


def install_cleanup():
    atexit.register(kill_all)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_signal)


class Child:
    """One child process tree of the program under test.

    Started in its own session (= process group), so :meth:`kill`
    takes shard workers down with their coordinator.  :meth:`wait`
    reaps with ``wait4``: on Linux its rusage covers the child *and*
    every descendant the child itself reaped, which is exactly "CPU
    and peak RSS of the whole child tree".
    """

    def __init__(self, argv, log, cpus=None, stdin=None, stdout=None):
        """*log* is a path prefix: stderr goes to ``<log>.err`` and,
        unless *stdout* is given (``subprocess.PIPE`` for servers,
        whose ready line is read live), stdout to ``<log>.out``."""
        self.argv = argv
        self.log = log
        with open(log + ".err", "wb") as stderr, \
                open(log + ".out", "wb") as out:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, env=child_env(), stdin=stdin,
                stdout=out if stdout is None else stdout,
                stderr=stderr, start_new_session=True)
        self.pid = self.proc.pid
        self.pinned = pin(self.pid, cpus)
        self.returncode = None
        self.rusage = None
        self.ended = None
        _LIVE.add(self)

    def wait(self, timeout):
        """Reap within *timeout* seconds or kill and raise."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self._reaped(status, rusage)
                break
            if time.monotonic() > deadline:
                self.kill()
                raise PhaseTimeout("%s did not exit within %.0fs"
                                   % (self.argv[1:4], timeout))
            time.sleep(0.002)
        return self.returncode

    def _reaped(self, status, rusage):
        self.ended = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        self.proc.returncode = self.returncode
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        _LIVE.discard(self)

    def kill(self):
        if self.returncode is not None:
            return
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            _, status, rusage = os.wait4(self.pid, 0)
            self._reaped(status, rusage)
        except ChildProcessError:
            self.returncode = -9
            _LIVE.discard(self)

    @property
    def wall_s(self):
        return self.ended - self.started

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB

    def output(self):
        with open(self.log + ".out", "r", encoding="utf-8") as fh:
            return fh.read()

    def stderr_tail(self, lines=8):
        try:
            with open(self.log + ".err", "r", errors="replace") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return ""

    def read_ready(self, timeout):
        """Parse ``host, port`` from the child's ready line (every
        server is started with ``--port 0``)."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        seen = b""
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                self.kill()
                raise PhaseTimeout("no ready line within %.0fs" % timeout)
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                self.kill()
                raise PhaseTimeout("child exited before its ready line: "
                                   + self.stderr_tail())
            seen += chunk
            match = _READY.search(seen.decode("latin-1"))
            if match and b"\n" in seen[match.end():]:
                return match.group(1), int(match.group(2))


def python_child(args, log, **kw):
    """Start ``python <args...>`` as a :class:`Child`."""
    return Child([sys.executable] + list(args), log, **kw)


def cli_child(args, log, **kw):
    """Start ``python -m repro.cli <args...>``."""
    return python_child(["-m", "repro.cli"] + list(args), log, **kw)


def ingest_flags(telemetry=True):
    """The one ingest configuration, as CLI flags (``run`` has no
    ``--telemetry`` flag: the daemon always records it)."""
    flags = ["--datasets", *DATASETS, "--k", str(TOPK), "--segments"]
    if telemetry:
        flags.append("--telemetry")
    return flags + ["--detectors"]


def make_workdir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run.", dir=WORK_ROOT)


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds when no other run is live
    except OSError:
        pass


# -- statistics ---------------------------------------------------------


def percentile(values, q):
    """The *q*-th percentile (0..100) with linear interpolation between
    closest ranks -- the same rule as ``numpy.percentile``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def mean(values):
    return sum(values) / len(values)


def tree_digest(directory):
    """sha256 over the sorted TSV tree, ``_platform*`` excluded.

    File names and bytes both feed the hash, so a missing, extra,
    renamed or changed window all show.  ``_platform`` carries wall
    clock timings and segment sidecars carry inode numbers; neither
    can repeat, so neither is hashed.
    """
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".tsv") or name.startswith("_platform"):
            continue
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def calibration_loops_per_s(loops=2_000_000):
    """A fixed pure-Python loop, so that result files from different
    machines can be told apart.  Information only, never a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return loops / (time.perf_counter() - started)


class SpeedMeter:
    """What the box does while the program runs.

    The box this was written on shares its host: identical work takes
    0.8 s, then 1.3-1.9 s for ten to sixty seconds, then 0.8 s again,
    and steal time shows none of it.  A 30 s run sits inside one such
    spell, so no estimator within the run can see it.

    One ``speed_sampler.py`` child per core therefore samples, ten
    times a second and for about 5 ms, what three fixed loops cost in
    CPU time on that core.  :meth:`speed` is the box's speed over a
    bracket of ``time.monotonic()`` stamps, as a share of the reference
    box's; a time measured over that bracket, multiplied by it, is in
    *seconds of the reference box*.  Over seven minutes of two jobs
    taking turns on a pinned core, each job's quartile spread was 29 %
    and 22 % of its median on the stopwatch and 5 % and 4 % in
    reference seconds, and the jobs slowed as the loops did (exponent
    0.97 and 1.02).  The samplers take 5-8 % of each core, the same
    share on every commit.
    """

    def __init__(self, workdir):
        sampler = os.path.join(HERE, "speed_sampler.py")
        self.children = {}
        for cpu in _CPUS:
            log = os.path.join(workdir, "speed.cpu%d" % cpu)
            self.children[cpu] = Child(
                [sys.executable, sampler, log + ".samples"], log,
                cpus={cpu})

    def samples(self, cpus):
        found = []
        for cpu in sorted(cpus or _CPUS):
            try:
                with open(self.children[cpu].log + ".samples",
                          encoding="ascii") as fh:
                    lines = fh.read().splitlines()
            except OSError:
                continue
            for line in lines:
                fields = line.split()
                if len(fields) == 2:  # the last line may be half written
                    found.append((float(fields[0]), float(fields[1])))
        return found

    def speed(self, since, until, cpus=None):
        """Mean speed of *cpus* (all, when None) between two
        ``time.monotonic()`` stamps; when the bracket is shorter than
        the sampling period, the samples nearest to it."""
        found = self.samples(cpus)
        if not found:
            raise PhaseFailed("the speed meter has no sample")
        inside = [slow for stamp, slow in found if since <= stamp <= until]
        if len(inside) < 3:
            middle = (since + until) / 2
            found.sort(key=lambda sample: abs(sample[0] - middle))
            inside = [slow for _, slow in found[:3]]
        return 1.0 / mean(inside)

    def stop(self):
        for child in self.children.values():
            child.kill()
