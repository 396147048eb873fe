"""Every same-tree contract as one table of (input x driver pair) rows.

"This path writes the tree that path writes" is the repository's main
correctness tool.  Its three parts live here once:

* **Inputs.**  Per seed in :data:`DIFF_SEEDS`: ``plain-<seed>``,
  ``attacks-<seed>`` (both scripted attacks) and ``mix-<seed>`` (an
  encrypted mix with a vantage db), each simulated once per session,
  as a line file, when a test first asks the :func:`streams` fixture.
* **Drivers.**  One ``@driver`` function ``(stream, out_dir, flags)``
  per way of turning a line file into a tree (:data:`DRIVERS`).  A row
  names one as ``name[/N][+flag...]``: ``replay/2+telemetry`` is
  ``replay --shards 2 --telemetry``.
* **Comparison.**  :func:`tests.util.window_tree`.  The reference tree
  of an (input, flags, reference driver) triple is written once per
  session and shared by every row that compares against it.

A row of :data:`TABLE` reads ``input:flags:reference=candidate``, with
``xN`` when the candidate runs N times.  A new path is one ``@driver``
function and one line in :data:`TABLE`.
"""

import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from tests.util import subprocess_env, window_tree

DIFF_SEEDS = [7, 1017, 2019, 31337, 424242]

#: ``simulate --preset tiny --seed S`` arguments of each input kind
KINDS = {
    "plain": ["--duration", "180", "--qps", "30"],
    "attacks": ["--duration", "300", "--qps", "15", "--attack",
                "tunnel:120:10", "--attack", "watertorture:120:10"],
    "mix": ["--duration", "120", "--qps", "15",
            "--encrypted-fraction", "0.5"],
}


def _flagged(directory):
    from repro.observatory.tsv import read_series

    return sum(row["flagged"]
               for d in read_series(directory, "_detector", "minutely")
               for key, row in d.rows if key in ("exfil", "ddos", "noh"))


#: what every reference tree (and its directory) of an input kind holds:
#: no ``_encrypted`` series from plaintext, attacks that the detectors
#: flag, and the encrypted and vantage series of a mix
KIND_CHECKS = {
    "plain": lambda tree, out: not any(
        name.startswith("_encrypted.") for name in tree),
    "attacks": lambda tree, out: _flagged(out) > 0,
    "mix": lambda tree, out: all(
        any(name.startswith(prefix) for name in tree)
        for prefix in ("_encrypted.", "_vantage_")),
}


class Stream:
    """One simulated line file, the ``simulate`` arguments that wrote
    it, and the flags every driver run over it takes."""

    def __init__(self, name, directory):
        from repro.cli import main as cli_main

        self.kind, seed = name.rsplit("-", 1)
        self.path = os.path.join(directory, name + ".txt")
        self.argv = ["simulate", "--preset", "tiny", "--seed", seed] + \
            KINDS[self.kind]
        self.flags = []
        extra = []
        if self.kind == "mix":
            vantage = os.path.join(directory, name + ".vantage.tsv")
            self.flags = ["--vantage", vantage]
            extra = ["--vantage-db", vantage]
        assert cli_main(self.argv + extra + ["-o", self.path]) == 0


@pytest.fixture(scope="session")
def streams(tmp_path_factory):
    """``streams(name)``: the session's input *name*, simulated on
    first use."""
    directory = str(tmp_path_factory.mktemp("streams"))
    made = {}

    def get(name):
        if name not in made:
            made[name] = Stream(name, directory)
        return made[name]

    return get


# -- drivers --------------------------------------------------------------

#: each driver by the name a row gives it: its function name, ``-`` for
#: ``_``
DRIVERS = {}


def driver(function):
    DRIVERS[function.__name__.replace("_", "-")] = function
    return function


@driver
def replay(stream, out, flags):
    """``replay FILE DIR`` through the CLI, in process."""
    from repro.cli import main as cli_main

    assert cli_main(["replay", stream.path, out] + flags) == 0


def _run(argv, stdin_path):
    """The live daemon, draining its input at full speed, then exiting."""
    with open(stdin_path, "rb") as fh:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "run"] + argv +
            ["--pace", "0", "--port", "0", "--exit-when-done"],
            stdin=fh, env=subprocess_env(), check=True,
            capture_output=True, timeout=120)


@driver
def run_file(stream, out, flags):
    _run([out, "--input", stream.path] + flags, os.devnull)


@driver
def run_stdin(stream, out, flags):
    _run([out, "--input", "-"] + flags, stream.path)


def _in_process(build, stream, out, flags):
    """Feed the line file to the pipeline *build* makes from the
    keyword options ``replay`` passes for *flags*."""
    from repro.cli import _pipeline_options, build_parser
    from repro.observatory.transaction import TransactionLines

    args = build_parser().parse_args(["replay", stream.path, out] + flags)
    obs = build(output_dir=out, telemetry=args.telemetry, encrypted=True,
                **_pipeline_options(args))
    with open(stream.path, "rb") as fh:
        obs.consume(TransactionLines(fh))
    obs.finish()


@driver
def pipeline(stream, out, flags):
    """``build_pipeline(shards=N, output_dir=...)`` in process."""
    from repro.observatory.pipeline import build_pipeline

    _in_process(build_pipeline, stream, out, flags)


@driver
def one_worker(stream, out, flags):
    """A ``ShardedObservatory`` with one worker process."""
    from repro.observatory.sharded import ShardedObservatory

    def build(shards, segments, **options):
        obs = ShardedObservatory(shards=1, **options)
        obs.emitter.segments = segments
        return obs

    _in_process(build, stream, out, flags)


#: what a flag leaves in the directory, so that no row passes on a
#: switch that did nothing
FLAG_FILES = {"--segments": lambda name: name.endswith(".seg"),
              "--detectors": lambda name: name.startswith("_detector."),
              "--telemetry": lambda name: name.startswith("_platform.")}


def drive(spec, stream, out, flags):
    """Run driver *spec* over *stream* with *flags* into *out*; returns
    the tree it wrote."""
    head, *extra = spec.split("+")
    name, _, shards = head.partition("/")
    flags = stream.flags + flags + (["--shards", shards] if shards else []) \
        + ["--" + flag for flag in extra]
    DRIVERS[name](stream, str(out), flags)
    names = os.listdir(str(out))
    assert any(name.startswith("srvip.") for name in names), spec
    for flag, written in FLAG_FILES.items():
        assert flag not in flags or any(map(written, names)), (spec, flag)
    return window_tree(str(out))


# -- the table ------------------------------------------------------------

#: six datasets and the always-armed ``_encrypted``: seven channels,
#: so two and three workers each own several trackers
ALL = ["--datasets", "srvip", "qname", "esld", "qtype", "rcode", "aafqdn"]

FLAGS = {
    "default": [],
    "k50": ["--k", "50"],
    "w2": ["--window", "2"],
    "two": ["--datasets", "srvip", "qtype", "--k", "500"],
    "detectors": ["--detectors"],
    "live": ["--window", "12", "--segments", "--detectors"],
    "all-seg": ALL + ["--segments"],
    "all-k50-seg": ALL + ["--k", "50", "--segments"],
    "all-k50-det": ALL + ["--k", "50", "--detectors"],
    "all-det": ALL + ["--detectors"],
}

#: ``{}`` stands for each seed of DIFF_SEEDS.  ``plain-7:w2`` has 2 s
#: windows, where most cache entries are in-window inserts (counted,
#: not folded); ``replay/3x4`` is the same command writing the same
#: bytes run after run; ``plain-{}:default:replay=replay`` replays the
#: bytes an encrypted-capable scenario at fraction 0 also writes; the
#: ``live`` rows' 15 windows each end on a boundary line that ``run``
#: hands over inside a batch
TABLE = """
plain-{}:all-seg:replay=replay/2+telemetry
plain-{}:all-seg:replay=replay/3+telemetry
plain-{}:all-k50-seg:replay=replay/2+telemetry
plain-{}:all-k50-seg:replay=replay/3+telemetry
plain-{}:all-k50-det:replay/3=replay/3x4
plain-{}:default:replay=replay
attacks-{}:detectors:replay=replay/2
mix-{}:default:replay=replay/2
mix-{}:default:replay=replay/3
mix-{}:k50:replay=replay/2
mix-{}:k50:replay=replay/3
plain-7:default:replay=replay/2
plain-7:default:replay=replay/3x2
plain-7:w2:replay=replay/3
plain-2019:two:replay=replay/2
plain-2019:two:replay=replay/8
plain-1017:live:replay+telemetry=run-file
plain-1017:live:replay+telemetry=run-stdin
plain-1017:live:replay/2+telemetry=run-file/2
plain-1017:live:replay/2+telemetry=run-stdin/2
plain-31337:default:pipeline=pipeline/2
mix-424242:all-det:pipeline=one-worker
"""

ROWS = list(dict.fromkeys(
    line.format(seed) for line in TABLE.split() for seed in DIFF_SEEDS))


def parse(row):
    """``(input, flags, reference, candidate, runs)`` of a row."""
    input, flags, pair = row.split(":")
    reference, candidate = pair.split("=")
    candidate, runs = re.fullmatch(r"(.*?)(?:x(\d+))?", candidate).groups()
    return input, flags, reference, candidate, int(runs or 1)


#: each retired same-tree test and the row that holds its pair (the
#: first, when it compared several)
RETIRED = {
    "tests/test_cli.py::test_replay_sharded_matches_single":
        "plain-2019:two:replay=replay/2",
    "tests/test_daemon.py::test_daemon_writes_the_replay_tree[1]":
        "plain-1017:live:replay+telemetry=run-file",
    "tests/test_daemon.py::test_daemon_writes_the_replay_tree[2]":
        "plain-1017:live:replay/2+telemetry=run-file/2",
    "tests/observatory/test_sharded.py::TestShardedMechanics::"
    "test_tsv_output_matches_single":
        "plain-31337:default:pipeline=pipeline/2",
    "tests/observatory/test_sharded.py::TestOneMergePoint::"
    "test_one_shard_tree_equals_single_process":
        "mix-424242:all-det:pipeline=one-worker",
}
for _seed in DIFF_SEEDS:
    for _test, _row in (
            ("sharded_replay_matches_single_process",
             "plain-{}:all-seg:replay=replay/2+telemetry"),
            ("sharded_replay_repeats", "plain-{}:all-k50-det:"
             "replay/3=replay/3x4"),
            ("sharded_detector_series_bit_identical",
             "attacks-{}:detectors:replay=replay/2"),
            ("sharded_encrypted_and_vantage_bit_identical",
             "mix-{}:default:replay=replay/2")):
        RETIRED["tests/test_properties.py::test_%s[%d]" % (_test, _seed)] \
            = _row.format(_seed)


@pytest.fixture(scope="session")
def references(tmp_path_factory, streams):
    """``references(input, flags, reference)``: its tree, written on
    first use and dropped after the last row that compares with it."""
    directory = tmp_path_factory.mktemp("references")
    trees, left = {}, Counter(parse(row)[:3] for row in ROWS)

    def tree(*key):
        if key not in trees:
            stream = streams(key[0])
            out = directory / "-".join(key).replace("/", "_")
            trees[key] = drive(key[2], stream, out, FLAGS[key[1]])
            assert KIND_CHECKS[stream.kind](trees[key], str(out)), key
        left[key] -= 1
        return trees[key] if left[key] > 0 else trees.pop(key)

    return tree
