"""The reach tool's parameter and flag half, on a synthetic tree: a
two-function package, a traffic script that calls it, and an allow
file, run through the same hook ``tests/tools/unreached.py`` installs
for the real traffic."""

import os
import sys
import tempfile
import textwrap

import pytest

from tests.tools import unreached

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="the hook finds a code object's function by co_qualname")

MODULE = '''
import argparse


def scale(x, factor=2, label=None):
    return x * factor


class Box:
    def __init__(self, size=1, strict=False):
        self.size = size


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--loud", action="store_true")
    parser.add_argument("--name", default="x")
    return parser.parse_args(argv)
'''

# factor and strict are set away from their defaults; size is passed,
# but equal to its default; label is never passed; --name never given
TRAFFIC = '''
cd "%s"
python -c "
import pkg.mod as m
m.scale(3, factor=5)
m.scale(3, factor=2)
m.Box(size=1, strict=True)
m.main(['--loud'])
"
'''


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("reach")
    source = root / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "__init__.py").write_text("")
    (source / "mod.py").write_text(MODULE)
    script = root / "traffic.sh"
    script.write_text(TRAFFIC % (root / "src"))
    traces = root / "traces"
    traces.mkdir()
    unreached.run_traffic(str(script), str(source), str(traces))
    return root, str(source), str(traces)


def report(traced, allow_lines, capsys):
    root, source, traces = traced
    allow = root / "allow.txt"
    allow.write_text(textwrap.dedent(allow_lines))
    status = unreached.report(traces, source, str(allow),
                              {"--loud", "--name"})
    return status, capsys.readouterr().out.splitlines()


def test_unset_parameters_and_flags_are_reported(traced, capsys):
    status, lines = report(traced, "", capsys)
    assert status == 1
    assert sorted(lines) == ["unset  --name",
                             "unset  mod.py:Box.__init__(size)",
                             "unset  mod.py:scale(label)"]


def test_allow_lines_suppress_them(traced, capsys):
    status, lines = report(traced, """
        mod.py:scale(label)  deploy  # an address, say
        mod.py:Box.__init__(size)  capacity
        --name  deploy
        """, capsys)
    assert (status, lines) == (0, [])


def test_a_stale_parameter_line_fails(traced, capsys):
    status, lines = report(traced, """
        mod.py:scale(label)  deploy
        mod.py:Box.__init__(size)  capacity
        --name  deploy
        mod.py:scale(gone)  safety
        --quiet  safety
        """, capsys)
    assert status == 1
    assert lines == ["stale allow-list line  --quiet",
                     "stale allow-list line  mod.py:scale(gone)"]


def test_a_traffic_run_leaves_no_temporary_directory(tmp_path,
                                                     monkeypatch):
    """The hook's ``sitecustomize.py`` directory goes with the work
    directory when the run ends."""
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    script = tmp_path / "traffic.sh"
    script.write_text('test -d "$1"\n')
    unreached.run_traffic(str(script), str(tmp_path), str(tmp_path))
    assert os.listdir(temp) == []


@pytest.mark.parametrize("line", [
    "mod.py:scale(label  deploy",
    "mod.py:scale(label)  tuning",
    "--  deploy",
    "scale(label)  deploy",
])
def test_malformed_allow_lines_are_rejected(tmp_path, line):
    allow = tmp_path / "allow.txt"
    allow.write_text(line + "\n")
    with pytest.raises(ValueError):
        unreached.load_allow(str(allow))
