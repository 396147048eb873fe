"""Reachability report: functions in ``src/repro`` no traffic reaches.

``tests/tools/traffic.sh`` is the program's traffic (every CLI
subcommand and flag group, the paper benches, the ledger, the
examples; ``tests/`` is not traffic).  This tool runs it with a
``sys.setprofile`` hook installed in every Python process it starts,
and prints every function of ``src/repro`` the hook never saw enter,
minus the ones ``unreached_allow.txt`` annotates with a reason.

    python tests/tools/unreached.py              # run traffic, report
    python tests/tools/unreached.py --traces DIR # reuse/keep trace files

Exit 1 when a function is unreached and unannotated, or when an allow
line names a function that no longer exists.  The benches rewrite
``benchmarks/results/`` as always: ``git checkout`` it after a local run.
"""

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src", "repro")
ALLOW = os.path.join(HERE, "unreached_allow.txt")
REASONS = ("safety", "capacity", "oracle", "debug")  # or "paper §x.y"

# Children are covered only because this runs at *their* interpreter
# start: a sitecustomize.py in a directory on PYTHONPATH (the ledger
# harness prepends src but keeps inherited entries, so it survives).
# Each code object is written on first sight to a line-buffered per-pid
# file, because forked shard workers leave through os._exit.
HOOK = '''
import os, sys, threading
_root, _out = os.environ["UNREACHED_SOURCE"], os.environ["UNREACHED_TRACES"]
_seen, _file = set(), [None, None]
def _hook(frame, event, arg):
    code = frame.f_code
    if event != "call" or code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_root):
        if _file[0] != os.getpid():  # a forked child gets its own file
            _file[:] = os.getpid(), open(
                os.path.join(_out, "%d.trace" % os.getpid()), "a", buffering=1)
        _file[1].write("%s:%d\\n" % (code.co_filename[len(_root) + 1:],
                                    code.co_firstlineno))
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def functions(source=SOURCE):
    """``{(path, first line): "path:Qual.name"}`` for every function
    under *source*; a decorated function reports its first decorator's
    line, as its code object does."""
    found = {}
    for path in glob.glob(os.path.join(source, "**", "*.py"), recursive=True):
        relative = os.path.relpath(path, source)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        line = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        found[relative, line] = "%s:%s" % (relative, name)
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def load_allow(path=ALLOW):
    """``{"path:Qual.name": reason}``; raises ValueError on a line that
    does not parse or carries a reason outside the closed set."""
    allowed = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, _, reason = line.partition("  ")
            reason = reason.strip()
            if ":" not in name or not (
                    reason in REASONS or reason.startswith("paper §")):
                raise ValueError("%s:%d: expected 'path:function  reason', "
                                 "got %r" % (path, number, line))
            allowed[name] = reason
    return allowed


def run_traffic(traces):
    hook_dir = tempfile.mkdtemp(prefix="unreached-hook-")
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
        fh.write(HOOK)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, UNREACHED_SOURCE=SOURCE, UNREACHED_TRACES=traces,
               PYTHONPATH=os.pathsep.join(filter(None, [hook_dir, inherited])))
    with tempfile.TemporaryDirectory(prefix="unreached-work-") as work:
        subprocess.run(["bash", os.path.join(HERE, "traffic.sh"), work],
                       cwd=ROOT, env=env, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traces", metavar="DIR", default=None,
                        help="keep trace files in DIR; when DIR already "
                             "holds traces, report from them without "
                             "running the traffic again")
    args = parser.parse_args(argv)
    traces = args.traces or tempfile.mkdtemp(prefix="unreached-traces-")
    os.makedirs(traces, exist_ok=True)
    if not glob.glob(os.path.join(traces, "*.trace")):
        run_traffic(os.path.abspath(traces))
    reached = set()
    for path in glob.glob(os.path.join(traces, "*.trace")):
        with open(path) as fh:
            for line in fh:
                relative, _, number = line.rstrip("\n").rpartition(":")
                reached.add((relative, int(number)))
    known = functions()
    allowed = load_allow()
    names = set(known.values())
    unreached = sorted(name for site, name in known.items()
                       if site not in reached and name not in allowed)
    stale = sorted(name for name in allowed if name not in names)
    for name in unreached:
        print("unreached  %s" % name)
    for name in stale:
        print("stale allow-list line  %s" % name)
    print("%d functions, %d reached, %d allowed, %d unreached, %d stale"
          % (len(known), len(set(known) & reached), len(allowed),
             len(unreached), len(stale)), file=sys.stderr)
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
