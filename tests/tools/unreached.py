"""Reachability report: the surface of ``src/repro`` no traffic reaches.

``tests/tools/traffic.sh`` is the program's traffic (every CLI
subcommand and flag group, the paper benches, the ledger, the
examples; ``tests/`` is not traffic).  This tool runs it with a
``sys.setprofile`` hook installed in every Python process it starts,
and prints, minus what ``unreached_allow.txt`` annotates with a reason:

* every function of ``src/repro`` the hook never saw enter;
* every defaulted parameter of an entered function that no call set
  away from its default (``path:Qual.name(param)``);
* every flag of the ``repro`` CLI that no parse set away from its
  default (``--flag``).

    python tests/tools/unreached.py              # run traffic, report
    python tests/tools/unreached.py --traces DIR # reuse/keep trace files

Exit 1 when anything is reported, or when an allow line names a
function, parameter or flag that no longer exists.
"""

import argparse
import ast
import contextlib
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src", "repro")
TRAFFIC = os.path.join(HERE, "traffic.sh")
ALLOW = os.path.join(HERE, "unreached_allow.txt")
# or "paper §x.y"
REASONS = ("safety", "capacity", "oracle", "debug", "deploy")

# Children are covered only because this runs at *their* interpreter
# start: a sitecustomize.py in a directory on PYTHONPATH (the ledger
# harness prepends src but keeps inherited entries, so it survives).
# Each finding is written once to a line-buffered per-pid file, because
# forked shard workers leave through os._exit:
#   path:line          the function starting there was entered
#   path:line(param)   a call set that defaulted parameter away from
#                      its default (identity for None and bools, else
#                      == and the same type)
#   --flag             a parse by code under the source root set it
#                      away from its default
# A code object is looked at until every defaulted parameter it has was
# seen set, in this process or (read at interpreter start) in one that
# wrote its traces earlier; the function behind it is found from its
# co_qualname in its module's globals (no function with defaults is
# nested in another).
HOOK = '''
import argparse, os, sys, threading
_root, _out = os.environ["UNREACHED_SOURCE"], os.environ["UNREACHED_TRACES"]
_state, _file, _known = {}, [None, None], set()
_NEW = object()
for _name in os.listdir(_out):
    with open(os.path.join(_out, _name)) as _fh:
        _known.update(line[:-1] for line in _fh if line.endswith(")\\n"))

def _write(line):
    if _file[0] != os.getpid():  # a forked child gets its own file
        _file[:] = os.getpid(), open(
            os.path.join(_out, "%d.trace" % os.getpid()), "a", buffering=1)
    _file[1].write(line + "\\n")

def _differs(value, default):
    if default is None or default is True or default is False:
        return value is not default
    try:
        return type(value) is not type(default) or bool(value != default)
    except Exception:
        return True

def _function(frame, code):
    obj = frame.f_globals
    for part in code.co_qualname.split("."):
        obj = obj.get(part) if isinstance(obj, dict) \\
            else getattr(obj, "__dict__", {}).get(part)
    for candidate in (obj, getattr(obj, "__func__", None),
                      getattr(obj, "fget", None), getattr(obj, "fset", None)):
        while candidate is not None:
            if getattr(candidate, "__code__", None) is code:
                return candidate
            candidate = getattr(candidate, "__wrapped__", None)
    return None

def _pending(frame, code):
    site = "%s:%d" % (code.co_filename[len(_root) + 1:], code.co_firstlineno)
    _write(site)
    function = _function(frame, code)
    if function is None:
        return None
    defaults = function.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
    pending = [(site, name, default) for name, default in
               list(zip(names, defaults))
               + list((function.__kwdefaults__ or {}).items())
               if "%s(%s)" % (site, name) not in _known]
    return pending or None

def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    pending = _state.get(code, _NEW)
    if pending is None:
        return
    if pending is _NEW:
        pending = _state[code] = _pending(frame, code) \\
            if code.co_filename.startswith(_root) else None
        if pending is None:
            return
    values = frame.f_locals
    for item in pending[:]:
        site, name, default = item
        if _differs(values.get(name, default), default):
            pending.remove(item)
            _write("%s(%s)" % (site, name))
    if not pending:
        _state[code] = None

_parse_args = argparse.ArgumentParser.parse_args

def _flags_set(self, *args, **kwargs):
    namespace = _parse_args(self, *args, **kwargs)
    if sys._getframe(1).f_code.co_filename.startswith(_root):
        for parser, action in _actions(self, namespace):
            default = action.default
            if isinstance(default, str):
                default = parser._get_value(action, default)
            if _differs(getattr(namespace, action.dest, default), default):
                _write(max(action.option_strings, key=len))
    return namespace

def _actions(parser, namespace):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            chosen = action.choices.get(getattr(namespace, action.dest, None))
            if chosen is not None:
                yield from _actions(chosen, namespace)
        elif action.option_strings and action.default != argparse.SUPPRESS:
            yield parser, action

argparse.ArgumentParser.parse_args = _flags_set
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def functions(source=SOURCE):
    """``{(path, first line): "path:Qual.name"}`` for every function
    under *source*; a decorated function reports its first decorator's
    line, as its code object does."""
    return {site: name for site, (name, _) in _definitions(source).items()}


def parameters(source=SOURCE):
    """``{(path, first line): ["path:Qual.name(param)", ...]}``: every
    parameter with a default, per function under *source*."""
    return {site: ["%s(%s)" % (name, param) for param in params]
            for site, (name, params) in _definitions(source).items()}


def _definitions(source):
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
                        found[relative, line] = (
                            "%s:%s" % (relative, name), _defaulted(child))
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _defaulted(function):
    args = function.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [arg.arg for arg in named]


def flags(parser):
    """Every option string argparse *parser* and its subparsers take
    (the longest of each action's spellings), help aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= flags(sub)
        elif action.option_strings and action.default != argparse.SUPPRESS:
            found.add(max(action.option_strings, key=len))
    return found


def repro_flags():
    sys.path.insert(0, os.path.dirname(SOURCE))
    from repro.cli import build_parser

    return flags(build_parser())


def load_allow(path=ALLOW):
    """``{"path:Qual.name": reason}``, with ``path:Qual.name(param)``
    and ``--flag`` keys for parameters and flags; raises ValueError on
    a line that does not parse or carries a reason outside the closed
    set."""
    allowed = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, _, reason = line.partition("  ")
            reason = reason.strip()
            if not _is_name(name) or not (
                    reason in REASONS or reason.startswith("paper §")):
                raise ValueError(
                    "%s:%d: expected 'path:function  reason', "
                    "'path:function(param)  reason' or '--flag  reason', "
                    "got %r" % (path, number, line))
            allowed[name] = reason
    return allowed


def _is_name(name):
    if name.startswith("--"):
        return len(name) > 2 and " " not in name
    path, colon, function = name.partition(":")
    if function.endswith(")"):
        function, _, param = function[:-1].partition("(")
        if not param.isidentifier():
            return False
    return bool(colon and path.endswith(".py")) and all(
        part.isidentifier() for part in function.split("."))


def run_traffic(script, source, traces):
    """Run bash *script* (argument: a work directory) with the hook in
    every Python process, writing trace files for *source* to *traces*."""
    with tempfile.TemporaryDirectory(prefix="unreached-hook-") as hook_dir, \
            tempfile.TemporaryDirectory(prefix="unreached-work-") as work:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, UNREACHED_SOURCE=source,
                   UNREACHED_TRACES=traces,
                   PYTHONPATH=os.pathsep.join(filter(None, [hook_dir,
                                                            inherited])))
        subprocess.run(["bash", script, work], cwd=ROOT, env=env, check=True)


def report(traces, source, allow, known_flags):
    """Print what the trace files in *traces* leave unreached or unset
    in *source* and the *known_flags*, minus the *allow* file; returns
    the exit status."""
    reached, params_set, flags_set = set(), set(), set()
    for path in glob.glob(os.path.join(traces, "*.trace")):
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("--"):
                    flags_set.add(line)
                    continue
                relative, _, rest = line.rpartition(":")
                number, _, param = rest.partition("(")
                if param:
                    params_set.add((relative, int(number), param[:-1]))
                else:
                    reached.add((relative, int(number)))
    definitions = _definitions(source)
    allowed = load_allow(allow)
    names = {name for name, _ in definitions.values()}
    params = {}
    for site, (name, defaulted) in definitions.items():
        for param in defaulted:
            params["%s(%s)" % (name, param)] = site + (param,)
    unreached = sorted(name for site, (name, _) in definitions.items()
                       if site not in reached and name not in allowed)
    entered = {name: site for name, site in params.items()
               if site[:2] in reached}
    unset = sorted(name for name, site in entered.items()
                   if site not in params_set and name not in allowed)
    unset_flags = sorted(flag for flag in known_flags
                         if flag not in flags_set and flag not in allowed)
    stale = sorted(name for name in allowed if name not in names
                   and name not in params and name not in known_flags)
    for name in unreached:
        print("unreached  %s" % name)
    for name in unset:
        print("unset  %s" % name)
    for flag in unset_flags:
        print("unset  %s" % flag)
    for name in stale:
        print("stale allow-list line  %s" % name)
    print("%d functions, %d reached, %d unreached; "
          "%d defaulted parameters entered, %d set, %d unset; "
          "%d flags, %d set, %d unset; %d allowed, %d stale"
          % (len(definitions), len(set(definitions) & reached),
             len(unreached), len(entered),
             len(set(entered.values()) & params_set), len(unset),
             len(known_flags), len(flags_set & set(known_flags)),
             len(unset_flags), len(allowed), len(stale)), file=sys.stderr)
    return 1 if unreached or unset or unset_flags or stale else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traces", metavar="DIR", default=None,
                        help="keep trace files in DIR; when DIR already "
                             "holds traces, report from them without "
                             "running the traffic again")
    args = parser.parse_args(argv)
    with contextlib.nullcontext(args.traces) if args.traces else \
            tempfile.TemporaryDirectory(prefix="unreached-traces-") as traces:
        traces = os.path.abspath(traces)
        os.makedirs(traces, exist_ok=True)
        if not glob.glob(os.path.join(traces, "*.trace")):
            run_traffic(TRAFFIC, SOURCE, traces)
        return report(traces, SOURCE, ALLOW, repro_flags())


if __name__ == "__main__":
    sys.exit(main())
