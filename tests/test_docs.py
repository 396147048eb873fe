"""Documentation integrity: the docs must match the repository."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["README.md", "DESIGN.md",
                                  "EXPERIMENTS.md"])
def test_doc_exists_and_nonempty(name):
    text = read(name)
    assert len(text) > 1000


def test_design_references_existing_benches():
    text = read("DESIGN.md")
    for match in re.findall(r"benchmarks/(bench_\w+\.py)", text):
        assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match


def test_experiments_references_existing_benches():
    text = read("EXPERIMENTS.md")
    for match in re.findall(r"bench_\w+\.py", text):
        assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match


def test_readme_examples_exist():
    text = read("README.md")
    for match in re.findall(r"`(\w+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, "examples", match)), match


def test_design_module_map_matches_source():
    """Every module named in DESIGN.md's inventory exists on disk."""
    text = read("DESIGN.md")
    section = text.split("## 3. System inventory")[1].split("## 4.")[0]
    for line in section.splitlines():
        match = re.match(r"\s+(\w+\.py)\s", line)
        if not match:
            continue
        name = match.group(1)
        hits = []
        for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
            if name in files:
                hits.append(dirpath)
        assert hits, "DESIGN.md names missing module %s" % name


def test_every_experiment_has_a_bench():
    """DESIGN.md's per-experiment index must map to real bench files."""
    text = read("DESIGN.md")
    section = text.split("## 4. Per-experiment index")[1].split("## 5.")[0]
    benches = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", section))
    assert len(benches) >= 15
    for bench in benches:
        assert os.path.exists(os.path.join(ROOT, "benchmarks", bench)), bench


def test_all_benches_are_documented():
    """Every bench file appears in DESIGN.md or EXPERIMENTS.md."""
    docs = read("DESIGN.md") + read("EXPERIMENTS.md")
    for name in os.listdir(os.path.join(ROOT, "benchmarks")):
        if name.startswith("bench_") and name.endswith(".py"):
            assert name in docs, "%s is undocumented" % name


def test_unreached_allow_list_names_real_functions():
    """Every line of ``tests/tools/unreached_allow.txt`` parses, carries
    a reason from the closed set (``load_allow`` raises otherwise) and
    names a function that exists; whether the list is *complete* is the
    CI ``reach`` job's question (it has to run the traffic)."""
    from tests.tools import unreached

    allowed = unreached.load_allow()
    assert allowed
    known = set(unreached.functions().values())
    assert sorted(name for name in allowed if name not in known) == []
    # each paper-experiment entry has its sentence in DESIGN §4
    design = read("DESIGN.md")
    section = design.split("## 4. Per-experiment index")[1].split("## 5.")[0]
    for name, reason in allowed.items():
        if reason.startswith("paper"):
            function = name.split(":")[1].split(".")[0]
            assert function in section, "%s is not in DESIGN §4" % name
