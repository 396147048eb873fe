"""Tests for the CSV figure exports."""

import csv

from repro.analysis.delays import (
    delay_cdf,
    letter_stats,
    rank_vs_delay,
)
from repro.analysis.distributions import figure2
from repro.analysis.export import (
    export_figure2,
    export_figure3,
    export_figure4,
    export_figure5,
    export_figure9,
    export_table1,
    export_table2,
)
from repro.analysis.happyeyeballs import figure9
from repro.analysis.asattribution import table1
from repro.analysis.qtypes import table2
from repro.analysis.representativeness import (
    nameservers_over_time,
    vp_sample_curves,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_export_figure2(run, tmp_path):
    dists = figure2(run.store, datasets=("srvip",))
    paths = export_figure2(dists, str(tmp_path), max_rank=50)
    rows = read_csv(paths[0])
    assert rows[0][0] == "rank"
    assert len(rows) == 51
    # CDF columns are monotone.
    cdf = [float(r[2]) for r in rows[1:]]
    assert cdf == sorted(cdf)


def test_export_table1(run, tmp_path):
    topo = run.dns.topology
    rows, total, _ = table1(run.store, topo.asdb, topo.asnames, 10)
    path = export_table1(rows, total, str(tmp_path))
    data = read_csv(path)
    assert data[0][1] == "org"
    assert len(data) == len(rows) + 1


def test_export_table2(run, tmp_path):
    rows, _ = table2(run.store)
    path = export_table2(rows, str(tmp_path))
    data = read_csv(path)
    assert data[1][1] == "A"


def test_export_figure3(run, tmp_path):
    paths = export_figure3(
        delay_cdf(run.store), rank_vs_delay(run.store, group_size=50),
        letter_stats(run.store, run.root_letter_ips()),
        letter_stats(run.store, run.gtld_letter_ips()),
        str(tmp_path))
    assert len(paths) == 4
    for path in paths:
        assert len(read_csv(path)) > 1


def test_export_figure4_and_5(run, tmp_path):
    curves = vp_sample_curves(run.transactions, repetitions=2)
    p4 = export_figure4(curves, str(tmp_path))
    assert len(read_csv(p4)) == len(curves) + 1
    series = nameservers_over_time(run.transactions, step_seconds=60.0)
    p5 = export_figure5(series, str(tmp_path))
    assert len(read_csv(p5)) == len(series) + 1


def test_export_figure9(run, tmp_path):
    points = figure9(run.store, run.negttl_lookup, top_n=100)
    path = export_figure9(points, str(tmp_path))
    data = read_csv(path)
    assert data[0][:2] == ["rank", "fqdn"]
    assert len(data) == len(points) + 1
