"""Tests for the TSV time-series file format."""

import pytest

from repro.observatory.tsv import (
    GRANULARITIES,
    TimeSeriesData,
    escape_key,
    filename_for,
    list_series,
    parse_filename,
    read_series,
    read_tsv,
    unescape_key,
    write_tsv,
)


def sample_data(start=60, dataset="srvip", granularity="minutely"):
    rows = [
        ("192.0.2.1", {"hits": 100, "ok": 90, "delay_q50": 12.5}),
        ("192.0.2.2", {"hits": 50, "ok": 40, "delay_q50": 30.0}),
    ]
    return TimeSeriesData(dataset, granularity, start,
                          columns=["hits", "ok", "delay_q50"],
                          rows=rows, stats={"seen": 200, "kept": 150})


class TestFilenames:
    def test_roundtrip(self):
        name = filename_for("srvip", "minutely", 86400)
        assert parse_filename(name) == ("srvip", "minutely", 86400)

    def test_encodes_granularity_and_time(self):
        assert filename_for("qname", "hourly", 3600) == \
            "qname.hourly.0000003600.tsv"

    def test_dataset_with_dot(self):
        name = filename_for("srvip.v6", "daily", 0)
        assert parse_filename(name) == ("srvip.v6", "daily", 0)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            filename_for("srvip", "weekly", 0)

    def test_rejects_unparseable(self):
        with pytest.raises(ValueError):
            parse_filename("notaseries.txt")
        with pytest.raises(ValueError):
            parse_filename("x.weekly.000.tsv")


class TestReadWrite:
    def test_roundtrip(self, tmp_path):
        data = sample_data()
        path = write_tsv(str(tmp_path), data)
        back = read_tsv(path)
        assert back.dataset == "srvip"
        assert back.granularity == "minutely"
        assert back.start_ts == 60
        assert back.columns == data.columns
        assert back.rows[0][0] == "192.0.2.1"
        assert back.rows[0][1]["hits"] == 100
        assert back.rows[0][1]["delay_q50"] == 12.5
        assert back.stats == {"seen": 200, "kept": 150}

    def test_header_and_stats_rows(self, tmp_path):
        path = write_tsv(str(tmp_path), sample_data())
        lines = open(path).read().splitlines()
        assert lines[0].startswith("key\t")
        assert lines[-1].startswith("#stats")

    def test_rank_order_preserved(self, tmp_path):
        path = write_tsv(str(tmp_path), sample_data())
        back = read_tsv(path)
        assert [k for k, _ in back.rows] == ["192.0.2.1", "192.0.2.2"]

    def test_missing_column_written_as_zero(self, tmp_path):
        data = TimeSeriesData("x", "minutely", 0, columns=["hits", "ok"],
                              rows=[("k", {"hits": 3})])
        back = read_tsv(write_tsv(str(tmp_path), data))
        assert back.rows[0][1]["ok"] == 0

    def test_row_map(self):
        assert sample_data().row_map()["192.0.2.2"]["hits"] == 50

    def test_len(self):
        assert len(sample_data()) == 2


class TestHostileKeys:
    """A qname key may contain tabs/newlines (legal in DNS wire format
    and attacker-controlled); unescaped it would corrupt its own row
    and every row after it."""

    HOSTILE = "evil\tname.\nexample\\com\r."

    def test_escape_unescape_roundtrip(self):
        for key in (self.HOSTILE, "plain.example.com", "trailing\\",
                    "\t", "\n\n", "a\\tb"):
            assert unescape_key(escape_key(key)) == key

    def test_escaped_key_is_single_field_single_line(self):
        escaped = escape_key(self.HOSTILE)
        assert "\t" not in escaped and "\n" not in escaped \
            and "\r" not in escaped

    def test_plain_keys_unchanged(self):
        assert escape_key("ns1.example.com") == "ns1.example.com"
        assert unescape_key("ns1.example.com") == "ns1.example.com"

    def test_hostile_qname_file_roundtrip(self, tmp_path):
        data = TimeSeriesData(
            "qname", "minutely", 0, columns=["hits", "ok"],
            rows=[(self.HOSTILE, {"hits": 7, "ok": 6}),
                  ("after.example.com", {"hits": 3, "ok": 2})],
            stats={"seen": 10, "kept": 10})
        back = read_tsv(write_tsv(str(tmp_path), data))
        assert [key for key, _ in back.rows] == \
            [self.HOSTILE, "after.example.com"]
        assert back.rows[0][1] == {"hits": 7, "ok": 6}
        assert back.rows[1][1] == {"hits": 3, "ok": 2}
        assert back.stats == {"seen": 10, "kept": 10}


class TestStrictReads:
    def test_short_row_raises_with_line_number(self, tmp_path):
        path = write_tsv(str(tmp_path), sample_data())
        lines = open(path).read().splitlines()
        lines[2] = "short.example.com\t1"  # drops 2 of 3 columns
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3.*expected 4.*got 2"):
            read_tsv(path)

    def test_long_row_raises(self, tmp_path):
        path = write_tsv(str(tmp_path), sample_data())
        with open(path, "a") as fh:
            fh.write("long.example.com\t1\t2\t3\t4\n")
        with pytest.raises(ValueError, match="expected 4.*got 5"):
            read_tsv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN",
                                      "Infinity", "1e400"])
    def test_non_finite_cell_reads_as_text(self, tmp_path, cell):
        """nan and +-inf parse as floats but have no JSON form: a cell
        that spells one is text, like any cell that is no number."""
        path = write_tsv(str(tmp_path), sample_data())
        text = open(path).read().replace("seen=200", "seen=%s" % cell)
        lines = text.splitlines()
        lines[2] = "192.0.2.2\t50\t%s\t30.0" % cell
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        back = read_tsv(path)
        assert back.rows[1][1]["ok"] == cell
        assert back.stats["seen"] == cell

    def test_non_finite_float_is_kept_as_its_text(self, tmp_path):
        """A producer's nan or +-inf is held as the text its file
        reads back as, so the window in memory is its file."""
        data = TimeSeriesData(
            "srvip", "minutely", 0, columns=["v"],
            rows=[("k%d" % i, {"v": cell}) for i, cell in
                  enumerate([float("inf"), float("-inf"), float("nan")])])
        assert data.column("v") == ["inf", "-inf", "nan"]
        assert read_tsv(write_tsv(str(tmp_path), data)).column("v") == \
            data.column("v")

    def test_empty_field_parses_as_zero(self, tmp_path):
        path = write_tsv(str(tmp_path), sample_data())
        lines = open(path).read().splitlines()
        lines[1] = "192.0.2.1\t100\t\t12.5"  # empty "ok" column
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        back = read_tsv(path)
        assert back.rows[0][1]["ok"] == 0
        assert back.rows[0][1]["hits"] == 100

    def test_string_cells_that_spell_numbers_are_normalized(self, tmp_path):
        """A window's cells are what its file reads back as, so a
        producer's numeric-looking *string* is stored as that number
        and renders like one (``"1.5"`` used to be written verbatim);
        text that is no number, and bools, stay as their text."""
        cells = ["1.5", "007", "1e5", " 4 ", "2.0", "n/a", True]
        data = TimeSeriesData(
            "srvip", "minutely", 0, columns=["v"],
            rows=[("k%d" % i, {"v": cell}) for i, cell in enumerate(cells)])
        assert data.column("v") == [1.5, 7, 100000, 4, 2, "n/a", "True"]
        path = write_tsv(str(tmp_path), data)
        assert open(path).read().splitlines()[1:-1] == [
            "k0\t1.5000", "k1\t7", "k2\t100000", "k3\t4", "k4\t2",
            "k5\tn/a", "k6\tTrue"]
        assert read_tsv(path).column("v") == data.column("v")


class TestListSeries:
    def test_sorted_and_filtered(self, tmp_path):
        for start in (120, 60):
            write_tsv(str(tmp_path), sample_data(start=start))
        write_tsv(str(tmp_path), sample_data(start=0, dataset="qname"))
        (tmp_path / "junk.txt").write_text("ignore me")
        all_series = list_series(str(tmp_path))
        assert len(all_series) == 3
        srvip = list_series(str(tmp_path), dataset="srvip")
        assert [s[3] for s in srvip] == [60, 120]
        assert list_series(str(tmp_path), granularity="hourly") == []

    def test_missing_directory(self):
        assert list_series("/nonexistent/path") == []

    def test_time_range_filter(self, tmp_path):
        for start in (0, 60, 120, 180):
            write_tsv(str(tmp_path), sample_data(start=start))
        starts = lambda **kw: [s[3] for s in  # noqa: E731
                               list_series(str(tmp_path), "srvip",
                                           "minutely", **kw)]
        assert starts(start_ts=60) == [60, 120, 180]
        assert starts(end_ts=120) == [0, 60]
        assert starts(start_ts=60, end_ts=180) == [60, 120]
        # Overlap semantics: a window straddling the range start is in.
        assert starts(start_ts=90, end_ts=121) == [60, 120]
        assert starts(start_ts=1000) == []

    def test_time_range_respects_granularity_length(self, tmp_path):
        write_tsv(str(tmp_path),
                  sample_data(start=0, granularity="hourly"))
        # The hourly window [0, 3600) overlaps a range starting at 1800.
        assert list_series(str(tmp_path), "srvip", "hourly",
                           start_ts=1800)
        assert list_series(str(tmp_path), "srvip", "hourly",
                           start_ts=3600) == []


class TestRangeReadSeries:
    def test_default_reads_everything(self, tmp_path):
        for start in (0, 60, 120):
            write_tsv(str(tmp_path), sample_data(start=start))
        assert [s.start_ts for s in read_series(str(tmp_path), "srvip")] \
            == [0, 60, 120]

    def test_range_skips_out_of_window_files(self, tmp_path):
        for start in (0, 60, 120, 180):
            write_tsv(str(tmp_path), sample_data(start=start))
        loaded = read_series(str(tmp_path), "srvip",
                             start_ts=60, end_ts=180)
        assert [s.start_ts for s in loaded] == [60, 120]

    def test_range_filter_never_opens_excluded_files(self, tmp_path):
        write_tsv(str(tmp_path), sample_data(start=0))
        # A corrupt out-of-range file must not be touched by the query.
        bad = tmp_path / "srvip.minutely.0000864000.tsv"
        bad.write_text("not\ta\tseries\n")
        loaded = read_series(str(tmp_path), "srvip", end_ts=60)
        assert [s.start_ts for s in loaded] == [0]


class TestAtomicWrites:
    def test_final_path_only_appears_via_replace(self, tmp_path,
                                                 monkeypatch):
        import os
        observed = {}
        real_replace = os.replace

        def checked_replace(src, dst):
            observed["src"] = src
            observed["final_missing_before_replace"] = \
                not os.path.exists(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", checked_replace)
        path = write_tsv(str(tmp_path), sample_data())
        assert observed["final_missing_before_replace"]
        assert observed["src"].startswith(path + ".tmp.")
        assert read_tsv(path).stats == {"seen": 200, "kept": 150}
        # No stranded temporaries.
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [os.path.basename(path)]

    def test_failed_write_leaves_directory_clean(self, tmp_path,
                                                 monkeypatch):
        import os

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            write_tsv(str(tmp_path), sample_data())
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_reader_while_writer_never_sees_torn_window(self, tmp_path):
        """Regression: a reader polling the directory while a writer
        rewrites windows must only ever parse complete files (the old
        direct-to-final-path writer let ``read_tsv`` observe a header
        with half the rows and no ``#stats`` line)."""
        import threading

        # Big enough that a non-atomic write spans several buffer
        # flushes, giving the reader a real window to catch a torn file.
        rows = [("key-%05d" % i, {"hits": i, "ok": i, "delay_q50": 0.5})
                for i in range(4000)]
        errors = []
        done = threading.Event()

        def writer():
            try:
                for round_no in range(12):
                    data = TimeSeriesData(
                        "srvip", "minutely", 60, columns=rows[0][1].keys(),
                        rows=rows, stats={"seen": round_no, "kept": round_no})
                    write_tsv(str(tmp_path), data)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while not done.is_set():
                for _, _, _, _ in list_series(str(tmp_path), "srvip"):
                    pass
                for path, _, _, _ in list_series(str(tmp_path), "srvip"):
                    try:
                        data = read_tsv(path)
                    except FileNotFoundError:
                        continue  # listed before a replace, gone after
                    if len(data.rows) != len(rows) or "seen" not in data.stats:
                        errors.append("torn read: %d rows, stats %r"
                                      % (len(data.rows), data.stats))
        finally:
            thread.join()
        assert not errors, errors[:3]


def test_granularity_chain_consistent():
    assert GRANULARITIES["decaminutely"] == 10 * GRANULARITIES["minutely"]
    assert GRANULARITIES["hourly"] == 6 * GRANULARITIES["decaminutely"]
    assert GRANULARITIES["daily"] == 24 * GRANULARITIES["hourly"]
