"""The same-tree contracts: over each row's input and flags, its
candidate driver writes the tree its reference driver writes."""

import pytest

from tests.differential import (
    DIFF_SEEDS, FLAGS, RETIRED, ROWS, TABLE, drive, parse)


@pytest.mark.parametrize("row", ROWS)
def test_same_tree(row, streams, references, tmp_path):
    input, flags, reference, candidate, runs = parse(row)
    expected = references(input, flags, reference)
    for run in range(runs):
        assert drive(candidate, streams(input), tmp_path / str(run),
                     FLAGS[flags]) == expected, run


def test_every_retired_test_names_a_row():
    """No pair drops out of the table silently: no two table lines
    make the same row, and each retired test's row is in the table."""
    assert len(ROWS) == sum(len(DIFF_SEEDS) if "{}" in line else 1
                            for line in TABLE.split())
    assert sorted(set(RETIRED.values()) - set(ROWS)) == []
