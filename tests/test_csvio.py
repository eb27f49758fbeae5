"""Tests for the chunked CSV writer against a one-row-at-a-time reference."""

import numpy as np
import pytest

from vlcsim import csvio

CHUNK = csvio._CHUNK_ROWS


def reference_csv(path, header, columns):
    """The format written one row at a time: str() for index ranges, repr(float(x)) else."""
    rows = min((len(col) for col in columns), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(str(col[i]) if isinstance(col, range) else repr(float(col[i]))
                              for col in columns) + "\n")


def assert_same_bytes(tmp_path, header, columns):
    csvio.write_csv(tmp_path / "chunked.csv", header, columns)
    reference_csv(tmp_path / "reference.csv", header, columns)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_row_counts_around_the_chunk_size(tmp_path, rows):
    rng = np.random.default_rng(rows)
    current = rng.uniform(-1.0, 1.0, rows)
    current[::5] = 0.0  # repeated values, as in PWM off intervals
    assert_same_bytes(tmp_path, ["i", "current", "scaled"],
                      [range(rows), current, current * 1e-7])


def test_signed_zeros_in_one_chunk_stay_apart(tmp_path):
    col = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
    assert_same_bytes(tmp_path, ["i", "x", "y"], [range(5), col, col[::-1].copy()])
    lines = (tmp_path / "chunked.csv").read_text().splitlines()
    assert lines[1:3] == ["0,0.0,1.0", "1,-0.0,-0.0"]


def test_special_values(tmp_path):
    col = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-5, 1.0 / 3.0,
                    np.finfo(np.float64).max, 0.1 + 0.2])
    assert_same_bytes(tmp_path, ["i", "x"], [range(len(col)), col])


def test_value_repeated_across_columns(tmp_path):
    col = np.linspace(0.0, 1.0, 2 * CHUNK + 3)
    assert_same_bytes(tmp_path, ["i", "a", "b", "c"], [range(len(col)), col, col.copy(), col[::-1]])


def test_float32_and_int_columns(tmp_path):
    rows = CHUNK + 9
    f32 = np.linspace(-2.0, 2.0, rows, dtype=np.float32) / np.float32(3.0)
    ints = np.arange(-rows, rows, 2, dtype=np.int64) * 1_000_003
    assert_same_bytes(tmp_path, ["i", "f32", "int"], [range(rows), f32, ints])


def test_strided_and_list_columns(tmp_path):
    base = np.random.default_rng(3).standard_normal((CHUNK + 5, 2))
    assert_same_bytes(tmp_path, ["a", "b", "c"], [base[:, 0], base[:, 1], list(base[:, 0])])


def test_shortest_column_sets_the_row_count(tmp_path):
    assert_same_bytes(tmp_path, ["i", "x"], [range(CHUNK + 4), np.ones(CHUNK + 1)])
    assert len((tmp_path / "chunked.csv").read_text().splitlines()) == CHUNK + 2


@pytest.mark.parametrize("columns", [[], [range(0), np.empty(0)]])
def test_empty_table_is_the_header(tmp_path, columns):
    assert_same_bytes(tmp_path, ["i", "x"], columns)
    assert (tmp_path / "chunked.csv").read_text() == "i,x\n"


def test_rows_writer_uses_the_same_format(tmp_path):
    rows = [("a", 1, 0.1, None, np.float64(-0.0), np.float32(0.5)), ("b", 2, 1e16, None, 5e-324, 3)]
    csvio.write_rows(tmp_path / "rows.csv", ["s", "n", "x", "empty", "y", "z"], iter(rows))
    assert (tmp_path / "rows.csv").read_text() == (
        "s,n,x,empty,y,z\na,1,0.1,,-0.0,0.5\nb,2,1e+16,,5e-324,3\n")


def test_text_comes_in_chunks_of_chunk_rows():
    rows = 2 * CHUNK + 1
    chunks = list(csvio._chunks([range(rows), np.arange(rows) / 7.0]))
    assert len(chunks) == 3
    assert [chunk.count("\n") for chunk in chunks] == [CHUNK, CHUNK, 1]


@pytest.mark.parametrize("cuts", [[], [CHUNK - 1], [CHUNK + 1, 2 * CHUNK + 1], [1, 2, 3 * CHUNK]])
def test_blocks_write_the_bytes_of_the_whole_table(tmp_path, cuts):
    rows = 3 * CHUNK + 17
    current = np.random.default_rng(7).uniform(-1.0, 1.0, rows)
    edges = [0, *cuts, rows]
    blocks = [[range(a, b), current[a:b], current[a:b] * 1e-7] for a, b in zip(edges, edges[1:])]
    csvio.write_blocks(tmp_path / "blocks.csv", ["i", "current", "scaled"], iter(blocks))
    reference_csv(tmp_path / "reference.csv", ["i", "current", "scaled"],
                  [range(rows), current, current * 1e-7])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_a_table_that_fails_part_way_leaves_no_file(tmp_path):
    def blocks():
        yield [range(3), np.ones(3)]
        raise RuntimeError("the second block failed")

    with pytest.raises(RuntimeError, match="second block"):
        csvio.write_blocks(tmp_path / "t.csv", ["i", "x"], blocks())
    assert list(tmp_path.iterdir()) == []
