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
    csvio.write_blocks(tmp_path / "chunked.csv", header, [columns])
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
    """z equals x value for value but not bit for bit, so it cannot reuse x's text."""
    col = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
    flipped = np.where(col == 0.0, -col, col)
    assert_same_bytes(tmp_path, ["i", "x", "y", "z"], [range(5), col, col[::-1].copy(), flipped])
    lines = (tmp_path / "chunked.csv").read_text().splitlines()
    assert lines[1:3] == ["0,0.0,1.0,-0.0", "1,-0.0,-0.0,0.0"]


def strided():
    base = np.random.default_rng(3).standard_normal((CHUNK + 5, 2))
    return [base[:, 0], base[:, 1], list(base[:, 0])]


def float32_and_int():
    rows = CHUNK + 9
    f32 = np.linspace(-2.0, 2.0, rows, dtype=np.float32) / np.float32(3.0)
    return [range(rows), f32, np.arange(-rows, rows, 2, dtype=np.int64) * 1_000_003]


LINEAR = np.linspace(0.0, 1.0, 2 * CHUNK + 3)
SPECIAL = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-5, 1.0 / 3.0,
                    np.finfo(np.float64).max, 0.1 + 0.2])
# index ranges are written as str writes them: negative and stepped, descending, beyond
# 2**32, a digit rollover and int64's ends
INDEXES = {"negative-stepped": range(-3 * CHUNK, 3 * CHUNK, 7),
           "descending-large": range(10 ** 12, -10 ** 12, -10 ** 9 + 7),
           "negative-large": range(-2 ** 40, -2 ** 40 + CHUNK), "one-digit-rollover": range(9, 12),
           "int64-max": range(2 ** 63 - 4, 2 ** 63 - 1), "int64-min": range(-2 ** 63, -2 ** 63 + 3)}
COLUMNS = {
    "special-values": lambda: [range(len(SPECIAL)), SPECIAL],
    "value-repeated-across-columns": lambda: [range(len(LINEAR)), LINEAR, LINEAR.copy(),
                                              LINEAR[::-1]],
    "float32-and-int": float32_and_int,
    "strided-and-list": strided,
    **{f"index-{name}": lambda index=index: [index, np.arange(len(index)) / 3.0]
       for name, index in INDEXES.items()},
}


@pytest.mark.parametrize("name", COLUMNS)
def test_columns_match_the_reference(tmp_path, name):
    columns = COLUMNS[name]()
    assert_same_bytes(tmp_path, ["c"] * len(columns), columns)


NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
SPECIAL_RUNS = {"zeros": [0.0], "negative-zeros": [-0.0], "nans": NANS,
                "infinities": [np.inf, -np.inf, -np.inf]}


@pytest.mark.parametrize("run", SPECIAL_RUNS.values(), ids=SPECIAL_RUNS.keys())
def test_whole_chunks_of_special_values(tmp_path, run):
    """Columns with no finite nonzero double, whole chunks and a short last one."""
    rows = 2 * CHUNK + 5
    col = np.resize(np.asarray(run, dtype=np.float64), rows)
    regular = np.linspace(-1.0, 1.0, rows)
    assert_same_bytes(tmp_path, ["i", "x", "y", "z"], [range(rows), col, regular, col[::-1]])


@pytest.mark.parametrize("run", SPECIAL_RUNS.values(), ids=SPECIAL_RUNS.keys())
def test_special_and_regular_runs_across_chunk_edges(tmp_path, run):
    """Runs that end at, just before and just after a chunk edge, both ways round."""
    rng = np.random.default_rng(21)
    lengths = [CHUNK, CHUNK - 3, 6, CHUNK - 3, 1, CHUNK + 2, CHUNK - 2]
    pieces = []
    for k, length in enumerate(lengths):
        special = np.resize(np.asarray(run, dtype=np.float64), length)
        pieces.append(special if k % 2 == 0 else rng.uniform(-1e3, 1e3, length))
    col = np.concatenate(pieces)
    assert_same_bytes(tmp_path, ["i", "x", "y"], [range(len(col)), col, col[::-1].copy()])


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
    chunks = list(csvio._chunks([range(rows), np.arange(rows) / 7.0], csvio._Formatter()))
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


def column_text(values):
    """The column formatter's text of one float column: one line per value."""
    return "".join(csvio._chunks([values], csvio._Formatter()))


def assert_repr(values):
    """The formatter writes repr(float(x)) for every value, in order, and leaves the values be."""
    doubles = np.asarray(values, dtype=np.float64)
    expected = "".join(map("{!r}\n".format, doubles.tolist()))
    before = doubles.copy()
    text = column_text(values)
    assert doubles.tobytes() == before.tobytes()  # the column is read, never written
    if text != expected:
        got = text.splitlines()
        first = next(i for i, (a, b) in enumerate(zip(got, expected.splitlines())) if a != b)
        bits = doubles[first:first + 1].view(np.uint64)[0]
        raise AssertionError(f"{float(doubles[first])!r} (bits {bits:#x}) written as {got[first]!r}")


def with_neighbours(values):
    """The doubles, and one ulp below and above each."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def random_finite_doubles():
    bits = np.random.default_rng(20201030).integers(0, 2 ** 64, 1_001_000, dtype=np.uint64)
    values = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    assert len(values) >= 1_000_000
    return [values]


def short_decimals():
    rng = np.random.default_rng(7)
    return [rng.integers(-10 ** 9, 10 ** 9, 100_000) / 10.0 ** rng.integers(0, 12, 100_000),
            rng.uniform(0.0, 1.0, 100_000) * 10.0 ** rng.integers(-320, 300, 100_000)]


def other_dtypes_and_layouts():
    rng = np.random.default_rng(11)
    f32 = rng.integers(0, 2 ** 32, 100_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
    ints = rng.integers(-2 ** 63, 2 ** 63 - 1, 100_000, dtype=np.int64)
    doubles = rng.standard_normal((3 * CHUNK + 5, 2))
    return [f32[np.isfinite(f32)], ints, doubles[::-1, 1], list(doubles[:, 0])]


LARGEST = np.finfo(np.float64).max
NEAR_2_53 = np.arange(2 ** 53 - 3000, 2 ** 53 + 3000, dtype=np.int64)
SWITCHES = np.array([1e-4, 1e16, 1e-5, 1e15, 9.999999999999999e-05, 9999999999999998.0])
# odd multiples of 2**-shift: 1 + 2**-17 lies halfway between two 17-digit decimals
HALFWAY = np.concatenate([np.ldexp(np.arange(1, 2 ** 10, 2, dtype=np.float64), -shift)
                          for shift in range(1, 64)])
# name -> the value sets whose text must be repr's
REPR_CASES = {
    "random-bit-patterns": random_finite_doubles,
    # 5e-324, the largest subnormal and the smallest normal
    "subnormal-edges": lambda: [with_neighbours([5e-324, 1e-323, 2.225073858507201e-308,
                                                 2.2250738585072014e-308,
                                                 -2.2250738585072014e-308])],
    "special-values": lambda: [[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, LARGEST, -LARGEST,
                                np.nextafter(LARGEST, 0.0), 1.0, -1.0, 0.1]],
    # a power of two has the closer lower end: its lower neighbour is half as far
    "powers-of-two": lambda: [with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))],
    "powers-of-ten": lambda: [with_neighbours([float(f"1e{k}") for k in range(-323, 309)])],
    "integers-near-2-to-53": lambda: [np.concatenate([NEAR_2_53, -NEAR_2_53]).astype(np.float64),
                                      np.arange(-5000, 5000, dtype=np.float64) * 1e3],
    # repr turns scientific below 1e-4 and from 1e16 on
    "notation-switches": lambda: [with_neighbours(np.concatenate([SWITCHES, -SWITCHES]))],
    "halfway-digits": lambda: [np.concatenate([HALFWAY, HALFWAY * 1e8, HALFWAY * 1e-8])],
    "short-decimals": short_decimals,
    "other-dtypes-and-layouts": other_dtypes_and_layouts,
}


@pytest.mark.parametrize("name", REPR_CASES)
def test_values_match_repr(name):
    for values in REPR_CASES[name]():
        assert_repr(values)


def test_halfway_tie_goes_to_even():
    assert column_text(np.array([1 + 2 ** -17])) == "1.0000076293945312\n"


def test_exponent_tables_are_exact():
    """The multiply-shift forms of k and h equal their exact values on every exponent."""
    _, k_row, h_row = csvio._tables()
    for closer in (0, 1):
        for biased in range(2 if closer else 0, 2047):
            q = max(biased, 1) - 1075
            # 10**k <= 2**q, or 3 * 2**(q-2), < 10**(k+1)
            num, den = (3 << max(q - 2, 0), 1 << max(2 - q, 0)) if closer else \
                (1 << max(q, 0), 1 << max(-q, 0))
            k = len(str(num // den)) - 1 if num >= den else -len(str((den - 1) // num))
            assert k_row[2048 * closer + biased] == k - csvio._K_MIN, (closer, biased)
            # h = q + floor(log2(10**-k)) + 2, and 4c << h stays below 2**60
            beta = (10 ** -k).bit_length() - 1 if k <= 0 else -(10 ** k).bit_length()
            assert h_row[2048 * closer + biased] == q + beta + 2
            assert 2 <= q + beta + 2 <= 5
