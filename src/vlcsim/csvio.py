"""The one CSV format of every vlcsim output table.

Fields are joined by ',' without quoting and rows end in '\\n'. Floats,
NumPy's included, are written as repr(float(x)), the shortest text that
reads back as the same double; None is an empty field; anything else goes
through str(). Tables are given as columns (write_csv), as consecutive
blocks of columns (write_blocks) or as rows (write_rows); either way the
text is built piecewise and streamed to the file.
"""

import os

import numpy as np

# rows formatted and written per write call by write_csv and write_blocks; a
# chunk's text is the largest piece of a table held in memory
_CHUNK_ROWS = 256

# the one float format: float.__repr__ is repr(float(x)) for a float x
_float_text = float.__repr__


def _field(value) -> str:
    if value is None:
        return ""
    return _float_text(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _float_fields(columns, start: int, stop: int) -> list[list[str]]:
    """Texts of rows start..stop-1 of each float column.

    Each distinct double of the chunk is formatted once. Values are keyed by
    bit pattern, so -0.0 and 0.0 stay apart.
    """
    keys = np.concatenate([np.ascontiguousarray(col[start:stop], dtype=np.float64).view(np.uint64)
                           for col in columns])
    # np.unique(keys, return_inverse=True) spelled out with a stable sort:
    # np.unique and the default sort's SIMD kernels raised the peak RSS of a
    # papr-sample run by 0.2-0.4 MB
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)  # marks the first of each run of equal keys
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    texts = np.array(list(map(_float_text, ordered[first].view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(len(columns), stop - start).tolist()


def _chunks(columns):
    """The table's rows as text, _CHUNK_ROWS rows per piece."""
    rows = min(map(len, columns), default=0)
    floats = [col for col in columns if not isinstance(col, range)]
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        texts = iter(_float_fields(floats, start, stop) if floats else ())
        fields = [map(str, col[start:stop]) if isinstance(col, range) else next(texts)
                  for col in columns]
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


def _write(path, header, texts):
    with open(path, "w", newline="") as fh:
        try:
            fh.write(",".join(header) + "\n")
            fh.writelines(texts)
        except BaseException:  # a table that fails part-way leaves no partial file
            fh.close()
            os.remove(path)
            raise


def write_csv(path, header, columns):
    """Write the header, then row i from the i-th value of every column.

    A column is an index range or a sequence of floats (a NumPy array, say);
    the shortest column sets the row count, and a table without rows may
    pass no columns. Rows are formatted and written _CHUNK_ROWS at a time.
    """
    write_blocks(path, header, [columns])


def write_blocks(path, header, blocks):
    """Write the header, then the rows of each block of columns in turn.

    Each block is a list of columns as write_csv takes them; blocks is read
    once, after the file is opened, so a table can be produced block by
    block while it is written and never held whole.
    """
    _write(path, header, (text for columns in blocks for text in _chunks(columns)))


def write_rows(path, header, rows):
    """Write the header, then one line per row; rows is read once, row by row."""
    _write(path, header, (",".join(map(_field, row)) + "\n" for row in rows))
