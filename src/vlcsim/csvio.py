"""The one CSV format of every vlcsim output table.

Fields are joined by ',' without quoting and rows end in '\\n'. Floats,
NumPy's included, are written as repr(float(x)), the shortest text that
reads back as the same double; None is an empty field; anything else goes
through str(). Tables are given as columns (write_csv) or as rows
(write_rows); either way values are formatted lazily and rows streamed to
the file.
"""

from itertools import starmap

import numpy as np


def _field(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _fields(column):
    # float arrays and index ranges skip the per-value type check
    if isinstance(column, np.ndarray):
        return map(repr, map(float, column))
    if isinstance(column, range):
        return map(str, column)
    return map(_field, column)


def _write(path, header, rows):
    line = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(starmap(line.format, rows))


def write_csv(path, header, columns):
    """Write the header, then row i from the i-th value of every column.

    A NumPy array column holds floats; a table without rows may pass no columns.
    """
    _write(path, header, zip(*map(_fields, columns)))


def write_rows(path, header, rows):
    """Write the header, then one line per row; rows is read once, row by row."""
    _write(path, header, (map(_field, row) for row in rows))
