"""CSV and JSON writers shared by the CLI and experiment scripts.

Floats are written as decimal text with 17 significant digits so every file
round-trips bit-exactly and reruns compare byte-identical.
"""

import json

import numpy as np


def write_columns(path, header, formats, columns):
    """A CSV of equal-length array columns, one row format for all rows:
    formats holds '%d' for integer or boolean columns and '%.17g' for
    float columns."""
    line = ",".join(formats) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.write("".join(map(line.__mod__, rows)))


def _lines(path):
    """Non-blank lines of a text file without their line endings."""
    with open(path, newline="") as f:
        lines = [ln.rstrip("\r\n") for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    return lines


def read_table(path, header, what: str) -> np.ndarray:
    """Body of a numeric CSV with the given header as a (rows, columns)
    float array.

    A wrong header, or a row with a missing or extra field or a field that
    is not a number, raises ValueError; rows are numbered from 1 after the
    header, blank lines skipped.
    """
    lines = _lines(path)
    if lines[0].split(",") != header:
        raise ValueError(f"unexpected {what} header: {lines[0].split(',')}")
    rows = lines[1:]
    if not rows:
        return np.empty((0, len(header)))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        # name the first bad row
        for k, row in enumerate(rows, 1):
            fields = row.split(",")
            if len(fields) != len(header):
                raise ValueError(f"{what} row {k}: {len(fields)} fields, "
                                 f"expected {len(header)}") from None
            for field in fields:
                try:
                    float(field)
                except ValueError:
                    raise ValueError(f"{what} row {k}: {field!r} is not a "
                                     "number") from None
        raise ValueError(f"{path}: unreadable {what}")
    return data


def write_json(path, obj):
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
