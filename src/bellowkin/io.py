"""CSV and JSON writers shared by the CLI and experiment scripts.

Floats are written as decimal text with 17 significant digits so every file
round-trips bit-exactly and reruns compare byte-identical.

Every artifact goes through one writer, `write_text`, which overwrites a
file in place and then cuts it at the written length.  The stages rewrite
their artifacts into the same out-dirs run after run, and an existing file
truncated to zero makes ext4 (auto_da_alloc) start writeback when it
closes: a 12 KB rewrite through open(path, "w") took a median 120 us on
the ext4 root of a 2-core Xeon host, against 8 us in place.  Neither
writer fsyncs.
"""

import json
import os

import numpy as np

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 bytes with no newline translation (what
    open(path, "w", newline="\n") writes of the ASCII artifacts), but in
    place: the file is never truncated to zero, only cut at the written
    length, so an existing file keeps its inode, hard links, mode and
    owner, and a symlink is written through.

    A write that fails part-way cuts the file where it stopped, so no old
    byte follows the new ones, and the OSError propagates.  While a write
    is under way a reader can see new bytes followed by old ones.
    """
    data = text.encode()
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        old_size = os.fstat(fd).st_size
        done = 0
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            # only old bytes past the new ones need cutting; a device or a
            # FIFO reports size 0 and refuses ftruncate
            if old_size > done:
                os.ftruncate(fd, done)
    finally:
        os.close(fd)


def write_columns(path, header, formats, columns):
    """A CSV of equal-length array columns, one row format for all rows:
    formats holds '%d' for integer or boolean columns and '%.17g' for
    float columns."""
    line = ",".join(formats) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    write_text(path, ",".join(header) + "\n" + "".join(map(line.__mod__, rows)))


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
    write_text(path, json.dumps(obj, indent=2) + "\n")
