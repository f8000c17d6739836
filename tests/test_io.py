import errno
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellowkin import io as bio
from bellowkin.io import write_columns, write_json, write_text


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows):
    """The per-row, per-value writer write_columns is compared against."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(x) for x in row) + "\n")

EDGE_FLOATS = [float("nan"), -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
               float("inf"), 0.1, 1.0 / 3.0]


@given(rows=st.lists(st.tuples(
    st.one_of(st.integers(-10 ** 6, 10 ** 6), st.booleans()),
    st.booleans(),
    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    st.floats(allow_nan=True, allow_infinity=True)), max_size=12))
def test_write_columns_matches_write_csv(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("io")
    header = ["n", "flag", "a", "b"]
    write_csv(d / "rows.csv", header, rows)
    cols = [np.array([r[k] for r in rows], dtype=dt)
            for k, dt in enumerate((np.int64, bool, float, float))]
    write_columns(d / "cols.csv", header, ["%d", "%d", "%.17g", "%.17g"], cols)
    assert (d / "cols.csv").read_bytes() == (d / "rows.csv").read_bytes()


def test_write_text_shorter_rewrite_leaves_only_new_bytes(tmp_path):
    path = tmp_path / "a.csv"
    write_text(path, "x" * 5000 + "\n")
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    write_text(path, "")
    assert path.read_bytes() == b""


def test_write_json_matches_json_dump(tmp_path):
    doc = {"s_c_est": 100.00066628219899, "iterations": 4, "trace": [[0, 0.1]],
           "onset_t": None, "converged": True, "per": [{"q": 6.0}]}
    with open(tmp_path / "ref.json", "w", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    write_json(tmp_path / "new.json", doc)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_write_text_rewrites_in_place(tmp_path):
    path = tmp_path / "a.json"
    write_text(path, "old content, longer than the new\n")
    os.chmod(path, 0o640)
    link = tmp_path / "hard"
    os.link(path, link)
    sym = tmp_path / "sym"
    os.symlink(path, sym)
    inode = os.stat(path).st_ino
    write_text(path, "new\n")
    assert os.stat(path).st_ino == inode
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert link.read_bytes() == b"new\n"
    write_text(sym, "via link\n")
    assert sym.is_symlink() and path.read_bytes() == b"via link\n"
    assert os.stat(path).st_ino == inode


def test_write_text_failing_part_way_leaves_no_old_tail(tmp_path, monkeypatch):
    path = tmp_path / "a.csv"
    write_text(path, "o" * 100)
    real_write = os.write
    calls = []

    def write_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:7])

    monkeypatch.setattr(bio.os, "write", write_then_fail)
    with pytest.raises(OSError, match="No space left"):
        write_text(path, "new text")
    monkeypatch.undo()
    assert calls == [8, 1]
    assert path.read_bytes() == b"new tex"


def test_write_text_to_a_device(tmp_path):
    # a device takes no truncation; open(path, "w") wrote to it, and so
    # does the in-place writer, also through a symlink
    sink = tmp_path / "sink"
    os.symlink(os.devnull, sink)
    write_text(sink, "discarded\n")
    assert sink.is_symlink()


@pytest.mark.parametrize("where", ["directory", "under_file"])
def test_write_text_unwritable_path_raises_oserror(tmp_path, where):
    blocker = tmp_path / "blocker"
    if where == "directory":
        blocker.mkdir()
        path = blocker
    else:
        blocker.write_text("keep")
        path = blocker / "a.csv"
    with pytest.raises(OSError):
        write_text(path, "text")
    if where == "under_file":
        assert blocker.read_text() == "keep"
