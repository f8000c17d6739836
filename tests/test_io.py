import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bellowkin.io import write_columns


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
