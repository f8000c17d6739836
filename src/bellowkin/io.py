"""CSV and JSON writers shared by the CLI and experiment scripts.

Floats are written as decimal text with 17 significant digits so every file
round-trips bit-exactly and reruns compare byte-identical.
"""

import json
import math


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(x) for x in row) + "\n")


def read_csv(path):
    """Rows of a headered CSV as (header, list of string tuples)."""
    with open(path, newline="") as f:
        lines = [ln.rstrip("\r\n") for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    return header, [tuple(ln.split(",")) for ln in lines[1:]]


def write_json(path, obj):
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
