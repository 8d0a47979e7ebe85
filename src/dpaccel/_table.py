"""dpaccel's file formats: CSV tables, their JSON sidecars, and JSON files.

A table is a header row, then one row per entry: ints as ints and floats by
repr, which round-trips float64 exactly, every line ended by \\r\\n.  These
are the bytes csv.writer gives for the same rows.  A table's metadata, when
it has any, is a JSON sidecar next to it: <stem>.meta.json for <stem>.csv.
JSON is indented by 2; arrays are written as lists and numpy scalars json
cannot write as floats.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Rows write_table formats per write: enough to amortise the call, few
# enough that the chunk's strings add little to peak memory.
_CSV_CHUNK = 4096


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_table(path, header, columns, meta=None) -> None:
    """Write a header row and one row per entry of the equal-length 1-d
    arrays in columns; with meta, also its sidecar."""
    template = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            # tolist gives Python floats, whose repr round-trips; a numpy
            # scalar's repr does not
            rows = zip(*[col[lo:lo + _CSV_CHUNK].tolist() for col in columns])
            fh.write("".join([template % row for row in rows]))
    if meta is not None:
        write_json(sidecar_path(path), meta)


def read_table(path, kind: str, header):
    """Each column below the header row, as its own contiguous float array;
    raises ValueError, naming kind, unless the header row starts with header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:len(header)] != list(header):
        raise ValueError(f"not a {kind} CSV: {path}")
    body = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return [body[:, j].copy() for j in range(body.shape[1])]


def read_sidecar(path) -> dict:
    """The metadata next to the table at path ({} when it has none)."""
    meta_path = sidecar_path(path)
    return read_json(meta_path) if meta_path.exists() else {}


def _json_default(obj):
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=_json_default)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
