"""The one writer of every output file.

Files are UTF-8 with ``\\n`` line ends and a fixed field order.  JSON objects
are written with sorted keys and an indent of two; CSV floats are written
with 17 significant digits, which round-trip exactly, and a None or
non-finite value is a blank cell; plain text (the gnuplot companions) is
written as given.  Nothing here reads a clock, so rerunning a command with
the same inputs writes the same bytes.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["write_csv", "write_json", "write_text"]


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy's float64 too
        return format(value, ".17g") if np.isfinite(value) else ""
    return str(value)


def write_csv(path, header, rows) -> None:
    """One header line, then one line per row of ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
