"""The file writers every command and study goes through."""

import csv
import json

import numpy as np

from birktraj.output import write_csv, write_json


def test_csv_cells_round_trip_and_blank_what_is_missing(tmp_path):
    path = tmp_path / "t.csv"
    third = 1.0 / 3.0
    write_csv(path, ["a", "b", "c", "d"], [(third, np.float64(-2.5), 7, "x"),
                                           (None, np.nan, np.inf, "µ, ν")])
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b", "c", "d"], [format(third, ".17g"), "-2.5", "7", "x"],
                    ["", "", "", "µ, ν"]]
    assert float(rows[1][0]) == third


def test_json_sorted_indented_one_final_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": [1.5], "a": None})
    text = path.read_bytes().decode("utf-8")
    assert text == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'
    assert json.loads(text) == {"a": None, "b": [1.5]}
