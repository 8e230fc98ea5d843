"""Serialization: atomic writes, exact float round-trips, deterministic output."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hslag.errors import ConfigError, QuotientError
from hslag.fieldio import (
    load_field,
    load_manifest,
    read_csv,
    save_field,
    write_csv,
    write_long_csv,
    write_manifest,
)
from hslag.geomcore import GridDescriptor, ScalarField


@pytest.fixture
def grid():
    return GridDescriptor(sizes=(8, 8), periods=(2.0 * np.pi, 2.0 * np.pi))


def test_field_round_trip_exact(tmp_path, grid, rng):
    values = rng.normal(size=grid.sizes)
    field = ScalarField(grid, values)
    path = str(tmp_path / "field.json")
    save_field(path, field)
    back = load_field(path)
    assert back.grid.sizes == grid.sizes
    assert back.grid.periods == grid.periods
    assert np.array_equal(back.values, values)  # bitwise, not approx


def test_field_round_trip_quotient_grid(tmp_path, rng):
    grid = GridDescriptor(
        sizes=(8, 8), periods=(2.0 * np.pi, 2.0 * np.pi), quotient=(True, True)
    )
    mesh = grid.meshgrid()
    field = ScalarField(grid, np.cos(mesh[0] + mesh[1]))
    path = str(tmp_path / "field.json")
    save_field(path, field)
    back = load_field(path)
    assert back.grid.quotient == (True, True)
    assert np.array_equal(back.values, field.values)


def test_load_field_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "values": []}))
    with pytest.raises(ConfigError):
        load_field(str(path))
    path.write_text("not json at all")
    with pytest.raises(ConfigError):
        load_field(str(path))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("grid"),
        lambda doc: doc.pop("values"),
        lambda doc: doc["values"].pop(),
        lambda doc: doc["grid"].update(sizes=[7, 8]),
        lambda doc: doc["grid"].update(sizes=[6, 8]),
        lambda doc: doc["grid"].update(periods=[0.0, 1.0]),
        lambda doc: doc["grid"].update(quotient=[False, False]),
        lambda doc: doc["values"].__setitem__(0, "a"),
        lambda doc: doc["values"].__setitem__(0, None),
    ],
    ids=[
        "no_grid",
        "no_values",
        "wrong_length",
        "odd_size",
        "size_below_8",
        "period_not_positive",
        "no_quotient_axis",
        "non_numeric",
        "null_value",
    ],
)
def test_load_field_rejects_incomplete_container(tmp_path, grid, edit):
    path = tmp_path / "field.json"
    save_field(str(path), ScalarField(grid, np.zeros(grid.sizes)))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_field(str(path))


def test_load_field_rejects_field_breaking_quotient(tmp_path):
    # a field file written for the covering grid, declared on the quotient:
    # cos(theta_1) changes sign under the half-period shift
    cover = GridDescriptor(sizes=(8, 8), periods=(2.0 * np.pi, 2.0 * np.pi))
    path = tmp_path / "field.json"
    save_field(str(path), ScalarField(cover, np.cos(cover.meshgrid()[0])))
    doc = json.loads(path.read_text())
    doc["grid"]["quotient"] = [True, True]
    path.write_text(json.dumps(doc))
    with pytest.raises(QuotientError):
        load_field(str(path))


def test_manifest_deterministic_bytes(tmp_path):
    doc = {"b": 2, "a": [1.5, True, "x"], "nested": {"z": 1e-30}}
    p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    t1 = write_manifest(p1, doc)
    t2 = write_manifest(p2, doc)
    assert t1 == t2
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert t1.endswith("\n")
    assert load_manifest(p1) == doc


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read manifest"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        (b"\xff\xfe", "not valid JSON"),
    ],
    ids=["missing", "invalid-json", "not-an-object", "not-utf8"],
)
def test_load_manifest_refuses_unusable_file(tmp_path, text, message):
    """A manifest that cannot be read, parsed or used as an object raises
    ConfigError, as a field file does."""
    path = tmp_path / "manifest.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_manifest(str(path))
    with pytest.raises(ConfigError, match=message.replace("manifest", "field file")):
        load_field(str(path))


def test_manifest_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(str(tmp_path / "m.json"), {"x": float("nan")})


def test_csv_round_trip_exact(tmp_path, rng):
    rows = [
        (1, rng.normal() * 10.0**rng.integers(-12, 12), True, "label"),
        (2, -0.0, False, "other"),
        (3, 1e-300, True, "tiny"),
    ]
    path = str(tmp_path / "table.csv")
    write_csv(path, ["idx", "value", "flag", "name"], rows)
    header, parsed = read_csv(path)
    assert header == ["idx", "value", "flag", "name"]
    for row, back in zip(rows, parsed):
        assert back[0] == row[0] and isinstance(back[0], int)
        assert back[1] == row[1]  # repr round-trip is exact
        assert back[2] is row[2]
        assert back[3] == row[3]


def test_read_csv_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        read_csv(str(path))


def test_long_csv_format(tmp_path):
    path = str(tmp_path / "plot.csv")
    write_long_csv(path, [("a:y", 0.5, 1.25), ("b:y", 1.0, -2.5)])
    header, rows = read_csv(path)
    assert header == ["series", "x", "y"]
    assert rows == [["a:y", 0.5, 1.25], ["b:y", 1.0, -2.5]]


def test_atomic_write_leaves_no_temp_files(tmp_path, grid):
    field = ScalarField(grid, np.zeros(grid.sizes))
    save_field(str(tmp_path / "f.json"), field)
    write_manifest(str(tmp_path / "m.json"), {"ok": True})
    write_csv(str(tmp_path / "t.csv"), ["a"], [(1,)])
    assert sorted(os.listdir(tmp_path)) == ["f.json", "m.json", "t.csv"]
