"""Serialization for grid fields, run manifests, and CSV traces.

All writers are atomic (write to a temporary file in the destination
directory, then rename) and deterministic: JSON uses sorted keys and Python's
shortest-round-trip float representation, so identical data produces
byte-identical files.  Field containers carry the grid descriptor header plus
row-major values and round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, GridMismatchError, QuotientError
from .geomcore import GridDescriptor, ScalarField

__all__ = [
    "atomic_write_text",
    "grid_to_dict",
    "grid_from_dict",
    "field_to_dict",
    "field_from_dict",
    "save_field",
    "load_field",
    "write_manifest",
    "load_manifest",
    "write_csv",
    "read_csv",
    "write_long_csv",
]

FIELD_FORMAT = "hslag-field"
FIELD_VERSION = 1


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Write text to path via a same-directory temporary file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def grid_to_dict(grid: GridDescriptor) -> dict:
    return {
        "sizes": [int(s) for s in grid.sizes],
        "periods": [float(p) for p in grid.periods],
        "quotient": None if grid.quotient is None else [bool(q) for q in grid.quotient],
    }


def grid_from_dict(data: dict) -> GridDescriptor:
    try:
        sizes = tuple(int(s) for s in data["sizes"])
        periods = tuple(float(p) for p in data["periods"])
        quotient = data.get("quotient")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed grid descriptor: {exc}") from exc
    if quotient is not None:
        quotient = tuple(bool(q) for q in quotient)
    try:
        return GridDescriptor(sizes=sizes, periods=periods, quotient=quotient)
    except (GridMismatchError, QuotientError) as exc:
        raise ConfigError(f"malformed grid descriptor: {exc}") from exc


def field_to_dict(field: ScalarField) -> dict:
    return {
        "format": FIELD_FORMAT,
        "version": FIELD_VERSION,
        "grid": grid_to_dict(field.grid),
        "values": [float(v) for v in np.asarray(field.values).reshape(-1)],
    }


def field_from_dict(data: dict) -> ScalarField:
    """The field of a container, through `ScalarField`'s gate, so a field on
    a quotient grid must be Z2-invariant."""
    if data.get("format") != FIELD_FORMAT:
        raise ConfigError(f"not a field container: format={data.get('format')!r}")
    for key in ("grid", "values"):
        if key not in data:
            raise ConfigError(f"field container has no {key!r}")
    grid = grid_from_dict(data["grid"])
    try:
        values = np.array(data["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field container values are not numbers: {exc}") from exc
    if not np.all(np.isfinite(values)):
        # a JSON null reads as NaN
        raise ConfigError("field container values are not all finite numbers")
    if values.size != grid.num_nodes:
        raise ConfigError(f"field container has {values.size} values for {grid.num_nodes} nodes")
    return ScalarField(grid, values.reshape(grid.sizes))


def save_field(path: Union[str, os.PathLike], field: ScalarField) -> None:
    atomic_write_text(path, json.dumps(field_to_dict(field), sort_keys=True) + "\n")


def _load_object(path: Union[str, os.PathLike], what: str) -> dict:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return document


def load_field(path: Union[str, os.PathLike]) -> ScalarField:
    return field_from_dict(_load_object(path, "field file"))


def write_manifest(path: Union[str, os.PathLike], payload: dict) -> str:
    """Serialize a manifest deterministically (sorted keys, no timestamps)."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
    return text


def load_manifest(path: Union[str, os.PathLike]) -> dict:
    return _load_object(path, "manifest")


def _render_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: Union[str, os.PathLike],
    header: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    """Write a CSV trace; floats use exact round-trip representation."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_render_cell(cell) for cell in row])
    atomic_write_text(path, buffer.getvalue())


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Union[str, os.PathLike]) -> Tuple[List[str], List[list]]:
    """Read a CSV trace back, numeric cells as int/float; a ragged row is a ConfigError."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"empty trace file: {path}") from None
        rows = [[_parse_cell(cell) for cell in row] for row in reader]
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"a row of {path} does not have the header's {len(header)} cells")
    return header, rows


def write_long_csv(
    path: Union[str, os.PathLike],
    rows: Iterable[Tuple[str, float, float]],
) -> None:
    """Long-format (series, x, y) plot data."""
    write_csv(path, ["series", "x", "y"], rows)
