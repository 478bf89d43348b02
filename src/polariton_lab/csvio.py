"""Deterministic CSV emission with lossless float round-trip.

One header line of ``name[unit]`` column labels, comma-separated data rows
with 17-significant-digit floats (exact float64 round-trip), LF line endings,
and a provenance footer of ``# key=value`` comment lines.  The reader parses
files written here back into floats and the footer mapping, so a write/read/
write cycle is byte-identical.

Every cell is written as ``"%.17g" % x`` (:func:`format_float`) writes it,
but a whole table is formatted in numpy by :mod:`polariton_lab.csvformat`:
exact digits from a double-double product, with :func:`format_float` itself
for the cells within 2^-30 of a rounding tie.  The writer takes a 2-D array
or any sequence of equal-width rows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def format_float(x: float) -> str:
    """17 significant digits; nan, inf and -inf as such, a bool as 1 or 0."""
    return "%.17g" % x


def _as_table(rows: Iterable[Sequence[float]], width: int) -> np.ndarray:
    """The rows as a 2-D float64 array; a row of another width raises ValueError."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != header width {width}")
        if not rows:
            return np.empty((0, width))
    table = np.asarray(rows)
    if table.ndim != 2:
        raise ValueError(f"rows must form a 2-D table, got shape {table.shape}")
    if table.shape[1] != width:
        raise ValueError(f"row width {table.shape[1]} != header width {width}")
    if table.dtype.kind not in "biufO":
        raise TypeError(f"cells must be real numbers, not {table.dtype}")
    return table.astype(float, copy=False)


def _table_bytes(
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    footer: dict[str, str] | None,
) -> bytes:
    width = len(header)
    table = _as_table(rows, width)
    parts = [(",".join(header) + "\n").encode("ascii")]
    if table.size:
        from .csvformat import format_table  # on first use: the CLI's import stays light

        parts.append(format_table(table))
    else:  # no cells: an empty line per row of a table without columns
        parts.append(b"\n" * len(table))
    parts += [f"# {key}={value}\n".encode("ascii") for key, value in (footer or {}).items()]
    return b"".join(parts)


def serialize(
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    footer: dict[str, str] | None = None,
) -> str:
    """The CSV text of a table: a 2-D array or any sequence of equal-width rows."""
    return _table_bytes(header, rows, footer).decode("ascii")


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    footer: dict[str, str] | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_table_bytes(header, rows, footer))
    return path


def read_csv(path: str | Path) -> tuple[list[str], list[list[float]], dict[str, str]]:
    text = Path(path).read_bytes().decode("ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows: list[list[float]] = []
    footer: dict[str, str] = {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = value
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, rows, footer


def round_trip_ok(path: str | Path) -> bool:
    """True when re-serializing the parsed file reproduces its bytes."""
    original = Path(path).read_bytes()
    header, rows, footer = read_csv(path)
    return _table_bytes(header, rows, footer) == original
