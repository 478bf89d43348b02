"""Deterministic CSV emission with lossless float round-trip.

One header line of ``name[unit]`` column labels, comma-separated data rows
with 17-significant-digit floats (exact float64 round-trip), LF line endings,
and a provenance footer of ``# key=value`` comment lines.  The reader parses
files written here back into floats and the footer mapping, so a write/read/
write cycle is byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    """17 significant digits; nan, inf and -inf as such, a bool as 1 or 0."""
    return "%.17g" % x


def serialize(
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    footer: dict[str, str] | None = None,
) -> str:
    lines = [",".join(header)]
    width = len(header)
    template = ",".join(["%.17g"] * width)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(template % tuple(row))
    for key, value in (footer or {}).items():
        lines.append(f"# {key}={value}")
    return "\n".join(lines) + "\n"


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    footer: dict[str, str] | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize(header, rows, footer).encode("ascii"))
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
    return serialize(header, rows, footer).encode("ascii") == original
