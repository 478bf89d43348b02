"""The array CSV writer against the row-wise "%.17g" template it replaces."""

import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab import csvio
from polariton_lab.cli import EXIT_CONFIG, EXIT_OK, main
from polariton_lab.csvio import read_csv, serialize, write_csv

ROOT = Path(__file__).resolve().parents[1]


def oracle(header, rows, footer=None):
    """The row-wise writer: one "%.17g" template per row."""
    lines = [",".join(header)]
    template = ",".join(["%.17g"] * len(header))
    for row in rows:
        lines.append(template % tuple(row))
    for key, value in (footer or {}).items():
        lines.append(f"# {key}={value}")
    return "\n".join(lines) + "\n"


def assert_same(got, want):
    # line lists: on a mismatch pytest names the first differing line at once
    assert got.split("\n") == want.split("\n")


def _check(values, width=3):
    values = list(values)
    values += [0.0] * (-len(values) % width)
    table = np.array(values, dtype=float).reshape(-1, width)
    header = [f"c{j}[1]" for j in range(width)]
    assert_same(serialize(header, table), oracle(header, table.tolist()))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64).flatmap(
        lambda rows: st.integers(1, 7).flatmap(
            lambda cols: st.lists(
                st.integers(0, 2**64 - 1), min_size=rows * cols, max_size=rows * cols
            ).map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols))
        )
    )
)
def test_random_bit_patterns_match_oracle(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    assert_same(serialize(header, table), oracle(header, table.tolist()))
    assert_same(serialize(header, table.tolist()), oracle(header, table.tolist()))


def test_many_random_bit_patterns_match_oracle():
    # several numpy passes, over every exponent and both signs
    bits = np.random.default_rng(9).integers(0, 2**64, size=60000, dtype=np.uint64)
    _check(bits.view(np.float64), width=5)


def test_specials_and_extremes_match_oracle():
    smallest_normal = 2.2250738585072014e-308
    _check([
        0.0, -0.0, math.nan, -math.nan, np.copysign(math.nan, -1.0), math.inf, -math.inf,
        5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal, 1.7976931348623157e308,
        -5e-324, -1.7976931348623157e308, 1.0, -1.0, 0.5, 1.5, 2.5, 0.1, 1 / 3,
    ])


@pytest.mark.parametrize("base, exponents", [(10.0, range(-323, 309)), (2.0, range(-1074, 1024))])
def test_powers_and_neighbours_match_oracle(base, exponents):
    values = []
    for k in exponents:
        x = base**k
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    _check(values + [-v for v in values])


def test_decade_boundaries_match_oracle():
    # X = -5, -4, 16 and 17 switch between fixed and exponent notation
    values = [9.9999999999999999e22, 1e23, 1.2345e-5, 9.9999999999999995e-5, 1e-4, 1.5e-4,
              1e16, 1.2345678901234567e16, 9999999999999998.0, 1e17, 1.2345e17, 99999999999999984.0]
    values += [np.nextafter(v, 0.0) for v in values] + [np.nextafter(v, math.inf) for v in values]
    _check(values + [-v for v in values])


def test_int_bool_and_numpy_scalar_cells_match_oracle():
    header = ["a", "b", "c", "d"]
    rows = [
        [1, True, np.float32(0.1), np.int64(-7)],
        [2**60 + 1, False, np.float32(3.4e38), np.int64(2**62)],
        [-(2**70), 0, np.float32(-1e-40), np.int64(0)],
    ]
    assert_same(serialize(header, rows), oracle(header, rows))


def _ties():
    # exactly 18 significant digits, the last a 5: halfway between two 17-digit numbers
    values = [2**49 + j + 0.125 for j in range(0, 40, 3)] + [2**50 + 0.25, 2.0**-25, 3 * 2.0**-25]
    return values + [-v for v in values]


def test_exact_ties_take_the_scalar_fallback(monkeypatch):
    ties = _ties()
    for v in ties:
        digits = Decimal(v).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    original, seen = csvio.format_float, []

    def spy(x):
        seen.append(x)
        return original(x)

    monkeypatch.setattr(csvio, "format_float", spy)
    table = np.array(ties + [1.0, 0.1]).reshape(-1, 2)
    assert_same(serialize(["a", "b"], table), oracle(["a", "b"], table.tolist()))
    assert sorted(seen) == sorted(ties)


def test_empty_table_and_ragged_row():
    assert serialize(["a[1]", "b[1]"], []) == "a[1],b[1]\n"
    assert serialize(["a[1]", "b[1]"], np.empty((0, 2)), {"k": "v"}) == "a[1],b[1]\n# k=v\n"
    with pytest.raises(ValueError, match="row width 1 != header width 2"):
        serialize(["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="row width 3 != header width 2"):
        serialize(["a", "b"], np.zeros((4, 3)))


def test_long_table_crosses_passes(tmp_path):
    # more cells than one numpy pass holds, with a row split across none
    table = np.random.default_rng(4).standard_normal((3001, 3)) * 1e5
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], table, {"k": "v"})
    assert_same(path.read_text(), oracle(["a", "b", "c"], table.tolist(), {"k": "v"}))


@pytest.mark.parametrize("command", ["dispersion", "lossmap", "eit-spectrum", "propagate"])
@pytest.mark.parametrize(
    "ini", sorted((ROOT / "scenarios").glob("*.ini")), ids=lambda path: path.name
)
def test_cli_csvs_equal_oracle_reserialization(tmp_path, ini, command):
    # Machine independent: the oracle formats whatever floats this machine computed.
    out = tmp_path / "out"
    argv = [command, "--config", str(ini), "--out", str(out), "--plot", "--validate"]
    if (ini.name, command) == ("silver.ini", "lossmap"):  # silver has no magnetic pole to sweep
        assert main(argv) == EXIT_CONFIG
        return
    assert main(argv) == EXIT_OK
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        header, rows, footer = read_csv(path)
        assert_same(path.read_text(), oracle(header, rows, footer))
