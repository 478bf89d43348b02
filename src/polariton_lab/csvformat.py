"""The array formatter behind :mod:`polariton_lab.csvio`: ``"%.17g"`` for a whole table.

A cell's 17 significant digits are exact: its significand times a power of
ten is formed as a double-double (Dekker's product, no FMA; the powers of ten
are built once from integers) and rounded to the nearest integer.  The
product's error is below 2^-45, so a cell whose fraction lies within 2^-30 of
one half (an exact tie such as 2**49 + 0.125, or a near one) is formatted by
the scalar :func:`polariton_lab.csvio.format_float` instead, which stays the
definition of the format.  The digits, the '.', the sign and the exponent of
a cell are laid out in a fixed-width byte row, and a keep mask looked up by
the cell's layout drops the bytes ``%g`` leaves out.  A few thousand cells
are formatted per numpy pass, so the temporaries stay small.

:mod:`polariton_lab.csvio` imports this module on its first table, which
keeps the import of the command line light.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import csvio

_CHUNK = 2048  # cells per numpy pass: its byte rows stay in cache
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two halves
_TIE = 2.0**-30
_E_MIN = -1073  # frexp exponent of the smallest subnormal (0.5 * 2^-1073)
_X_MIN = -324  # decimal exponent of the smallest subnormal
_X_MAX = 308
# Byte row of one cell.  The 17 digits are there twice, as a lead digit and
# sixteen more: copy A gives a fixed number's digits before the '.', copy B
# the digits after it (and its lead digit in the exponent notation).
_A = 6  # lead digit of copy A, after '-' and "0.000"
_A_END = _A + 17  # the separator of a number that ends in copy A
_B = _A_END + 2  # lead digit of copy B, after '-'; then the '.'
_DOT = _B + 1
_EXP = _DOT + 17  # the exponent, if any, and the separator, padded with zero bytes to eight
_ROW = np.dtype({
    "names": ["a", "b", "exponent"],
    "formats": ["V16", "V16", "V8"],
    "offsets": [_A + 1, _DOT + 1, _EXP],
    "itemsize": _EXP + 8,
})
_FIXED = 21  # layout classes 0..20: fixed notation, X = -4..16
_N_CLASSES = _FIXED + 2  # then exponent notation with two and three digits
_INF_NAN = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)


def _pow10(k: int) -> tuple[float, float, int]:
    """(h, l, e) with 10^k = (h + l) * 2^e to about 2^-106 and 1 <= h <= 2."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    e = num.bit_length() - den.bit_length()
    if e > 0:
        den <<= e
    else:
        num <<= -e
    if num < den:
        num <<= 1
        e -= 1
    h = num / den  # int / int rounds correctly
    hn, hd = h.as_integer_ratio()
    return h, (num * hd - hn * den) / (den * hd), e


def _least_double_at_or_above_pow10(j: int) -> float:
    if j > _X_MAX:
        return math.inf
    d = float(10**j) if j >= 0 else 1 / 10**-j
    dn, dd = d.as_integer_ratio()
    below = dn < 10**j * dd if j >= 0 else dn * 10**-j < dd
    return math.nextafter(d, math.inf) if below else d


def _keep_row(row: np.ndarray, cls: int, last: int, negative: bool) -> None:
    """Set the kept columns in ``row`` for a cell of layout class ``cls`` whose
    last nonzero digit has index ``last`` (L; -1 for 0)."""
    if cls < 4 and last >= 0:  # 0.000ddd
        row[:3] = negative, True, True
        row[_A + cls - 3:_A + last + 1] = True  # -X-1 zeros, then every digit
        row[_A_END] = True
        return
    if cls >= _FIXED:  # d.ddde+XX
        x = 0
        row[_B - 1:_B + 1] = negative, True
        row[_EXP:_EXP + 5 + cls - _FIXED] = True
    else:  # ddd.ddd, and 0, nan and inf
        x = max(cls - 4, 0)
        row[0] = negative
        row[_A:_A + x + 1] = True
        row[_A_END if last <= x else _EXP] = True
    if last > x:
        row[_DOT] = True
        row[_DOT + x + 1:_DOT + last + 1] = True


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables of the formatter, built on first use."""
    # Decade of each frexp exponent E: x in [2^(E-1), 2^E) has
    # floor(log10 x) = X0 or X0 + 1, the latter when x >= 10^(X0 + 1).
    decades = np.arange(_X_MIN, _X_MAX + 2)
    up = np.array([_least_double_at_or_above_pow10(int(j)) for j in decades])
    exps = np.arange(_E_MIN, 1025)
    x0 = decades[np.searchsorted(up, np.ldexp(1.0, exps - 1), side="right") - 1]
    # Multiplier 10^(16 - X) * 2^E as a double-double, at index 2*(E - E_MIN) + u
    # for X = X0 + u, so that V = m * multiplier lies in [1e16, 1e17).
    h, lo, e = np.array([_pow10(16 - int(x)) for x in decades]).T
    k = (x0[:, None] + np.arange(2)).ravel() - _X_MIN
    shift = e[k].astype(int) + np.repeat(exps, 2)
    hi = np.ldexp(h[k], shift)
    s = hi * _SPLIT
    hi_head = s - (s - hi)
    # A 4-digit group's ASCII digits, and twice the L + 1 it gives as the
    # i-th group after the lead digit (negative for 0000).
    groups = np.arange(10000, dtype=np.int16)
    in_group = np.select(
        [groups % 10 != 0, groups % 100 != 0, groups % 1000 != 0, groups != 0],
        [np.int8(3), np.int8(2), np.int8(1), np.int8(0)],
        np.int8(-64),
    )
    last = 2 * (in_group + np.arange(2, 18, 4, dtype=np.int8)[:, None])
    digits = groups[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
    # By 2 * (X - X_MIN), plus 1 for a cell that ends a line: the exponent
    # word, and ("layout") the first keep row of X's layout class, whose rows
    # then go by 2 * (L + 1) and by the sign.
    xs = range(_X_MIN, _X_MAX + 1)
    exponent = [
        ((b"" if -4 <= x < 17 else b"e%+03d" % x) + sep).ljust(8, b"\0")
        for x in xs
        for sep in (b",", b"\n")
    ]
    cls = np.repeat([x + 4 if -4 <= x < 17 else _FIXED + (abs(x) >= 100) for x in xs], 2)
    keep = np.zeros((_N_CLASSES, 18, 2, _ROW.itemsize), dtype=bool)
    for c in range(_N_CLASSES):
        for j in range(18):
            for negative in (0, 1):
                _keep_row(keep[c, j, negative], c, j - 1, bool(negative))
    return {
        "up": up[x0 + 1 - _X_MIN],
        "x": 2 * k,
        "hi": hi,
        "hi_head": hi_head,
        "lo": np.ldexp(lo[k], shift),
        "digits": digits.astype(np.uint8).view("V4")[:, 0],
        "last": last,
        "exponent": np.array(exponent).view("V8"),
        "layout": cls * 36,
        "keep": keep.reshape(-1, _ROW.itemsize),
    }


def _row_template(cells: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant bytes of ``cells`` cells of a table ``width`` cells wide, and
    which of them end a line."""
    row = np.zeros(_ROW.itemsize, dtype=np.uint8)
    row[:_A] = np.frombuffer(b"-0.000", np.uint8)
    row[[_A_END, _B - 1, _DOT]] = np.frombuffer(b",-.", np.uint8)
    mat = np.tile(row, (cells, 1))
    mat[width - 1::width, _A_END] = ord("\n")
    newline = np.zeros(cells, dtype=np.int8)
    newline[width - 1::width] = 1
    return mat, newline


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit integer N nearest to V = a * 10^(16 - X), X = floor(log10 a),
    as the rows high and low of N = high * 1e8 + low; 2 * (X - X_MIN); and
    |V - N|.  A zero ``a`` gives N = 0.
    """
    t = _tables()
    m, e = np.frexp(a)
    ib = e.astype(np.intp)
    ib -= _E_MIN
    up = a >= t["up"][ib]
    ib += ib
    ib += up
    # V = m * (hi + lo) = p + r: Dekker's exact product m * hi = p + (r - m * lo).
    hi = t["hi"][ib]
    hi_head = t["hi_head"][ib]
    p = m * hi
    s = m * _SPLIT
    m_head = s - m
    np.subtract(s, m_head, out=m_head)
    m_tail = m - m_head
    hi_tail = np.subtract(hi, hi_head, out=hi)
    r = m_head * hi_head
    r -= p
    np.multiply(m_head, hi_tail, out=s)
    r += s
    np.multiply(m_tail, hi_head, out=s)
    r += s
    np.multiply(m_tail, hi_tail, out=s)
    r += s
    np.multiply(m, t["lo"][ib], out=s)
    r += s
    # p is an integer (V >= 1e16 > 2^53), so N = p + rint(r), split in
    # doubles: p - high * 1e8 is exact, and the floor of p * 1e-8 is off by
    # at most one.
    whole = np.rint(r)
    r -= whole
    np.abs(r, out=r)
    split = np.empty((2, a.size))
    high, low = split
    np.multiply(p, 1e-8, out=high)
    np.floor(high, out=high)
    np.multiply(high, -1e8, out=low)
    low += p
    low += whole
    carry = np.multiply(low, 1e-8, out=whole)
    np.floor(carry, out=carry)
    high += carry
    carry *= 1e8
    low -= carry
    x = t["x"][ib]
    if high.max() >= 1e9:  # a double just below 10^k rounds up to it
        top = np.flatnonzero(high >= 1e9)
        high[top] = 1e8
        x[top] += 2
    return split, x, r


def _write_digits(split: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Write N's digits into copies A and B of ``mat``; return 2 * (L + 1)."""
    t = _tables()
    # The four 4-digit groups after the lead digit.  Below 1e9 the floor of
    # (g + 0.5) * 1e-4 is g's exact quotient by 1e4: the product's rounding
    # error is far below its 0.5e-4 margin to the next integer.
    groups = np.empty((split.shape[1], 4))
    by_group = groups.T
    quotient = split + 0.5
    quotient *= 1e-4
    np.floor(quotient, out=quotient)
    np.multiply(quotient, -1e4, out=by_group[1::2])
    by_group[1::2] += split
    by_group[2] = quotient[1]
    lead = quotient[0] + 0.5
    lead *= 1e-4
    np.floor(lead, out=lead)
    np.multiply(lead, -1e4, out=by_group[0])
    by_group[0] += quotient[0]
    digit = lead.astype(np.uint8)
    digit += ord("0")
    mat[:, _A] = digit
    mat[:, _B] = digit
    index = groups.astype(np.intp)
    text = t["digits"][index].view("V16")[:, 0]
    rows = mat.view(_ROW)[:, 0]
    rows["a"] = text
    rows["b"] = text
    last = (lead > 0).view(np.int8) * np.int8(2)
    for i in range(4):
        np.maximum(last, t["last"][i][index[:, i]], out=last)
    return last


def _format_cells(v: np.ndarray, mat: np.ndarray, newline: np.ndarray) -> bytes:
    """Bytes of the cells ``v`` (row-major) over a template from :func:`_row_template`."""
    t = _tables()
    a = np.abs(v)
    odd = np.flatnonzero(~np.isfinite(a)) if not a.max() < math.inf else None  # inf, nan
    if odd is not None:
        a[odd] = 0.0  # and take the "0" path, as 0 does
    split, x, distance = _decimal(a)
    if odd is not None:
        x[odd] = 2 * (2 - _X_MIN)  # the layout of "nan" and "inf"
    layout = t["layout"][x]
    layout += _write_digits(split, mat)
    layout += np.signbit(v)
    mat.view(_ROW)[:, 0]["exponent"] = t["exponent"][x + newline]
    if odd is not None:
        nan = np.isnan(v[odd])
        layout[odd] -= np.signbit(v[odd]) & nan  # nan has no sign
        mat[odd, _A:_A + 3] = _INF_NAN[nan.view(np.int8)]
    keep = np.take(t["keep"], layout, axis=0)
    body = mat[keep].tobytes()
    if not distance.max() > 0.5 - _TIE:
        return body
    # Splice the scalar format of the near-tie cells into the bytes.
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    pieces, done = [], 0
    for i in np.flatnonzero(distance > 0.5 - _TIE).tolist():
        start = ends[i - 1] if i else 0
        separator = body[ends[i] - 1:ends[i]]
        pieces += [body[done:start], csvio.format_float(float(v[i])).encode("ascii"), separator]
        done = ends[i]
    pieces.append(body[done:])
    return b"".join(pieces)


def format_table(table: np.ndarray) -> bytes:
    """The data lines of a 2-D float64 ``table`` with at least one cell."""
    rows, width = table.shape
    per_pass = max(1, _CHUNK // width)
    mat, newline = _row_template(min(per_pass, rows) * width, width)
    parts = []
    for start in range(0, rows, per_pass):
        cells = table[start:start + per_pass].ravel()
        parts.append(_format_cells(cells, mat[:cells.size], newline[:cells.size]))
    return b"".join(parts)
