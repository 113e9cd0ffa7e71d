"""`'%.17g' % x` for every element of a float64 array, vectorized.

The strings are exact: each is the one CPython's correctly rounded dtoa
gives.  For |x| in [1e-4, 1e17), where `%.17g` prints no exponent, the 17
significant digits come from integer arithmetic:

* X = floor(log10|x|) and k = 16 - X, so that 10**k (0 <= k <= 20) is a
  double exactly;
* Dekker's error-free product (Dekker, Numer. Math. 18, 1971; no fused
  multiply-add needed) gives |x| * 10**k exactly as p + e.  p is an even
  integer above 2**53 and |e| <= 8, so the 17-digit integer D, rounded half
  to even as dtoa rounds, is p + rint(e);
* D becomes ASCII through its leading digit and four 4-digit table
  lookups, and a template per (X, last digit printed, sign) lays out the
  sign, the "0.000" prefix, the point and the digits, NUL-padded to a fixed
  width.  Read as a numpy str array, whose items shed trailing NULs, the
  rows become the strings.

Every other element is formatted by `%` itself: values that print with an
exponent, ±0, NaN and ±inf, and any lane whose p + e falls outside
[1e16, 1e17), because log10 was off by one or D carried to 10**17.
"""

from __future__ import annotations

import numpy as np

# Elements per pass; a pass holds a (CHUNK, _WIDTH) index matrix.
CHUNK = 1024

_G = "%.17g"
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves

_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])  # each product is exact


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

_QUAD = np.arange(10000)
# The ASCII digits of each 4-digit group, most significant byte first,
# as one little-endian word.
_QUADS = ((_QUAD[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48)
          .astype(np.uint8).view("<u4")[:, 0])
# The trailing zeros of each 4-digit group, 4 for 0000.
_TRAILING = sum((_QUAD % 10**z == 0).astype(np.intp) for z in range(1, 5))

# A lane's 24 source bytes: the leading digit, "-", "0", ".", the other 16
# digits, a newline and NULs.
_WIDTH = 24
_DIGIT = [0, *range(4, 20)]
_MINUS, _ZERO, _POINT, _NEWLINE, _NUL = 1, 2, 3, 20, 21
_WORD0 = 48 | 45 << 8 | 48 << 16 | 46 << 24  # "0-0." with the leading digit 0


def _layout(X: int, last: int, minus: bool) -> list[int]:
    """The source bytes of the text of a value with exponent X printed up
    to digit `last` (last >= X), NUL-padded to _WIDTH."""
    cols = [_MINUS] if minus else []
    if X >= 0:
        cols += _DIGIT[:X + 1]
        if last > X:
            cols += [_POINT, *_DIGIT[X + 1:last + 1]]
    else:
        cols += [_ZERO, _POINT, *[_ZERO] * (-X - 1), *_DIGIT[:last + 1]]
    return cols + [_NUL] * (_WIDTH - len(cols))


# [newline][((X + 4) * 17 + last) * 2 + minus], for -4 <= X <= 16; the
# newline templates end the text with the source's newline.
_TEMPLATES = np.array([_layout(X, last, minus) for X in range(-4, 17)
                       for last in range(17) for minus in (False, True)], dtype=np.intp)
_TEMPLATES = np.stack([_TEMPLATES, _TEMPLATES])
_TEMPLATES[1, np.arange(_TEMPLATES.shape[1]), (_TEMPLATES[1] != _NUL).sum(axis=1)] = _NEWLINE
_ROW_START = _WIDTH * np.arange(CHUNK)[:, None] + np.zeros(_WIDTH, dtype=np.intp)

# Below this many elements `%` per element beats the kernel, whose fixed
# cost is about 45 us a call (break-even near 145 elements on a 2-vCPU host).
SMALL = 144


def g17(values, newline: bool = False) -> list[str]:
    """`['%.17g' % x for x in values]` for a 1-d float64 array, with "\\n"
    after each string when `newline` is set."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < SMALL:
        end = "\n" if newline else ""
        return [_G % v + end for v in values.tolist()]
    text: list[str] = []
    for lo in range(0, values.size, CHUNK):
        text += _chunk(values[lo:lo + CHUNK], newline)
    return text


def _chunk(x, newline: bool) -> list[str]:
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)  # False on NaN
    a[~fast] = 1.0
    X = np.minimum(np.maximum(np.floor(np.log10(a)), -4.0), 16.0).astype(np.intp)
    k = 16 - X
    # p + e == a * 10**k exactly
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # 1e16 <= p + e, and D < 10**17: X was the exponent and D did not carry
    fast &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (D < 10**17)

    high = D // 10**8
    low = D - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    quads = np.empty((4, n), dtype=np.int64)
    quads[0] = high // 10**4
    quads[1] = high - quads[0] * 10**4
    quads[2] = low // 10**4
    quads[3] = low - quads[2] * 10**4
    src = np.empty((n, _WIDTH // 4), dtype="<u4")
    src[:, 0] = lead + _WORD0
    for i in range(4):
        src[:, 1 + i] = _QUADS[quads[i]]
    src[:, 5] = 10  # newline, then NULs

    # the last digit printed: the last nonzero one, or the units digit
    t0, t1, t2, t3 = _TRAILING[quads]
    zeros = t3 + (t3 == 4) * (t2 + (t2 == 4) * (t1 + (t1 == 4) * t0))
    last = np.maximum(16 - zeros, X)
    at = np.take(_TEMPLATES[int(newline)], ((X + 4) * 17 + last) * 2 + (x < 0), axis=0)
    at += _ROW_START[:n]
    # as UCS-4 code points: a str array sheds each row's trailing NULs
    chars = src.view(np.uint8).reshape(-1)[at].astype(np.uint32)
    text = chars.view(f"U{_WIDTH}").reshape(-1).tolist()

    slow = np.flatnonzero(~fast)
    end = "\n" if newline else ""
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text[i] = _G % v + end
    return text
