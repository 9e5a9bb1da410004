"""Shortest round-trip digits of whole float arrays, as ``repr`` writes them.

``repr_csv(table)`` returns the bytes of ``",".join(map(repr, row)) + "\\n"``
for every row of a 2-D float64 table, without one Python object per value.

``repr`` prints the shortest decimal that reads back to the same double and,
among those, the one nearest to it (Gay's dtoa, mode 0).  Those digits follow
from the rounding interval of each double (the formulation behind Ryu,
Adams 2018):

* Scale: c = |v| 10^s with s = 16 - floor(log10|v|), so that c lies in
  [1e16, 1e17).  c is formed as a double-double (Dekker's product of |v|
  with the two halves of 10^s) and split as c = N + r, N an integer and
  |r| <= 1/2.
* Interval: the reals that round to v = m 2^q are c - d_lo .. c + d_hi in
  units of c, with d_hi = 2^(q-1) 10^s and d_lo = d_hi, or d_hi / 2 when m
  is a power of two.  Its integers are lo .. hi.
* Digits: the largest j with a multiple of 10^j in [lo, hi] gives the
  shortest digits; of the multiples of 10^j that bracket c, the nearer one in
  [lo, hi] is printed.

The scaled value is accurate to about 1e-14 of a last-digit unit.  Every
decision that lands within _MARGIN of a boundary, and every value outside
the window [1e-40, 1e16) (zero aside), is written by ``repr`` itself, so the
bytes never rest on an error estimate.
"""

from __future__ import annotations

import numpy as np

_LOW, _HIGH = 1e-40, 1e16       # window of |v| handled by the array path
_MARGIN = 1e-6                  # distance to a boundary, in last-digit units, that falls back
_WIDTH = 30                     # bytes of one value's template row
_SPLIT = 134217729.0            # 2^27 + 1, Veltkamp's splitting constant

# 10^s = _P10_HI[s] + _P10_LO[s] for 0 <= s <= 60, split from exact integers
_P10_HI = np.array([float(10**s) for s in range(61)])
_P10_LO = np.array([float(10**s - int(float(10**s))) for s in range(61)])
_P10_HI_HIGH = _P10_HI * _SPLIT - (_P10_HI * _SPLIT - _P10_HI)   # Veltkamp halves of _P10_HI
_P10_HI_LOW = _P10_HI - _P10_HI_HIGH
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# template columns: sign, "0.", three leading zeros, 17 digits and the point,
# the "0" of an integer, "e-XX", terminator
_SIGN, _LEAD, _ZEROS, _MID, _ONE, _EXP, _END = 0, 1, 3, 6, 24, 25, 29
_ASCII0, _DOT, _MINUS = ord("0"), ord("."), ord("-")
_ZERO = np.zeros(_WIDTH, np.uint8)
_ZERO[_MID:_MID + 3] = (_ASCII0, _DOT, _ASCII0)                  # "0.0"


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _scaled(a, s):
    """a 10^s as the rounded product p and the rest: p + rest is good to ~2^-104."""
    hi = _P10_HI[s]
    p = a * hi
    ah, al = _split(a)
    bh, bl = _P10_HI_HIGH[s], _P10_HI_LOW[s]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl   # Dekker: a hi = p + e exactly
    return p, e + a * _P10_LO[s]


def _off_integer(x, x_rounded):
    """x is within _MARGIN of an integer, given x_rounded = ceil(x) or floor(x)."""
    return np.abs(np.abs(x_rounded - x) - 0.5) > 0.5 - _MARGIN


def _shortest(a):
    """Digits D (17 of them), their count without trailing zeros, the point
    position and a fallback mask.

    a holds finite values in [_LOW, _HIGH).  The value is D 10^(-s).
    """
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, rest = _scaled(a, s)
    # log10 may round across a power of ten: rescale those few values
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        s[off] += (p[off] < 1e16).astype(np.int64) - (p[off] >= 1e17)
        p[off], rest[off] = _scaled(a[off], s[off])
    bad = (p < 1e16) | (p >= 1e17)
    rounded = np.rint(rest)
    n = p.astype(np.int64) + rounded.astype(np.int64)
    r = rest - rounded                                 # c = n + r, |r| <= 1/2

    mant = np.frexp(a)[0]
    d_hi = p * 2.0**-54 / mant                         # 2^(q-1) 10^s
    d_lo = d_hi * (1.0 - 0.5 * (mant == 0.5))
    lo_edge, hi_edge = r - d_lo, r + d_hi
    lo_up, hi_down = np.ceil(lo_edge), np.floor(hi_edge)
    bad |= _off_integer(lo_edge, lo_up) | _off_integer(hi_edge, hi_down)
    lo = n + lo_up.astype(np.int64)
    hi = n + hi_down.astype(np.int64)

    # j: the largest power with a multiple of 10^j in [lo, hi], that is with
    # hi mod 10^j <= hi - lo; top: the largest such multiple (n when j = 0).
    # The interval is at most 23 wide, so beyond j = 2 the test reads
    # "hi // 100 ends in j - 2 zeros", done on the few values that reach it.
    width = hi - lo
    mod10 = hi - hi // 10 * 10                         # numpy vectorizes //, not %
    mod100 = hi - hi // 100 * 100
    j = (mod10 <= width).astype(np.int64) + (mod100 <= width)
    top = n + (j == 1) * (hi - mod10 - n) + (j == 2) * (hi - mod100 - n)
    deep = np.flatnonzero(j == 2)
    if deep.size:
        hundreds = hi[deep] // 100
        zeros = np.zeros(deep.size, np.int64)
        for power in _POW10[1:16]:
            ends = hundreds // power * power == hundreds
            if not ends.any():
                break
            zeros += ends
        j[deep] += zeros
    step = _POW10[j]

    # the multiples of 10^j just below and above c = floor + frac
    below = r < 0
    floor = n - below
    frac = r + below
    gap = top - floor                                  # <= 12
    base = top - step * ((gap > 0).astype(np.int64) + (gap > step))
    lean = (2 * (floor - base) - step) + 2.0 * frac    # > 0: c is nearer base + step
    bad |= np.abs(lean) < 2 * _MARGIN
    pick_up = ((lean > 0) & (base + step <= hi)) | (base < lo)
    digits = base + step * pick_up
    bad |= (digits < lo) | (digits > hi)
    carry = digits == _POW10[17]
    digits[carry] = _POW10[16]
    s -= carry
    significant = 17 - j + carry
    bad |= (digits < _POW10[16]) | (digits >= _POW10[17])
    return digits, significant, 17 - s, bad


def _mask(condition, char):
    return condition.view(np.uint8) * np.uint8(char)


def _render(digits, significant, decpt, negative):
    """Template rows (_WIDTH, n) of uint8 with NUL padding, terminator row unset."""
    count = digits.size
    chars = np.empty((17, count), np.uint8)
    high, low = np.divmod(digits, _POW10[9])
    for rest, cols in ((low.astype(np.uint32), range(16, 7, -1)),
                       (high.astype(np.uint32), range(7, -1, -1))):
        for col in cols:
            quotient = rest // np.uint32(10)
            chars[col] = rest - quotient * np.uint32(10)
            rest = quotient
    chars += _ASCII0

    decpt, significant = decpt.astype(np.int8), significant.astype(np.int8)
    fixed = decpt > -4                                      # decpt <= 16 in the window
    lead = fixed & (decpt <= 0)
    expo = ~fixed
    keep = np.maximum(significant, decpt * fixed)           # digits written
    # the point follows digit decpt (fixed), digit 1 (exponent) or none ("0.0ddd", "1e-05")
    point = decpt * (fixed & ~lead) + expo
    point[lead | (expo & (significant == 1))] = 18
    index = np.arange(18, dtype=np.int8)[:, None]
    chars *= index[:17] < keep

    out = np.zeros((_WIDTH, count), np.uint8)
    out[_SIGN] = _mask(negative, _MINUS)
    out[_LEAD] = _mask(lead, _ASCII0)
    out[_LEAD + 1] = _mask(lead, _DOT)
    for i in range(3):
        out[_ZEROS + i] = _mask(lead & (decpt < -i), _ASCII0)
    before = index[:17] < point
    mid = out[_MID:_MID + 18]
    mid[:17] = chars * before
    mid[1:] += chars * ~before
    mid += _mask(index == point, _DOT)
    out[_ONE] = _mask(fixed & (decpt >= significant), _ASCII0)
    exponent = (1 - decpt).view(np.uint8)
    out[_EXP] = _mask(expo, ord("e"))
    out[_EXP + 1] = _mask(expo, _MINUS)
    out[_EXP + 2] = (exponent // 10 + _ASCII0) * expo
    out[_EXP + 3] = (exponent % 10 + _ASCII0) * expo
    return out


def _format(values):
    """Template rows (_WIDTH, n) of a flat float64 array, terminator row unset,
    and the indices written by ``repr``."""
    a = np.abs(values)
    fast = (a >= _LOW) & (a < _HIGH)
    is_zero = a == 0.0
    digits, significant, decpt, bad = _shortest(np.where(fast, a, 1.0))
    negative = np.signbit(values)
    out = _render(digits, significant, decpt, negative)
    zero = np.flatnonzero(is_zero)
    out[:, zero] = _ZERO[:, None]
    out[_SIGN, zero] = _mask(negative[zero], _MINUS)
    slow = np.flatnonzero(bad | ~(fast | is_zero))
    for i in slow.tolist():
        text = repr(float(values[i])).encode()
        out[:, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out, slow


def lead_templates(values) -> np.ndarray:
    """Each value's ``repr`` and a comma, as NUL-padded uint8 rows (n, _WIDTH),
    to be given to ``repr_csv`` as the first column of its rows."""
    out, _ = _format(np.ascontiguousarray(values, dtype=np.float64).ravel())
    out[_END] = ord(",")
    return out.T.copy()


def repr_csv(table, lead=None) -> bytes:
    """``",".join(map(repr, row)) + "\\n"`` for every row of a 2-D float table.

    lead, rows of ``lead_templates`` (one per table row), writes a first
    column that was formatted once, ahead of each row's values.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    out, _ = _format(table.ravel())
    out[_END] = np.tile(np.array([ord(",")] * (cols - 1) + [ord("\n")], np.uint8), rows)
    if lead is None:
        return out.T.tobytes().translate(None, b"\0")
    text = np.empty((rows, cols + 1, _WIDTH), np.uint8)
    text[:, 0] = lead
    text[:, 1:] = out.T.reshape(rows, cols, _WIDTH)
    return text.tobytes().translate(None, b"\0")
