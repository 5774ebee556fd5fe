"""The "%.17g" text of Touchstone data records at array speed, imported at
touchstone.write_touchstone's first call rather than compiled at start-up.
"""

from __future__ import annotations

import functools

import numpy as np

from .touchstone import _cell_words

#: 10**0...10**27, exact in a long double with a 64-bit mantissa (x86);
#: where it has fewer bits, records formats every field by "%.17g" %
_TENS = np.cumprod(np.r_[1, [10] * 27].astype(np.longdouble))
_EXACT = np.finfo(np.longdouble).nmant >= 63


@functools.cache
def _field_words():
    """records' words: heads (sign, "0." and zeros of a fixed e < 0, first
    digit); "0000"..."9999" with a point before each digit; 4 j plus the
    place of the last nonzero digit of group j, 0 for "0000"; at 17 p + l,
    the mask that keeps digits up to max(p - 1, l) and, if l >= p, the
    point before digit p; and each field's separator."""
    digits, _, exps, _ = _cell_words()
    quad = digits.view(np.uint8).reshape(-1, 4)
    spaced = np.full((10000, 8), ord("."), np.uint8)
    spaced[:, 1::2] = quad
    place = (np.arange(1, 5, dtype=np.int8) * (quad != ord("0"))).max(1)
    p, l, b = np.arange(18)[:, None, None], np.arange(17)[:, None], \
        np.arange(32)
    keep = ((b % 2 == 1) & (b // 2 < np.maximum(p - 1, l))
            | (b == 2 * p - 2) & (l >= p)) * np.uint8(255)
    heads = np.array([f"{s}{p}{d}" for s in ("", "-") for p in (
        "", "0.", "0.0", "0.00", "0.000") for d in range(10)], "S8")
    seps = np.array([" "] * 32 + ["\n"], "S4")
    seps[[8, 16, 24]] = "\n "           # and the next line's indent
    return (heads.view(np.uint64), spaced.view(np.uint64)[:, 0], exps,
            np.where(place, place + np.int8([[0], [4], [8], [12]]), 0).ravel(),
            keep.reshape(-1, 32).view(np.uint64), seps.view(np.uint32))


def records(rows: np.ndarray) -> str:
    """The data lines of rows (nf, 33), each field as "%.17g" writes it.

    "%.17g" rounds the exact value to 17 digits, half to even.  With
    e = floor(log10|x|) clipped to [-11, 16], x = |x| 10**(16 - e) is one
    rounding in a 64-bit-mantissa long double, within 0.004 of its exact
    value, so its nearest integer n is the 17 digits unless x < 1e16 (e one
    too high), n >= 1e17 or x lies within 0.01 of a half.  Those fields,
    zeros and non-finite ones among them, go to %.  A field is six 8-byte
    words (head, digits 2-17 behind point slots, exponent and separator)
    masked to the bytes it shows; the zero bytes are dropped."""
    heads, spaced, exps, lasts, keep, seps = _field_words()
    v = rows.ravel()
    a, finite = np.abs(v), np.isfinite(v)
    with np.errstate(all="ignore"):     # slow fields are formatted by %
        e = np.floor(np.log10(np.where(finite, a, 1.0)))
        e = np.clip(e, -11, 16).astype(np.int64)
        x = a * _TENS.take(16 - e)
        n = np.rint(x)
        slow = (~finite | (x < 1e16) | (n >= 1e17) | (not _EXACT)
                | (abs(abs((x - n).astype(float)) - 0.5) < 0.01))
        n = np.where(slow, 10 ** 16, n.astype(np.int64))
    hi, lo = np.divmod(n, 10 ** 8)      # digits 1-9 and 10-17
    g = np.stack([hi // 10 ** 4 % 10 ** 4, hi % 10 ** 4,
                  *np.divmod(lo, 10 ** 4)])
    fixed = e >= -4
    i = 17 * np.where(fixed, np.maximum(e + 1, 0), 1) + lasts.take(
        g + [[0], [10000], [20000], [30000]]).max(axis=0)
    cells = np.empty((*rows.shape, 6), np.uint64)
    c = cells.reshape(-1, 6)
    c[:, 0] = heads.take(50 * np.signbit(v) + hi // 10 ** 8
                         + 10 * np.where(fixed & (e < 0), -e, 0))
    c[:, 1:5] = spaced.take(g.T) & keep.take(i, axis=0)
    c.view(np.uint32)[:, 10] = np.where(fixed, 0, exps.take(e + 99))
    c.view("S48")[slow, 0] = ["%.17g" % x for x in v[slow].tolist()]
    cells.view(np.uint32)[..., 11] = seps   # after %'s zero padding
    return cells.tobytes().translate(None, b"\0").decode()
