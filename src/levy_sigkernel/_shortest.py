"""The bytes of ``repr(float(x))`` for every element of a float64 array.

The digits come from Schubfach (R. Giulietti, *The Schubfach way to render
doubles*, 2020; the algorithm of Java's ``Double.toString``).  Like
CPython's ``repr`` it gives the shortest decimal that reads back as the
same double, and of those the one nearest it, ties to an even last digit.
It needs two 64 x 64 -> 128-bit products per value and no loop, so here it
runs on whole uint64 arrays: the products from 32-bit limbs, and the
126-bit ``g`` of each decimal exponent computed exactly from Python ints
the first time a value needs it (:class:`_Powers`).  Zero goes the
same way; subnormals, infinities and NaN, which the package's outputs
hardly hold, take ``repr`` one element at a time.

Each value is laid out in a row of three uint64 words, 24 bytes, which is
the longest repr (``-1.2345678901234567e-308``): repr's ASCII bytes in
order, with zero bytes where no character goes, for a reader to remove
(``bytes.translate(None, b"\\0")``).  Byte 0 holds the minus sign or a
zero; a zero also stands in for each trailing zero that repr strips and
for the first digit of a two-digit exponent.  The layout is repr's: fixed
notation for 1e-4 <= |v| < 1e16, ``d.ddde±XX`` otherwise.
"""

from __future__ import annotations

import numpy as np

_ALL = (1 << 64) - 1
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52              # normal significands are in [2^52, 2^53)
_K_MIN, _K_MAX = -324, 292    # decimal exponents k of the normal doubles
_ONE = 0x3FF0000000000000     # the bits of 1.0
_E8, _E16 = 10 ** 8, 10 ** 16
_ZEROS = 0x3030303030303030   # "00000000"
# A word w of digits as a float64 has the biased exponent 1023 +
# floor(log2 w); less these and over 8, that is the place of its last
# nonzero digit after the first digit (word 0 holds places 1..8, word 1
# 9..16), and at most 0 where w is 0.
_LAST_BIAS = np.array([[1015], [951]])
_DOT = np.uint64(ord("."))
# the 4 decimal digits of 0..9999 as bytes 0..3 (0..9), the first in byte 0
_GROUPS = sum((np.arange(10_000, dtype=np.uint64) // 10 ** (3 - i) % 10) << (8 * i)
              for i in range(4))
WIDTH = 24


class _Powers:
    """g of each decimal exponent k, filled in as values need them:
    10^-k = beta 2^r with 2^125 <= beta < 2^126 and g = floor(beta) + 1,
    held as the four 32-bit limbs of g1 and g0, g = g1 2^63 + g0."""

    def __init__(self):
        self.limbs = np.zeros((4, _K_MAX - _K_MIN + 1), dtype=np.uint64)
        self.known = np.zeros(_K_MAX - _K_MIN + 1, dtype=bool)

    def take(self, k: np.ndarray) -> list[np.ndarray]:
        """The limbs ``g1 >> 32, g1 & M32, g0 >> 32, g0 & M32`` of each
        exponent in ``k``, one array each; those of every exponent from the
        least to the greatest in ``k`` are computed first if they are not
        yet known."""
        k = k - _K_MIN
        lo, hi = int(k.min()), int(k.max()) + 1
        if not self.known[lo:hi].all():
            for i in (lo + np.flatnonzero(~self.known[lo:hi])).tolist():
                g = _g(i + _K_MIN)
                g1, g0 = g >> 63, g & _M63
                self.limbs[:, i] = [g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32]
                self.known[i] = True
        return [limb.take(k) for limb in self.limbs]


def _g(k: int) -> int:
    """floor(10^-k 2^-r) + 1, with r such that it has 126 bits."""
    if k <= 0:
        shift = (10 ** -k).bit_length() - 126
        return (10 ** -k >> shift if shift >= 0 else 10 ** -k << -shift) + 1
    d = 10 ** k
    return (1 << (d.bit_length() + 125)) // d + 1


_POWERS = _Powers()


def _mul(a_hi, a_lo, b_hi, b_lo):
    """The high and low words of a b, from the 32-bit limbs of a < 2^63
    and b < 2^60 (the cross products then sum below 2^64)."""
    lo = a_lo * b_lo
    mid = a_lo * b_hi
    mid += a_hi * b_lo
    mid += lo >> 32
    hi = a_hi * b_hi
    hi += mid >> 32
    lo &= _M32
    lo |= mid << 32
    return hi, lo


def _rop(x1, y1, y0):
    """Schubfach's ``rop``: g cp / 2^127 rounded to odd, from the high word
    ``x1`` of g0 cp and the words ``y1``, ``y0`` of g1 cp."""
    z = y0 >> 1
    z += x1
    out = z >> 63
    out += y1
    z <<= 1
    out |= np.minimum(z, 1, out=z)
    return out


def _moved(x1, x0, y1, y0, g0, g1, shift, back, up: bool):
    """``rop`` of g (cp + 2^shift) (``up``) or g (cp - 2^shift), from the
    words of g0 cp and g1 cp and ``back = 64 - shift``: each product moves
    by g0 2^shift and g1 2^shift, with the carry out of its low word."""
    g_lo = g0 << shift
    carry = (x0 + g_lo < g_lo) if up else (x0 < g_lo)
    x = g0 >> back
    x += carry
    g_lo = g1 << shift
    y = g1 >> back
    if up:
        y0 = y0 + g_lo
        y += y0 < g_lo
        x += x1
        y += y1
    else:
        y += y0 < g_lo
        y0 = y0 - g_lo
        np.subtract(x1, x, out=x)
        np.subtract(y1, y, out=y)
    return _rop(x, y, y0)


def _decimal(bits: np.ndarray):
    """Schubfach's shortest decimal ``f 10^k`` of each positive normal
    double ``bits``, trailing zeros kept, 10^15 <= f < 10^17."""
    c = bits & (_C_MIN - 1)
    q = (bits >> 52).view(np.int64)
    irregular = (c == 0) & (q > 1)         # a power of 2: the lower gap is halved
    c |= _C_MIN
    q -= 1075                              # v = c 2^q
    # k = floor(log10 2^q), or floor(log10(3/4 2^q)) where the gap is halved
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    g1_hi, g1_lo, g0_hi, g0_lo = _POWERS.take(k)
    # cp = 4 c 2^h with Schubfach's h = q + floor(log2 10^-k) + 2, in 2..5,
    # so that g cp / 2^127 is about 4 v 10^-k
    shift = k * -913_124_641_741
    shift >>= 38
    shift += q
    shift = shift.view(np.uint64)
    shift += 4                             # h + 2
    cp = c << shift
    cp_hi = cp >> 32
    cp &= _M32
    x1, x0 = _mul(g0_hi, g0_lo, cp_hi, cp)
    y1, y0 = _mul(g1_hi, g1_lo, cp_hi, cp)
    del cp, cp_hi, q                       # freed early: less memory at once
    vb = _rop(x1, y1, y0)
    # the ends of the rounding interval from the same products moved:
    # (4 c + 2) 2^h and (4 c - 2) 2^h, or (4 c - 1) 2^h where the gap is halved
    g0_lo |= g0_hi << 32
    g1_lo |= g1_hi << 32
    del g0_hi, g1_hi
    shift -= 1                             # h + 1
    vbr = _moved(x1, x0, y1, y0, g0_lo, g1_lo, shift, 64 - shift, True)
    shift -= irregular
    vbl = _moved(x1, x0, y1, y0, g0_lo, g1_lo, shift, 64 - shift, False)
    # the ends belong to the interval where c is even, not where it is odd
    c &= 1
    vbl += c
    vbr -= c
    s = vb >> 2
    # s or s + 1: the one inside the interval, or the one nearer v, ties to
    # the even one
    s4 = vb & ~np.uint64(3)
    nearer_t = vb & 3
    nearer_t += s & 1
    pick_t = (vbl > s4) | ((nearer_t > 2) & (s4 + 4 <= vbr))
    # unless a decimal one digit shorter lies inside: at most one of sp10 and
    # sp10 + 10 does
    sp10 = s // 10
    sp10 *= 10
    s += pick_t
    sp40 = sp10 << 2
    upin = vbl <= sp40
    sp40 += 40
    wpin = sp40 <= vbr
    sp10 += wpin * np.uint64(10)
    sp10 -= s
    sp10 *= upin != wpin
    s += sp10
    return s, k


def _byte_digits(x):
    """The 8 decimal digits of each x < 10^8 as the bytes (0..9) of a
    uint64, the first digit in byte 0: two 4-digit groups from
    ``_GROUPS``."""
    hi = x // 10_000
    lo = x - hi * 10_000
    out = _GROUPS.take(hi.view(np.int64))
    out |= _GROUPS.take(lo.view(np.int64)) << 32
    return out


def reprs(x) -> np.ndarray:
    """``repr(float(v))`` of each element v of the float64 array ``x``, as an
    ``x.shape + (24,)`` uint8 array: repr's bytes in order, with zero bytes
    where no character goes (see the module docstring)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape + (WIDTH,), dtype=np.uint8)
    bits = np.ascontiguousarray(x).reshape(-1).view(np.uint64)
    n = len(bits)
    magnitude = bits & _M63
    exponent = magnitude >> 52
    special = (exponent == 0) | (exponent == 0x7FF)
    del exponent
    zero = magnitude == 0
    # the other values go through as 1.0: a zero's digits become 0 below,
    # and the rest are replaced by their repr at the end
    magnitude[special] = _ONE
    f, decpt = _decimal(magnitude)
    del magnitude
    short = f < _E16
    f += f * 9 * short                                   # 17 digits
    f *= ~zero                                           # 0.0 reads "0.0"
    decpt += 17
    decpt -= short                                       # v = 0.ddd 10^decpt
    fixed = (decpt + 3).view(np.uint64) < 20            # -3 <= decpt <= 16

    # the first digit, then two words of eight digits, one to a byte
    top = f // _E8
    first = top // _E8
    words = np.empty((2, n), dtype=np.uint64)
    np.subtract(top, first * _E8, out=words[0])
    np.subtract(f, top * _E8, out=words[1])
    words = _byte_digits(words)
    # the place of the last nonzero digit, 0 for the first: from the top
    # byte of each word (rounding to a float stays in that byte)
    last = words.astype(np.float64).view(np.int64)
    last >>= 52
    last -= _LAST_BIAS
    last = last.max(axis=0)
    last >>= 3
    np.maximum(last, 0, out=last)
    # fixed notation keeps the integer part's zeros and one after the point
    keep = decpt + 1
    keep *= fixed
    np.maximum(keep, last + 1, out=keep)
    keep <<= 3                                           # bits of the kept digits
    cut = 72 - keep                                      # word 0 holds digits 1..8
    np.maximum(cut, 0, out=cut)
    words[0] |= _ZEROS >> cut.view(np.uint64)
    np.subtract(136, keep, out=cut)                      # word 1 holds 9..16
    words[1] |= _ZEROS >> cut.view(np.uint64)
    first += ord("0")

    # byte 0 the sign; then, in fixed notation before the point, a "0" and
    # one more for each place that decpt is below 1; then the digits
    pad = 1 - decpt
    pad *= fixed
    np.maximum(pad, 0, out=pad)
    pad = pad.view(np.uint64)
    pad <<= 3
    r0 = _ZEROS >> (64 - pad)
    r0 <<= 8
    r0 |= (bits >> 63) * ord("-")
    pad += 8
    r0 |= first << pad
    pad += 8
    r0 |= words[0] << pad
    back = 64 - pad
    r1 = words[0] >> back
    r1 |= words[1] << pad
    r2 = np.right_shift(words[1], back, out=words[1])
    # the point goes in at byte 1 + decpt in fixed notation with decpt >= 1,
    # at byte 2 otherwise (after the "0" or the first digit), and the bytes
    # from there on move up by one
    point = decpt - 1
    point *= fixed
    np.maximum(point, 0, out=point)
    point = point.view(np.uint64)
    point += 2
    point <<= 3                                          # 16..136 bits
    # each word keeps its bytes below the point and moves the others up a
    # byte, taking in the top byte of the word below
    m2 = _ALL >> (192 - point)
    m1 = _ALL >> (128 - point)
    m1 |= 0 - (m2 & 1)                                   # all of word 1 past it
    carry = 0
    for r, mask in ((r0, ~(_ALL << point)), (r1, m1), (r2, m2)):
        low = r & mask
        r ^= low
        top = r >> 56
        r <<= 8
        r |= low
        r |= carry
        carry = top
    r0 |= _DOT << point
    point -= 64
    r1 |= _DOT << point
    point -= 64
    r2 |= _DOT << point
    out = np.empty((n, 3), dtype=np.uint64)
    out[:, 0], out[:, 1], out[:, 2] = r0, r1, r2
    if not fixed.all():
        # the exponent form: "e", its sign and two or three digits after
        # the 17 places of the digits (bytes 19..23)
        where = np.flatnonzero(~fixed)
        e = decpt[where] - 1
        mag = np.abs(e)
        suffix = ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8
        suffix |= np.where(mag >= 100, mag // 100 + ord("0"), 0) << 16
        suffix |= (mag // 10 % 10 + ord("0")) << 24
        suffix |= (mag % 10 + ord("0")) << 32
        out[where, 2] |= suffix.view(np.uint64) << 24
        # no point after a single digit
        out[where[last[where] == 0], 0] &= ~np.uint64(0xFF << 16)
    out = out.view(np.uint8)
    if special.any():
        for i in np.flatnonzero(special & ~zero).tolist():
            text = repr(float(x.flat[i])).encode()
            out[i] = 0
            out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(x.shape + (WIDTH,))
