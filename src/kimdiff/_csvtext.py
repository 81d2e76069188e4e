"""The shortest round-trip text of float64 values, many at a time.

repr_fields(values) gives the bytes of repr(float(v)) for every v of a
float64 array, one row of a uint8 matrix per value.  Zero bytes pad a row
anywhere; its nonzero bytes, in order, are the text.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) as in Java's DoubleToDecimal, less Java's two-digit minimum, which
repr does not have.  Its 64 x 64 -> 128-bit products run on numpy uint64 in
32-bit limbs.  The 126-bit powers of ten come from Python ints, made for the
exponents met and kept.

Layout: CPython's repr.  Positional for 1e-4 <= |v| < 1e16, with '.0' on
integers; otherwise d.ddde+XX, with at least two exponent digits; '-0.0',
'nan', 'inf' and '-inf'.  Each row is put together from small tables
indexed per value, so no step loops over digits.
"""

import functools
from typing import NamedTuple

import numpy as np

_M32 = 0xFFFFFFFF
_M63 = 2**63 - 1
_INF = 0x7FF0000000000000
_ONE = 0x3FF0000000000000
_DIGITS = 17  # a double's shortest text has at most 17 significant digits
_E_MIN, _E_MAX = -292, 325  # the range of -k over all doubles
# the most values per pass: each pass has a fixed cost of about 150 numpy
# calls, and its temporaries grow with it.  On the 14764 values of a
# spectral_evolve bench call (2-core x86), a pass took 6.2, 5.2 and 4.9 ms at
# 4096, 8192 and 16384, its temporaries peaking at 1.2, 2.0 and 3.4 MB
_CHUNK = 8192


def _floor_log10_pow2(q, three_quarters):
    """floor(log10(2**q)), or of 3/4 2**q where three_quarters holds; exact
    for the binary exponents of doubles."""
    return q * 661971961083 - three_quarters * 274743187321 >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)), exact from _E_MIN to _E_MAX."""
    return e * 913124641741 >> 38


def _pow10_limbs(e):
    """g = floor(10**e / 2**r) + 1, the 126-bit overestimate of 10**e with
    r = floor(log2(10**e)) - 125, as the 32-bit halves of g >> 63 and of
    g mod 2**63."""
    r = _floor_log2_pow10(e) - 125
    num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    g = num // den + 1
    g1, g0 = g >> 63, g & _M63
    return g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32


@functools.cache
def _pow10_table():
    """The limbs of g by e - _E_MIN, as a (4, span) array, and which of its
    columns are made; a column is made when its exponent is first met."""
    span = _E_MAX - _E_MIN + 1
    return np.zeros((4, span), np.uint64), np.zeros(span, bool)


def _pow10(e):
    """The limbs of g for each exponent of e, as a (4, len(e)) array."""
    limbs, made = _pow10_table()
    index = e - _E_MIN
    new = index[~made[index]]
    if new.size:
        new = np.unique(new)
        limbs[:, new] = np.array([_pow10_limbs(int(i) + _E_MIN) for i in new], np.uint64).T
        made[new] = True
    return np.take(limbs, index, axis=1)


def _round_to_odd(g, cp):
    """Schubfach's rop: floor(g * cp / 2**127), its lowest bit set when the
    bits below are not all zero; g is as _pow10 gives it and cp < 2**60.
    g * cp is x + y * 2**63 with x = g0 * cp and y = g1 * cp, each product
    from the 32-bit halves of its factors; no partial sum overflows."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    low = g0l * cl
    mid = g0l * ch + (low >> 32)
    cross = g0h * cl + (mid & _M32)
    x1 = g0h * ch + (mid >> 32) + (cross >> 32)  # x >> 64
    low = g1l * cl
    mid = g1l * ch + (low >> 32)
    cross = g1h * cl + (mid & _M32)
    y1 = g1h * ch + (mid >> 32) + (cross >> 32)  # y >> 64
    y0 = (cross << 32) | (low & _M32)  # y mod 2**64
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (z << 1 != 0)


def _shortest(bits):
    """(f, k) for the finite nonzero doubles with magnitude bits `bits`:
    f * 10**k is the decimal with the fewest digits that rounds to the
    double, the closest to it among those, and the one with an even last
    digit on a tie.  f may end in zeros."""
    t = bits & (2**52 - 1)
    biased = bits >> 52
    c = t | (biased != 0).astype(np.uint64) << 52
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    # the gap below a power of two is half the gap above, except next to
    # the subnormals
    irregular = (t == 0) & (biased > 1)
    k = _floor_log10_pow2(q, irregular)
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)

    # 4 v / 10**k and the ends of the rounding interval, each rounded to odd
    g = _pow10(-k)
    cb = c << 2
    vb, vbl, vbr = (_round_to_odd(g, cp << h) for cp in (cb, cb - 2 + irregular, cb + 2))
    # d 10**k rounds to v iff lower <= 4 d <= upper: the ends belong to the
    # interval when c is even
    odd = c & 1
    lower, upper = vbl + odd, vbr - odd

    s = vb >> 2
    # one digit fewer: at most one of sp and sp + 10 is inside
    sp = s // 10 * 10
    up = lower <= sp << 2
    shorter = (s >= 10) & (up != ((sp + 10) << 2 <= upper))
    # else s or s + 1, whichever is inside, or the closer when both are
    u = lower <= s << 2
    mid = (2 * s + 1) << 1
    down = np.where(u != ((s + 1) << 2 <= upper), u,
                    (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    f = np.where(shorter, sp + np.uint64(10) * ~up, s + ~down)
    return f, k


class _Tables(NamedTuple):
    pow10: np.ndarray  # 10**i, i < 17
    words: np.ndarray  # uint32: a lead digit's bytes 0, 0, 0, d by d < 10; by
    #                    10 + i and 10 + 10**4 + i, the four digits of i < 10**4,
    #                    then those with their trailing zeros as padding
    lengths: np.ndarray  # the digits each word shows
    dots: np.ndarray  # row i > 0: '.' in column i - 1
    prefixes: np.ndarray  # row i > 0: '0.' and i - 1 zeros
    suffixes: np.ndarray  # row i > 0: i - 1 zeros and '.0'
    exponents: np.ndarray  # row x + 325: 'e' and x, signed, two digits or more


def _text_rows(texts):
    """The byte strings as the rows of a uint8 matrix, zero-padded."""
    width = max(map(len, texts))
    return np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width)


@functools.cache
def _tables():
    quads = [b"%04d" % i for i in range(10**4)]
    words = _text_rows([b"\0\0\0%d" % d for d in range(10)] + quads
                       + [quad.rstrip(b"0") for quad in quads])
    return _Tables(
        pow10=10 ** np.arange(_DIGITS, dtype=np.uint64),
        words=words.view(np.uint32).ravel(),
        lengths=(words != 0).sum(axis=1),
        dots=_text_rows([b""] + [b"\0" * i + b"." for i in range(_DIGITS - 1)]),
        prefixes=_text_rows([b"", b"0.", b"0.0", b"0.00", b"0.000"]),
        suffixes=_text_rows([b""] + [b"0" * i + b".0" for i in range(_DIGITS - 1)]),
        exponents=_text_rows([b""] + [b"e%+03d" % x for x in range(-324, 309)]),
    )


def repr_fields(values):
    """The bytes of repr(float(v)) for each v of a 1-D float array, as the
    nonzero bytes of each row of a uint8 matrix."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not len(values):
        return np.zeros((0, 0), np.uint8)
    if len(values) <= _CHUNK:
        return _repr_chunk(values)
    size = -(-len(values) // -(-len(values) // _CHUNK))  # even chunks
    parts = [_repr_chunk(values[at:at + size]) for at in range(0, len(values), size)]
    out = np.zeros((len(values), max(part.shape[1] for part in parts)), np.uint8)
    at = 0
    for part in parts:
        out[at:at + len(part), :part.shape[1]] = part
        at += len(part)
    return out


def _repr_chunk(values):
    bits = values.view(np.uint64)
    n = len(bits)
    negative = bits >> 63 != 0
    mag = bits & _M63
    finite = mag < _INF
    number = finite & (mag != 0)
    f, k = _shortest(np.where(number, mag, _ONE))  # 1.0 stands in for the rest
    f *= number  # 0 reads "0.0"
    k *= number
    tables = _tables()

    # f's digits moved to the left of 17: a lead digit and four quads, each
    # quad without its trailing zeros when no later quad has a digit
    length = np.maximum(np.searchsorted(tables.pow10, f, "right"), 1)
    f17 = f * np.take(tables.pow10, _DIGITS - length)
    lead = f17 // 10**16
    rest = (f17 - lead * 10**16).astype(np.int64)
    high = rest // 10**8
    low = rest - high * 10**8
    index = np.empty((5, n), np.int64)
    index[0] = lead
    index[1] = high // 10**4
    index[2] = high - index[1] * 10**4
    index[3] = low // 10**4
    index[4] = low - index[3] * 10**4 + 10 + 10**4
    zero = index[4] == 10 + 10**4
    for j in (3, 2, 1):
        after = zero
        zero = after & (index[j] == 0)
        index[j] += 10 + 10**4 * after
    digits = np.take(tables.words, index.T).view(np.uint8)  # column 2 + j: digit j
    significant = np.take(tables.lengths, index).sum(axis=0)

    # |v| = 0.d1d2... * 10**point
    point = k + length
    sci = (point < -3) | (point > 16)
    inside = point < significant  # a positional '.' falls between digits
    dot = np.where(sci, significant > 1, point * (inside & (point > 0)))  # digits before '.'
    fixed = ~sci
    prefix = (1 - point) * (fixed & (point <= 0))
    suffix = (point - significant + 1) * (fixed & ~inside)
    exponent = (point + 324) * sci

    # columns: sign, prefix, the digits with a '.' slot after each of the
    # first max(dot), suffix, exponent; each only as wide as a value needs
    top = int(dot.max())
    pre = int(prefix.max())
    pre += pre > 0
    suf = int(suffix.max())
    suf += suf > 0
    exp = 5 * bool(sci.any())
    sign = int(negative.any())
    out = np.empty((n, sign + pre + _DIGITS + top + suf + exp), np.uint8)
    if sign:
        out[:, 0] = negative * ord("-")
    at = sign
    if pre:
        out[:, at:at + pre] = np.take(tables.prefixes, prefix, axis=0)[:, :pre]
        at += pre
    out[:, at:at + 2 * top:2] = digits[:, 3:3 + top]
    out[:, at + 1:at + 2 * top:2] = np.take(tables.dots, dot, axis=0)[:, :top]
    at += 2 * top
    out[:, at:at + _DIGITS - top] = digits[:, 3 + top:]
    at += _DIGITS - top
    if suf:
        out[:, at:at + suf] = np.take(tables.suffixes, suffix, axis=0)[:, :suf]
        at += suf
    if exp:
        out[:, at:] = np.take(tables.exponents, exponent, axis=0)

    rows = np.flatnonzero(~finite)
    if rows.size:
        words = np.array([b"inf", b"-inf", b"nan"], "S4").view(np.uint8).reshape(3, 4)
        out[rows] = 0
        out[rows, :4] = words[np.where(mag[rows] > _INF, 2, negative[rows])]
    return out
