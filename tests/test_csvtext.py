from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kimdiff import _csvtext


def texts(values):
    """repr_fields' text of each value, and repr's, as two lists."""
    values = np.asarray(values, dtype=np.float64)
    table = _csvtext.repr_fields(values)
    lines = np.concatenate([table, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    got = np.compress(lines.ravel() != 0, lines.ravel()).tobytes().decode().split("\n")[:-1]
    return got, [repr(float(v)) for v in values]


TINY = 2.2250738585072014e-308  # the smallest normal double
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323,
    TINY, np.nextafter(TINY, 0.0), np.nextafter(TINY, 1.0),
    1.7976931348623157e308, -1.7976931348623157e308,
    # the fixed/exponent boundaries
    1e-4, 9.999999999999999e-05, 1e-05, 0.00012345678901234567,
    9999999999999998.0, 1e16, 1.0000000000000002e16,
    2.0**53, 2.0**53 - 1, 2.0**53 + 2, -(2.0**53),
    0.1, 0.3, 1 / 3, 2 / 3, 1.0, -1.0, 1.5, 100.0, 1e15, 123456789012345.67,
    1e22, 1e23, 5e-310, 1.5e300, -2.5e-7, 12345.678,
    float("nan"), float("inf"), float("-inf"),
]
# powers of two, whose rounding intervals are asymmetric, and their neighbours
POWERS = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS = np.concatenate([POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)])


@pytest.mark.parametrize("values", [EDGES, POWERS, -POWERS, np.empty(0)],
                         ids=["edges", "powers", "negative", "empty"])
def test_edge_values_read_as_repr(values):
    got, want = texts(values)
    assert got == want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_reads_as_repr(values):
    got, want = texts(values)
    assert got == want


def test_random_bit_patterns_read_as_repr():
    # 2**17 patterns: every exponent, subnormals, nan payloads; four passes
    bits = np.random.default_rng(20).integers(0, 2**64, 2**17, dtype=np.uint64, endpoint=False)
    got, want = texts(bits.view(np.float64))
    assert got == want


def floor_log10(x):
    """floor(log10(x)) of a positive Fraction, by integer comparison."""
    k = len(str(x.numerator)) - len(str(x.denominator))  # off by at most one
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def test_exponent_helpers_are_exact_where_used():
    for q in range(-1074, 972):
        for three_quarters in (False, True):
            k = _csvtext._floor_log10_pow2(q, three_quarters)
            assert k == floor_log10(Fraction(2) ** q * (Fraction(3, 4) if three_quarters else 1))
            # -k indexes the power-of-ten table, and h <= 5 keeps (4 c + 2) << h,
            # with c < 2**53, below the 2**60 that _round_to_odd takes
            assert _csvtext._E_MIN <= -k <= _csvtext._E_MAX
            assert 1 <= q + _csvtext._floor_log2_pow10(-k) + 2 <= 5
    for e in range(_csvtext._E_MIN, _csvtext._E_MAX + 1):
        r = _csvtext._floor_log2_pow10(e)
        assert r == ((10**e).bit_length() - 1 if e >= 0 else -((10**-e - 1).bit_length()))
        g1h, g1l, g0h, g0l = _csvtext._pow10_limbs(e)
        g = (g1h << 95) + (g1l << 63) + (g0h << 32) + g0l
        assert 2**125 <= g < 2**126
        assert g - 1 <= Fraction(10) ** e / Fraction(2) ** (r - 125) < g
