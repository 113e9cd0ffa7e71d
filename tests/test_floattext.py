"""`floattext.g17` against CPython's own `'%.17g' % x`, string for string."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpverify import floattext
from warpverify.floattext import CHUNK, g17


def percent(x, newline=False):
    end = "\n" if newline else ""
    return ["%.17g" % v + end for v in np.asarray(x, dtype=np.float64).tolist()]


def kernel(x, newline=False):
    """g17 with every input, however short, through the vectorized path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floattext, "SMALL", 0)
        return g17(np.asarray(x, dtype=np.float64), newline)


# Any 64-bit pattern, and patterns whose exponent lies in or just beyond
# [2**-14, 2**57], around the kernel's range [1e-4, 1e17).
RAW_BITS = st.integers(0, 2**64 - 1)
IN_RANGE_BITS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                          st.integers(0, 1), st.integers(1023 - 15, 1023 + 57),
                          st.integers(0, 2**52 - 1))

# name -> (value, its %.17g text where the name makes a claim about it)
NAMED = {
    "tie below rounds to even": (1000000000000000.25, "1000000000000000.2"),
    "tie above rounds to even": (1000000000000000.75, "1000000000000000.8"),
    "carries to 0.0001": (9.99999999999999995e-5, "0.0001"),
    "carries to 1e+17": (99999999999999999.0, "1e+17"),
    "zero": (0.0, "0"),
    "negative zero": (-0.0, "-0"),
    "nan": (math.nan, "nan"),
    "inf": (math.inf, "inf"),
    "negative inf": (-math.inf, "-inf"),
    "smallest subnormal": (5e-324, "4.9406564584124654e-324"),
    "largest double": (1.7976931348623157e308, "1.7976931348623157e+308"),
}
POWERS_OF_TEN = [v for k in range(-5, 18) for p in (float(f"1e{k}"),)
                 for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]


@given(st.lists(RAW_BITS | IN_RANGE_BITS, min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_matches_percent_on_raw_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert kernel(x) == percent(x)
    assert kernel(x, newline=True) == percent(x, newline=True)
    assert g17(x) == percent(x)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_edge_values(name):
    value, text = NAMED[name]
    assert percent([value]) == [text]
    assert kernel([value]) == [text]
    assert kernel([-value]) == percent([-value])


def test_powers_of_ten_and_their_neighbours():
    x = np.array(POWERS_OF_TEN + [-v for v in POWERS_OF_TEN])
    assert kernel(x) == percent(x)
    assert kernel(x, newline=True) == percent(x, newline=True)


def test_chunks_and_fallbacks_keep_their_places():
    rng = np.random.default_rng(11)
    n = 2 * CHUNK + CHUNK // 2
    x = rng.lognormal(0.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    x[[0, CHUNK - 1, CHUNK, 2 * CHUNK, n - 1]] = [math.nan, -0.0, 1e-300, -math.inf, 1e17]
    assert g17(x) == percent(x)
    assert g17(x, newline=True) == percent(x, newline=True)


def test_in_range_values_take_the_vectorized_path(monkeypatch):
    # `%` is used only where the text has an exponent or the value is not
    # a nonzero finite double: mark its strings and look for the marks
    monkeypatch.setattr(floattext, "_G", "<%.17g>")
    rng = np.random.default_rng(5)
    x = 10.0 ** rng.uniform(-4.0, 16.9, 4 * CHUNK) * rng.choice([-1.0, 1.0], 4 * CHUNK)
    assert not any(s.startswith("<") for s in g17(x))
    edges = np.array([0.0, -0.0, math.nan, math.inf, 9.9e-5, 1e17, -2e300] * 30)
    assert all(s.startswith("<") for s in g17(edges))


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_an_exponent_off_by_one_sends_the_lane_to_percent(shift):
    # log10 one too small or too large puts p + e outside [1e16, 1e17);
    # at exact powers of ten one too small makes D exactly 10**17
    rng = np.random.default_rng(3)
    x = np.concatenate([POWERS_OF_TEN, 10.0 ** rng.uniform(-4.0, 17.0, 2000)])
    log10 = np.log10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "log10", lambda a: log10(a) + shift)
        assert kernel(x) == percent(x)
