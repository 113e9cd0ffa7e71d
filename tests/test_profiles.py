"""Derivative correctness of the 1D profile combinators."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.errors import DomainError
from warpverify.profiles import (
    ProfileFn, const_profile, exp_profile, linear_profile,
    log_profile, poly_profile, power_profile, sqrt_profile,
)


def fd1(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def fd2(fn, t, h=1e-4):
    return (fn(t + h) - 2 * fn(t) + fn(t - h)) / h**2


CASES = [
    poly_profile([1.0, -2.0, 0.5, 3.0]),
    linear_profile(2.0, -1.0) * poly_profile([0.0, 1.0, 1.0]),
    poly_profile([1.0, 1.0]) / poly_profile([2.0, 0.0, 1.0]),
    sqrt_profile(poly_profile([1.0, 0.0, 1.0])),
    exp_profile(linear_profile(0.3, 0.1)),
    log_profile(poly_profile([2.0, 0.0, 1.0])),
    power_profile(1.5, 2.0),
    const_profile(4.0) - 2.0 * linear_profile(1.0),
]


@pytest.mark.parametrize("profile", CASES)
@pytest.mark.parametrize("t", [0.7, 1.3, 2.9])
def test_combinator_derivatives_match_finite_differences(profile, t):
    assert profile.d1(t) == pytest.approx(fd1(profile, t), rel=1e-6, abs=1e-8)
    assert profile.d2(t) == pytest.approx(fd2(profile, t), rel=1e-4, abs=1e-6)


def test_domain_enforced():
    p = sqrt_profile(poly_profile([-1.0, 0.0, 1.0], domain=(1.0, math.inf)))
    assert p(2.0) == pytest.approx(math.sqrt(3.0))
    with pytest.raises(DomainError):
        p(0.5)


def test_structure_tags_survive_scaling():
    p = linear_profile(3.0, 1.0) * 2.0
    assert p.structure == ("linear", 6.0, 2.0)
    q = const_profile(5.0) * 0.5
    assert q.structure == ("const", 2.5)
    assert (p * q).structure is None


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), t=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_linear_profile_values(a, b, t):
    p = linear_profile(a, b)
    assert p(t) == pytest.approx(a * t + b, rel=1e-12, abs=1e-12)
    assert p.d1(t) == a
    assert p.d2(t) == 0.0


def test_exactness_flag():
    # both derivatives are required: a profile has no finite-difference mode
    with pytest.raises(TypeError):
        ProfileFn(lambda t: t)
    with pytest.raises(TypeError):
        ProfileFn(lambda t: t, deriv=lambda t: 1.0)
    p = ProfileFn(lambda t: t, lambda t: 1.0, lambda t: 0.0)
    assert (p(2.0), p.d1(2.0), p.d2(2.0)) == (2.0, 1.0, 0.0)
