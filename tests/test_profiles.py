"""Derivative correctness of the 1D profile constructors, product and
quotient."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.errors import DomainError
from warpverify.profiles import (
    POSITIVE_AXIS, ProfileFn, const_profile, linear_profile, poly_profile,
    power_profile,
)


def fd1(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def fd2(fn, t, h=1e-4):
    return (fn(t + h) - 2 * fn(t) + fn(t - h)) / h**2


CASES = [
    poly_profile([1.0, -2.0, 0.5, 3.0]),
    linear_profile(2.0, -1.0) * poly_profile([0.0, 1.0, 1.0]),
    poly_profile([1.0, 1.0]) / poly_profile([2.0, 0.0, 1.0]),
    # the constructed metric's E = 1/p^2 and G = s^2
    const_profile(1.0) / (linear_profile(1.3) * linear_profile(1.3)),
    power_profile(2.0, 0.25) * power_profile(2.0, 0.25),
    # the disk and half-plane conformal factors
    const_profile(4.0) / (poly_profile([1.0, -1.0]) * poly_profile([1.0, -1.0])),
    power_profile(1.5, 2.0),
    const_profile(1.0) / poly_profile([0.0, 0.0, 1.0]),
]


@pytest.mark.parametrize("profile", CASES)
@pytest.mark.parametrize("t", [0.7, 1.3, 2.9])
def test_combinator_derivatives_match_finite_differences(profile, t):
    assert profile.d1(t) == pytest.approx(fd1(profile, t), rel=1e-6, abs=1e-8)
    assert profile.d2(t) == pytest.approx(fd2(profile, t), rel=1e-4, abs=1e-6)


def test_domain_enforced():
    # a quotient lives on the intersection of its factors' domains
    p = poly_profile([-1.0, 0.0, 1.0], domain=(1.0, math.inf)) / linear_profile(2.0)
    assert p(2.0) == pytest.approx(0.75)
    with pytest.raises(DomainError):
        p(0.5)


def test_structure_tags_mark_linear_and_constant_profiles():
    assert linear_profile(3.0, 1.0).structure == ("linear", 3.0, 1.0)
    assert const_profile(5.0).structure == ("const", 5.0)
    for untagged in (poly_profile([0.0, 3.0]), power_profile(1.0, 3.0),
                     linear_profile(3.0) * const_profile(1.0),
                     linear_profile(3.0) / const_profile(1.0)):
        assert untagged.structure is None


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


class TestEvaluationDispatch:
    """Every evaluation inside a closure tree or a field lift resolves
    `__call__`, `d1` and `d2` on the class when it runs, so counting
    wrappers installed on the class after the tree is built see each one
    (the benchmark's layer tracer counts evaluations this way).  Binding
    the methods at construction, or calling `_value` and friends directly,
    hides evaluations from such wrappers and fails these counts."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from collections import Counter

        seen = Counter()

        def counting(name, method):
            def wrapper(self, t):
                seen[name] += 1
                return method(self, t)
            return wrapper

        def install():
            for name in ("__call__", "d1", "d2"):
                monkeypatch.setattr(ProfileFn, name,
                                    counting(name, getattr(ProfileFn, name)))
            return seen
        return install

    @staticmethod
    def ratio():
        p = linear_profile(0.7, domain=POSITIVE_AXIS)
        c = const_profile(1.0, domain=POSITIVE_AXIS)
        return c / (p * p)

    @staticmethod
    def tally(seen, evaluate):
        seen.clear()
        evaluate()
        return dict(seen)

    def test_quotient_of_product(self, counts):
        q = self.ratio()
        seen = counts()
        assert self.tally(seen, lambda: q(1.5)) == {"__call__": 5}
        assert self.tally(seen, lambda: q.d1(1.5)) == {"d1": 5, "__call__": 9}
        assert self.tally(seen, lambda: q.d2(1.5)) == {"d2": 5, "d1": 9, "__call__": 20}

    def test_profile_field(self, counts):
        from warpverify.geometry2d import Point2, profile_field

        fu, fv = profile_field(self.ratio()), profile_field(self.ratio(), axis="v")
        seen = counts()
        for f, p in ((fu, Point2(1.5, 0.0)), (fv, Point2(0.0, 1.5))):
            assert self.tally(seen, lambda: f.val(p)) == {"__call__": 5}
            assert self.tally(seen, lambda: f.grad(p)) == {"d1": 5, "__call__": 9}
            assert self.tally(seen, lambda: f.second(p)) == {
                "d2": 5, "d1": 9, "__call__": 20}

    @pytest.mark.parametrize("axis, at", [("u", (1.5, 0.0)), ("v", (0.0, 1.5))])
    def test_scaled_profile_field(self, counts, axis, at):
        # scaling multiplies the results of the unscaled field's methods
        from warpverify.geometry2d import Point2, profile_field

        f, p = profile_field(self.ratio(), axis=axis) * 2.5, Point2(*at)
        seen = counts()
        assert self.tally(seen, lambda: f.val(p)) == {"__call__": 5}
        assert self.tally(seen, lambda: f.grad(p)) == {"d1": 5, "__call__": 9}
        assert self.tally(seen, lambda: f.second(p)) == {
            "d2": 5, "d1": 9, "__call__": 20}

    def test_coordinate_u(self, counts):
        from warpverify.geometry2d import Point2, coordinate_u

        f, p = coordinate_u(), Point2(1.5, 0.0)
        seen = counts()
        for evaluate in (f.val, f.grad, f.second, f.without_exact().second):
            assert self.tally(seen, lambda: evaluate(p)) == {}

    def test_radial_field(self, counts):
        from warpverify.geometry2d import Point2, radial_field

        f = radial_field(self.ratio())
        p = Point2(0.6, 0.8)
        seen = counts()
        assert self.tally(seen, lambda: f.val(p)) == {"__call__": 5}
        assert self.tally(seen, lambda: f.grad(p)) == {"d1": 10, "__call__": 18}
        assert self.tally(seen, lambda: f.second(p)) == {
            "d2": 15, "d1": 37, "__call__": 78}


class TestArgumentContract:
    """`__call__`, `d1` and `d2` take t as given: the domain test alone
    rejects NaN, infinities and points outside the domain, and an int t
    gives the double of float(t)."""

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("method", ["__call__", "d1", "d2"])
    def test_rejects_outside_the_open_domain(self, method, t):
        for profile in (linear_profile(0.7, domain=POSITIVE_AXIS),
                        TestEvaluationDispatch.ratio()):
            with pytest.raises(DomainError):
                getattr(profile, method)(t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method", ["__call__", "d1", "d2"])
    def test_full_line_rejects_nonfinite(self, method, t):
        with pytest.raises(DomainError):
            getattr(linear_profile(0.7, 1.0), method)(t)

    @pytest.mark.parametrize("profile", [
        linear_profile(0.7, -0.3), const_profile(2.5), poly_profile([1.0, -2.0, 0.5, 3.0]),
        power_profile(1.5, 2.0), power_profile(-2.0, 0.25)], ids=[
        "linear", "const", "poly", "power", "inverse-square"])
    @pytest.mark.parametrize("t", [1, 3, 2 ** 60 + 1])
    def test_int_argument_gives_the_float_argument_double(self, profile, t):
        for method in ("__call__", "d1", "d2"):
            got, want = getattr(profile, method)(t), getattr(profile, method)(float(t))
            assert got.hex() == want.hex()
