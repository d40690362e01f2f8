"""Laurent/bi-series layer: arithmetic, inversion, powers, division."""

import pytest
from hypothesis import given, strategies as st

from kleinian.errors import SeriesError
from kleinian.poly import MultiPoly, param
from kleinian.rationals import Q
from kleinian.series import LaurentSeries

from curve_oracle import BiSeries, divide_homogeneous, miller_power

A = param("a4", 2)


def geometric(order):
    """1/(1 - xi) as a known series."""
    return LaurentSeries({k: MultiPoly.one() for k in range(order)}, order)


def test_add_mul_truncation():
    s = LaurentSeries({0: 1, 1: 2}, order=5)
    t = LaurentSeries({-1: 1}, order=3)
    prod = s * t
    assert prod.coeff(-1) == MultiPoly.one()
    assert prod.coeff(0) == MultiPoly.const(2)
    # order: min(5 + (-1), 3 + 0) = 3
    assert prod.order == 3


def test_inverse_roundtrip():
    s = LaurentSeries({-2: 3, 0: 1, 1: Q(1, 2)}, order=8)
    inv = s.inverse()
    one = s * inv
    assert one.coeff(0) == MultiPoly.one()
    for k in range(1, one.order):
        assert one.coeff(k).is_zero()


def test_unit_power_binomial_series():
    # (1 + xi)^(1/2) = 1 + xi/2 - xi^2/8 + xi^3/16 - 5 xi^4/128 + ...
    root = LaurentSeries({0: 1, 1: 1}, order=6).unit_power(Q(1, 2))
    assert [root.coeff(k) for k in range(5)] == [
        MultiPoly.const(c) for c in (1, Q(1, 2), Q(-1, 8), Q(1, 16), Q(-5, 128))]
    f = LaurentSeries({0: 1, 2: MultiPoly.sym(A), 3: 5}, order=9)
    assert f.unit_power(Q(-2, 3)) ** 3 * f ** 2 == LaurentSeries.const(1, 9)
    with pytest.raises(SeriesError):
        LaurentSeries({0: 2, 1: 1}, order=4).unit_power(Q(1, 2))


B = param("a3", 4)
UNIT_COEFFS = st.sampled_from([MultiPoly.const(Q(-3, 2)), MultiPoly.const(Q(5, 4)),
                               MultiPoly.const(7), MultiPoly.sym(A),
                               MultiPoly.sym(A, 2, Q(-1, 3)) + MultiPoly.const(Q(1, 6)),
                               MultiPoly.sym(A) * MultiPoly.sym(B, 1, Q(2, 9))])
ALPHAS = [Q(1, 2), Q(-1, 2), Q(1, 3), Q(-1, 3), Q(-2, 3), Q(-1), Q(2)]


@given(st.dictionaries(st.integers(1, 7), UNIT_COEFFS, max_size=4), st.integers(1, 14),
       st.sampled_from(ALPHAS))
def test_unit_power_matches_rational_miller(coeffs, order, alpha):
    # the integer-numerator recurrence equals the rational one term for term
    f = LaurentSeries({0: 1, **coeffs}, order)
    assert f.unit_power(alpha) == miller_power(f, alpha)


COEFFS = st.sampled_from([MultiPoly.const(Q(-3, 2)), MultiPoly.const(1), MultiPoly.const(2),
                          MultiPoly.sym(A), MultiPoly.sym(A, 2, -1) + MultiPoly.const(Q(1, 3))])


@given(st.dictionaries(st.integers(-4, 8), COEFFS, max_size=8), st.integers(-3, 9))
def test_square_matches_product(coeffs, order):
    s = LaurentSeries(coeffs, order)
    square = s * s
    assert s ** 2 == square  # LaurentSeries equality includes the order
    assert s ** 3 == square * s


def test_inverse_needs_rational_lead():
    s = LaurentSeries({0: MultiPoly.sym(A)}, order=4)
    with pytest.raises(SeriesError):
        s.inverse()


def test_biseries_outer_and_symmetry():
    u = LaurentSeries({0: 1, 1: 2}, 4)
    b = BiSeries.outer(u, u)
    assert b.is_symmetric()
    assert b.coeff(1, 1) == MultiPoly.const(4)


def test_divide_homogeneous_exact():
    # (xi + eta)^2 * (xi - eta) / (xi + eta)^2 = xi - eta
    numer = [MultiPoly.one(), MultiPoly.one(), -MultiPoly.one(), -MultiPoly.one()]
    quot = divide_homogeneous(numer, [1, 2, 1])
    assert quot[0] == MultiPoly.one()
    assert quot[1] == -MultiPoly.one()


def test_divide_homogeneous_rejects_remainder():
    numer = [MultiPoly.one(), MultiPoly.zero(), MultiPoly.zero()]
    with pytest.raises(SeriesError):
        divide_homogeneous(numer, [1, 1])
