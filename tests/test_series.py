"""Laurent/bi-series layer: arithmetic, inversion, powers, division."""

import pytest
from hypothesis import given, settings, strategies as st

from kleinian import taucalc
from kleinian.curves import CYCLIC_TRIGONAL_34, HYPERELLIPTIC_G2, curve_by_family
from kleinian.errors import SeriesError, TruncationError
from kleinian.poly import MultiPoly, ScaledPoly, param
from kleinian.rationals import Q
from kleinian.series import LaurentSeries
from kleinian.taucalc import TauModel

from curve_oracle import (BiSeries, RationalExpansion, RationalSeries, divide_homogeneous,
                          hand_written_differentials, miller_power, omega_alg_two_step)

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
    assert RationalSeries.of(f.unit_power(alpha)) == miller_power(RationalSeries.of(f), alpha)


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
    u = RationalSeries({0: 1, 1: 2}, 4)
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


# -- the integer series against the rational oracle ---------------------------

SCALARS = st.sampled_from([2, -3, Q(5, 6), Q(-7, 4), MultiPoly.sym(A, 1, Q(3, 2)),
                           MultiPoly.sym(B) * Q(-1, 5) + MultiPoly.const(Q(2, 3))])
TERMS = st.dictionaries(st.integers(-4, 8), UNIT_COEFFS | COEFFS, max_size=6)
ORDERS = st.integers(-3, 12) | st.just(10 ** 9)


def pair(terms, order):
    """The same series as integer numerators and as rationals."""
    return LaurentSeries(terms, order), RationalSeries(terms, order)


@settings(max_examples=300, deadline=None)
@given(TERMS, ORDERS, TERMS, ORDERS, SCALARS, st.integers(-5, 5), st.data())
def test_integer_series_match_rational_oracle(ta, oa, tb, ob, c, k, data):
    # every operation, on series with negative valuations and finite or
    # unbounded orders, equals the rational oracle term for term; each
    # coefficient is stored primitive, with a positive denominator
    (a, ra), (b, rb) = pair(ta, oa), pair(tb, ob)
    results = [(a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb),
               (a * c, ra * c), (c * a, c * ra), (a.shift(k), ra.shift(k)),
               (a * a, ra * ra), (a ** 2, ra ** 2), (a ** 3, ra ** 3)]
    cut = data.draw(st.integers(-6, oa)) if oa < 10 ** 9 else 4
    results.append((a.truncate(cut), ra.truncate(cut)))
    if oa < 10 ** 9 and not a.is_zero() and ra.coeffs[a.valuation()].is_rational():
        results.append((a.inverse(), ra.inverse()))
    if oa < 10 ** 9 and oa > 0:
        unit = LaurentSeries({**{j: t for j, t in ta.items() if j > 0}, 0: 1}, oa)
        alpha = data.draw(st.sampled_from(ALPHAS))
        results.append((unit.unit_power(alpha), miller_power(RationalSeries.of(unit), alpha)))
    for got, want in results:
        assert RationalSeries.of(got) == want
        for p in got.coeffs.values():
            canonical = ScaledPoly.of(p.poly())  # primitive, positive denominator
            assert (p.den, p.nums) == (canonical.den, canonical.nums)
    assert (a == b) == (ra == rb)
    assert all(a.coeff(e) == ra.coeff(e) for e in range(-5, min(oa, 9)))
    if oa < 10 ** 9:
        with pytest.raises(TruncationError):
            a.coeff(oa)


@pytest.mark.parametrize("family, weight", [(HYPERELLIPTIC_G2, 12), (CYCLIC_TRIGONAL_34, 11)],
                         ids=["g2-w12", "trigonal-w11"])
def test_tau_model_tables_match_rational_oracle(monkeypatch, family, weight):
    # the winding vectors and the omega table that TauModel.build reads off
    # the integer series equal those of the rational expansion at the same
    # orders: hand-written differentials and the two-step omega division
    curve = curve_by_family(family)
    built = []
    expand = taucalc.local_expansion
    monkeypatch.setattr(taucalc, "local_expansion", lambda *args: built.append(expand(*args))
                        or built[-1])
    model = TauModel.build(curve, weight)
    size = model.max_time_index
    oracle = RationalExpansion(built[0])
    dus = hand_written_differentials(curve, oracle)
    assert model.winding.vectors == tuple(tuple(du.coeff(k - 1) for du in dus)
                                          for k in range(1, size + 1))
    assert model.omega.entries == omega_alg_two_step(curve, size, oracle).entries
