"""Polynomial layer: canonical form, weights, arithmetic."""

import copy
import pickle
from math import gcd

import pytest
from hypothesis import given, strategies as st

from kleinian.poly import (
    MultiPoly, ScaledPoly, Symbol, monomial_div, monomial_key, monomial_mul, param,
    scaled_products, scaled_sum, wp_symbol,
)
from kleinian.rationals import Q
from schur_oracle import time_symbol

GAPS = (1, 3)
A4 = param("a4", 2)
A3 = param("a3", 4)
P11 = wp_symbol((1, 1), GAPS)
P12 = wp_symbol((1, 2), GAPS)


def test_additive_inverse_is_zero():
    x = MultiPoly.sym(P11)
    assert (x + (-x)).is_zero()
    assert x + -x == MultiPoly.zero()


def test_weight_additivity_under_mul():
    a = MultiPoly.sym(A4) * MultiPoly.sym(P11)   # weight 4
    b = MultiPoly.sym(P11)                        # weight 2
    prod = a * b
    assert prod.is_homogeneous(6)
    assert not prod.is_homogeneous(4)


def test_canonical_fixpoint_and_order_stability():
    p = MultiPoly.sym(P11, 2, 6) + MultiPoly.sym(P12, 1, 4)
    q = MultiPoly.sym(P12, 1, 4) + MultiPoly.sym(P11, 2, 6)
    assert p == q
    assert p.sorted_terms() == q.sorted_terms()
    # multiplying by one leaves the term map untouched
    assert (p * MultiPoly.one()).terms == p.terms


def test_monomial_division():
    m1 = ((P11, 2), (P12, 1))
    m2 = ((P11, 1),)
    assert monomial_div(m1, m2) == ((P11, 1), (P12, 1))
    with pytest.raises(ValueError):
        monomial_div(m2, m1)
    assert monomial_mul(m2, ((P12, 1),)) == ((P11, 1), (P12, 1))


def test_term_order_is_weight_then_lex():
    lo = ((P11, 1),)          # weight 2
    hi = ((P11, 2),)          # weight 4
    assert monomial_key(lo) < monomial_key(hi)
    # same weight 4: p12 vs p11^2 ordered by name tuples
    assert monomial_key(((P12, 1),)) != monomial_key(hi)


def test_substitute_specializes_parameters():
    p = MultiPoly.sym(A4) * MultiPoly.sym(P11) + MultiPoly.sym(A3)
    out = p.substitute({A4: MultiPoly.const(Q(3, 2)), A3: MultiPoly.const(2)})
    assert out == MultiPoly.sym(P11, coeff=Q(3, 2)) + MultiPoly.const(2)


def test_derive_leibniz():
    # d/dp11 acting formally: p11^2 -> 2 p11
    dmap = lambda s: MultiPoly.one() if s == P11 else None
    p = MultiPoly.sym(P11, 2) * MultiPoly.sym(P12)
    assert p.derive(dmap) == MultiPoly.sym(P11, coeff=2) * MultiPoly.sym(P12)


@st.composite
def homogeneous_poly(draw, weight):
    """Random homogeneous polynomial of the given weight in a4 (2), p11 (2)."""
    terms = {}
    for e in range(weight // 2 + 1):
        c = draw(st.integers(-5, 5))
        if c:
            mono_syms = []
            if e:
                mono_syms.append((A4, e))
            if weight // 2 - e:
                mono_syms.append((P11, weight // 2 - e))
            terms[tuple(sorted(mono_syms))] = Q(c)
    return MultiPoly(terms)


@given(homogeneous_poly(4), homogeneous_poly(6))
def test_homogeneous_product_weights(a, b):
    prod = a * b
    if not prod.is_zero():
        assert prod.is_homogeneous(10)


def test_pow_matches_repeated_mul():
    p = MultiPoly.sym(P11) + MultiPoly.const(1)
    assert p ** 3 == p * p * p
    assert p ** 0 == MultiPoly.one()


def test_text_rendering():
    p = MultiPoly.sym(P11, 2, 6) + MultiPoly.sym(A3, 1, Q(1, 2))
    assert p.text() == "6*p11^2 + 1/2*a3"


def test_symbols_are_interned():
    assert wp_symbol((2, 1), GAPS) is wp_symbol((1, 2), GAPS) is P12
    assert param("a4", 2) is param("a4", 2) is A4
    assert Symbol("p11", 2, "wp", (1, 1)) is P11
    assert copy.deepcopy(P12) is P12 and pickle.loads(pickle.dumps(P12)) is P12
    # same name, another weight or kind: a distinct, unequal symbol
    for other in (param("a4", 3), Symbol("a4", 2, "aux")):
        assert other is not A4 and other != A4 and other.name == "a4"
    assert len({A4, param("a4", 2), param("a4", 3)}) == 2


def test_symbol_attributes_are_read_only():
    with pytest.raises(AttributeError):
        P11.weight = 5
    with pytest.raises(AttributeError):
        del P11.name
    with pytest.raises(AttributeError):
        P11.extra = 1
    assert (P11.name, P11.weight, P11.kind, P11.indices) == ("p11", 2, "wp", (1, 1))


@pytest.mark.parametrize("index", [0, -1, 3])
def test_symbol_index_outside_genus_rejected(index):
    with pytest.raises(ValueError):
        wp_symbol((1, index), GAPS)


FACTOR_SYMBOLS = [A4, A3, P11, P12, wp_symbol((2, 2), GAPS), Symbol("z1", 1, "aux"),
                  time_symbol(3), param("b", 1)]


@st.composite
def monomials(draw):
    syms = draw(st.lists(st.sampled_from(FACTOR_SYMBOLS), unique=True, max_size=5))
    return tuple(sorted(((s, draw(st.integers(1, 4))) for s in syms),
                        key=lambda f: f[0].name))


@given(monomials(), monomials())
def test_monomial_mul_matches_reference(a, b):
    merged = dict(a)
    for s, e in b:
        merged[s] = merged.get(s, 0) + e
    expected = tuple(sorted(merged.items(), key=lambda f: f[0].name))
    assert monomial_mul(a, b) == expected == monomial_mul(b, a)
    assert monomial_div(expected, b) == a


# -- scaled polynomials against rational arithmetic ----------------------------

@st.composite
def rational_polys(draw):
    terms = draw(st.dictionaries(monomials(), st.tuples(st.integers(-60, 60), st.integers(1, 36)),
                                 max_size=6))
    return MultiPoly({m: Q(n, d) for m, (n, d) in terms.items() if n})


@given(rational_polys(), rational_polys(), st.integers(-5, 5), st.integers(-9, 9),
       st.integers(1, 12))
def test_scaled_poly_matches_rational_arithmetic(p, q, k, n, d):
    sp, sq = ScaledPoly.of(p), ScaledPoly.of(q)
    assert sp.poly() == p
    assert gcd(sp.den, *sp.nums.values()) == 1
    assert sp.terms == p.terms
    product = scaled_products([(1, sp, sq)])
    assert product.poly() == p * q
    assert scaled_products([(k, sp, sq), (-1, sq, sp)]).poly() == p * q * (k - 1)
    c = Q(n, d)
    assert scaled_sum([(c, sp), (k, sq), (1, product)]).poly() == p * c + q * k + p * q
    # a form that is not primitive stands for the same polynomial
    wide = ScaledPoly(sp.den * 6, {m: v * 6 for m, v in sp.nums.items()})
    assert wide.poly() == p
    assert (wide.primitive().den, wide.primitive().nums) == (sp.den, sp.nums)
