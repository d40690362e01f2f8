"""Polynomial layer: canonical form, weights, arithmetic."""

import copy
import pickle
import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from kleinian.curves import HYPERELLIPTIC_G2, curve_by_family
from kleinian.document import poly_from_json, poly_json
from kleinian.poly import (
    EMPTY_MONOMIAL, MultiPoly, ScaledPoly, Symbol, divides, factors, monomial, monomial_div,
    monomial_key, monomial_mul, monomial_str, monomial_weight, param, scaled_products,
    scaled_sum, wp_symbol,
)
from kleinian.rationals import Q
from kleinian.taucalc import AbelianContext
from monomial_oracle import (
    tuple_div, tuple_divides, tuple_key, tuple_mul, tuple_str, tuple_weight,
)
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
    m1 = monomial(((P11, 2), (P12, 1)))
    m2 = monomial(((P11, 1),))
    assert monomial_div(m1, m2) == monomial(((P11, 1), (P12, 1)))
    with pytest.raises(ValueError):
        monomial_div(m2, m1)
    assert monomial_mul(m2, P12.unit) == monomial(((P12, 1), (P11, 1)))


def test_term_order_is_weight_then_lex():
    lo = P11.unit                     # weight 2
    hi = monomial(((P11, 2),))        # weight 4
    assert monomial_key(lo) < monomial_key(hi)
    # same weight 4: p12 vs p11^2 ordered by name tuples
    assert monomial_key(P12.unit) != monomial_key(hi)


def test_coeff_rejects_a_key_that_is_not_a_monomial():
    p = MultiPoly.sym(P11, coeff=3) + MultiPoly.const(-2)
    assert p.coeff(P11.unit) == 3 and p.coeff(EMPTY_MONOMIAL) == -2
    assert p.coeff(P12.unit) == 0
    with pytest.raises(TypeError):
        p.coeff(())  # the empty monomial in its old tuple spelling
    with pytest.raises(ValueError):
        p.coeff(-P11.unit)


def test_ring_operators_refuse_unknown_operands():
    # an operand type MultiPoly does not know is left to the other operand
    # (a LaurentSeries scalar product on the left is tested in test_series);
    # with no method there either, Python raises TypeError
    p = MultiPoly.sym(P11) + MultiPoly.const(1)
    for op in (lambda: p + "x", lambda: "x" + p, lambda: p - "x", lambda: "x" - p,
               lambda: p * None, lambda: None * p):
        with pytest.raises(TypeError):
            op()
    assert p.__add__("x") is NotImplemented and p.__mul__("x") is NotImplemented


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
            terms[monomial(mono_syms)] = Q(c)
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


# symbols interned here in a shuffled order, so that slot order is not name order;
# weights of both signs, as the KP times carry negative weights
SHUFFLED = [Symbol("q%02d" % i, w, "aux") for i, w in
            random.Random(18).sample(list(enumerate((1, 3, -2, 5, 2, -1, 4, 1, 7, -3, 2, 6))), 12)]


def test_shuffled_symbols_have_slots_out_of_name_order():
    by_name = sorted(SHUFFLED, key=lambda s: s.name)
    assert [s.slot for s in by_name] != sorted(s.slot for s in by_name)


@st.composite
def monomials(draw, symbols=FACTOR_SYMBOLS, exponents=st.integers(1, 4)):
    """A tuple monomial: (symbol, exponent) pairs sorted by name."""
    syms = draw(st.lists(st.sampled_from(symbols), unique=True, max_size=5))
    return tuple(sorted(((s, draw(exponents)) for s in syms), key=lambda f: f[0].name))


ORACLE_MONOMIALS = monomials(FACTOR_SYMBOLS + SHUFFLED,
                             st.integers(1, 4) | st.integers(1, 127))


@given(ORACLE_MONOMIALS, ORACLE_MONOMIALS)
def test_packed_monomials_match_tuple_oracle(a, b):
    pa, pb = monomial(a), monomial(b)
    assert factors(pa) == a
    assert monomial_weight(pa) == tuple_weight(a)
    assert monomial_key(pa) == tuple_key(a)
    assert (monomial_key(pa) < monomial_key(pb)) == (tuple_key(a) < tuple_key(b))
    assert monomial_str(pa) == tuple_str(a)
    ab = tuple_mul(a, b)
    if max((e for _, e in ab), default=0) < 128:
        assert monomial_mul(pa, pb) == monomial_mul(pb, pa) == monomial(ab)
        assert factors(monomial_mul(pa, pb)) == ab
        assert (MultiPoly.monomial(pa) * MultiPoly.monomial(pb)).terms == {monomial(ab): 1}
        assert divides(pa, monomial(ab)) and monomial_div(monomial(ab), pa) == pb
    else:
        with pytest.raises(ValueError):
            monomial_mul(pa, pb)
        with pytest.raises(ValueError):
            MultiPoly.monomial(pa) * MultiPoly.monomial(pb)
    assert divides(pa, pb) == tuple_divides(a, b)
    if tuple_divides(a, b):
        assert factors(monomial_div(pb, pa)) == tuple_div(b, a)
    else:
        with pytest.raises(ValueError):
            monomial_div(pb, pa)


G2 = curve_by_family(HYPERELLIPTIC_G2)
G2_CTX = AbelianContext(G2.gap_weights)
# p-symbols of up to six indices, those not interned yet in a shuffled order
G2_SYMBOLS = list(G2.parameters) + [
    G2_CTX.wp(idx) for idx in random.Random(6).sample(
        [(1,) * i + (2,) * j for i in range(7) for j in range(7) if 2 <= i + j <= 6], 25)]


@given(st.dictionaries(monomials(G2_SYMBOLS), st.tuples(st.integers(-50, 50),
                                                        st.integers(1, 20)), max_size=8))
def test_document_terms_match_tuple_oracle(terms):
    # the JSON terms of a polynomial are its oracle terms in descending oracle
    # order, and parsing them gives the polynomial back
    p = MultiPoly({monomial(m): Q(n, d) for m, (n, d) in terms.items() if n})
    want = sorted(((m, Q(n, d)) for m, (n, d) in terms.items() if n),
                  key=lambda t: tuple_key(t[0]), reverse=True)
    assert poly_json(p) == [
        {"coeff": {"num": str(c.numerator), "den": str(c.denominator)},
         "monomial": [[s.name, e] for s, e in m]} for m, c in want]
    assert poly_from_json(poly_json(p), G2, G2_CTX) == p


def test_exponent_overflow_raises_and_never_carries():
    # two symbols in neighbouring fields: s^128 must never read as s^0 * t
    s, t = param("ovf_s", 1), param("ovf_t", 1)
    assert t.slot == s.slot + 1
    top = monomial(((s, 127),))
    assert factors(top) == ((s, 127),)
    assert monomial_mul(monomial(((s, 100),)), monomial(((s, 27),))) == top
    with pytest.raises(ValueError):
        monomial(((s, 128),))
    with pytest.raises(ValueError):
        monomial_mul(top, s.unit)
    for a, b in ((127, 1), (64, 64), (100, 28)):
        with pytest.raises(ValueError):
            MultiPoly.sym(s, a) * (MultiPoly.sym(s, b) + MultiPoly.sym(t))
        with pytest.raises(ValueError):
            scaled_products([(1, ScaledPoly.of(MultiPoly.sym(s, a)),
                              ScaledPoly.of(MultiPoly.sym(s, b)))])
    with pytest.raises(ValueError):
        MultiPoly.sym(s, 64) ** 2
    with pytest.raises(ValueError):
        MultiPoly.sym(s, 127).derive(lambda _: MultiPoly.sym(s, 2))
    # exponents of 64 and more still multiply exactly below the guard
    assert (MultiPoly.sym(s, 64) * MultiPoly.sym(s, 63)).terms == {top: 1}
    # the weight field overflows the same way
    heavy = param("ovf_heavy", 8000)
    assert monomial_weight(monomial(((heavy, 2),))) == 16000
    with pytest.raises(ValueError):
        monomial(((heavy, 3),))
    with pytest.raises(ValueError):
        monomial_mul(monomial(((heavy, 2),)), heavy.unit)
    with pytest.raises(ValueError):
        Symbol("ovf_too_heavy", 1 << 14)


# -- scaled polynomials against rational arithmetic ----------------------------

@st.composite
def rational_polys(draw):
    terms = draw(st.dictionaries(monomials(), st.tuples(st.integers(-60, 60), st.integers(1, 36)),
                                 max_size=6))
    return MultiPoly({monomial(m): Q(n, d) for m, (n, d) in terms.items() if n})


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
