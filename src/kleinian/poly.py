"""Sparse multivariate polynomials over the rationals in weight-graded symbols.

A :class:`Symbol` is a named generator carrying a fixed Sato weight; symbols
are interned, so they hash and compare by identity.  A monomial is one
Python int (packed exponent vectors, Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007); a
:class:`MultiPoly` maps monomials to nonzero rational coefficients.  The
zero polynomial is the empty map.  All values are immutable in practice:
no method mutates its operands, so polynomials can be shared freely.

This module alone knows the packed format.  Each symbol gets a fixed slot
when it is first created, and a monomial is

    sum_s e_s * 2^(16 + 8 slot_s) + w,    w = sum_s e_s wt(s),

so the low 16 bits carry the total weight (signed, |w| < 2^14) and each
slot an 8-bit exponent field whose top bit is a guard, clear in every
monomial (0 <= e_s < 128).  The product of two monomials is their sum and
a quotient their difference: neither can carry out of a field, and an
exponent or weight that would leave its field sets a guard bit, which
raises ``ValueError``.  Slots depend on the order in which symbols were
created, so a monomial means nothing outside its process, and nothing
orders by the int: other modules go through :func:`monomial` (encode),
:func:`factors` (decode), :func:`divides`, :func:`monomial_key` and
:func:`monomial_str`.

A :class:`ScaledPoly` carries the same polynomial as integer numerators
over one common denominator, so that sums and products of many terms run
in integer arithmetic; it is converted to and from :class:`MultiPoly`
through ``Q``.

The canonical term order used everywhere (export, pivot selection) is
(total Sato weight, monomial) with monomials compared lexicographically
by (symbol name, exponent).
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_
from threading import Lock
from typing import Callable, Iterable

from .rationals import Q, QType, q_str, qify

# ---------------------------------------------------------------------------
# symbols


class Symbol:
    """A named generator with a fixed Sato weight, interned.

    kind distinguishes curve parameters ("param"), Kleinian symbols
    ("wp") and auxiliary point coordinates ("aux").  indices carries the
    multi-index of wp symbols.

    The constructor returns the one instance for each (name, weight, kind,
    indices), so equality and hashing are object identity; attributes are
    read-only.  The first construction also fixes the symbol's exponent
    field (slot) in every monomial; unit is the monomial of the symbol
    itself, and order = (name, weight, kind, indices) its place in a
    monomial's factors.
    """

    __slots__ = ("name", "weight", "kind", "indices", "slot", "unit", "order")

    def __new__(cls, name: str, weight: int, kind: str = "param",
                indices: tuple[int, ...] = ()) -> "Symbol":
        key = (name, weight, kind, indices)
        self = _INTERNED.get(key)
        if self is None:
            with _INTERN_LOCK:
                self = _INTERNED.get(key)
                if self is None:
                    self = _INTERNED[key] = _new_symbol(cls, key)
        return self

    def __setattr__(self, attr, value):
        raise AttributeError("Symbol attributes are read-only")

    def __delattr__(self, attr):
        raise AttributeError("Symbol attributes are read-only")

    def __reduce__(self):
        # copies and unpickled symbols are the interned instance
        return Symbol, (self.name, self.weight, self.kind, self.indices)

    def __lt__(self, other: "Symbol"):
        return self.name < other.name

    def __repr__(self):
        return self.name


_INTERNED: dict[tuple, Symbol] = {}
_INTERN_LOCK = Lock()


def param(name: str, weight: int) -> Symbol:
    return Symbol(name, weight, "param")


def wp_symbol(indices: Iterable[int], gap_weights: tuple[int, ...]) -> Symbol:
    """The Kleinian symbol p_J for the sorted multi-index J (|J| >= 2)."""
    idx = tuple(sorted(indices))
    if len(idx) < 2:
        raise ValueError("wp symbols need at least two indices")
    if idx[0] < 1 or idx[-1] > len(gap_weights):
        raise ValueError("indices %r outside 1..%d" % (idx, len(gap_weights)))
    weight = sum(gap_weights[i - 1] for i in idx)
    return Symbol("p" + "".join(map(str, idx)), weight, "wp", idx)


# ---------------------------------------------------------------------------
# monomials: one int each (see the module docstring)

Monomial = int

EMPTY_MONOMIAL: Monomial = 0

_FIELD = 8                      # bits per exponent field, guard included
_EXP_LIMIT = 1 << (_FIELD - 1)  # exponents stay below the guard bit
_FIELD_MASK = (1 << _FIELD) - 1
_WEIGHT_BITS = 16
_WEIGHT_MASK = (1 << _WEIGHT_BITS) - 1
# m + _OFFSET holds the weight w as w + 2^14 in [0, 2^15): no borrow, guard clear
_OFFSET = 1 << (_WEIGHT_BITS - 2)
# the guard bits, of the weight field and of every slot's field: (m + _OFFSET) & _GUARD
# is zero exactly for a valid monomial m, or for the sum or difference of two valid
# monomials that is one
_GUARD = 1 << (_WEIGHT_BITS - 1)
# the top two bits of every exponent field and the top three of the weight field:
# m & _SMALL is zero when every exponent of m is below 64 and 0 <= w < 2^13, and then
# the product of m and any such monomial is valid; the bitwise or of monomials is
# clear of _SMALL exactly when each of them is
_SMALL = 7 << (_WEIGHT_BITS - 3)
_SYMBOLS: list[Symbol] = []     # by slot


def _new_symbol(cls, key: tuple) -> Symbol:
    """A symbol with the next free slot (called under the intern lock)."""
    global _GUARD, _SMALL
    weight = key[1]
    if not -_OFFSET <= weight < _OFFSET:
        raise ValueError("symbol weight %r outside [-%d, %d)" % (weight, _OFFSET, _OFFSET))
    self = object.__new__(cls)
    slot = len(_SYMBOLS)
    shift = _WEIGHT_BITS + _FIELD * slot
    for attr, value in zip(cls.__slots__, key + (slot, (1 << shift) + weight, key)):
        object.__setattr__(self, attr, value)
    _SYMBOLS.append(self)
    _GUARD |= 1 << (shift + _FIELD - 1)
    _SMALL |= 3 << (shift + _FIELD - 2)
    return self


def monomial(pairs: Iterable[tuple[Symbol, int]]) -> Monomial:
    """The monomial prod s^e over (symbol, exponent) pairs of distinct symbols,
    0 < e < 128, whose total weight fits the weight field."""
    h = w = 0
    for s, e in pairs:
        if type(e) is not int or not 0 < e < _EXP_LIMIT:
            raise ValueError("exponent %r of %s outside 1..%d" % (e, s.name, _EXP_LIMIT - 1))
        shift = _FIELD * s.slot
        if (h >> shift) & _FIELD_MASK:
            raise ValueError("monomial names %s twice" % s.name)
        h += e << shift
        w += e * s.weight
    if not -_OFFSET <= w < _OFFSET:
        raise ValueError("monomial weight %d leaves the weight field" % w)
    return (h << _WEIGHT_BITS) + w


def factors(m: Monomial) -> tuple[tuple[Symbol, int], ...]:
    """The (symbol, exponent) pairs of m, sorted by symbol name."""
    h = (m + _OFFSET) >> _WEIGHT_BITS
    out = []
    while h:
        slot = ((h & -h).bit_length() - 1) // _FIELD
        shift = _FIELD * slot
        e = (h >> shift) & _FIELD_MASK
        out.append((_SYMBOLS[slot], e))
        h ^= e << shift
    if len(out) > 1:
        out.sort(key=_factor_order)
    return tuple(out)


def _factor_order(factor: tuple[Symbol, int]) -> tuple:
    return factor[0].order


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    m = a + b
    if (m + _OFFSET) & _GUARD:
        raise ValueError("monomial product %s * %s leaves an exponent or the weight field"
                         % (monomial_str(a), monomial_str(b)))
    return m


def divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b (with a quotient whose weight fits the weight field)."""
    return not (b - a + _OFFSET) & _GUARD


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a; a must divide b."""
    if (b - a + _OFFSET) & _GUARD:
        raise ValueError("monomial %s does not divide %s" % (monomial_str(a), monomial_str(b)))
    return b - a


def monomial_weight(m: Monomial) -> int:
    return ((m + _OFFSET) & _WEIGHT_MASK) - _OFFSET


def add_terms(out: dict[Monomial, QType],
              terms: Iterable[tuple[Monomial, QType]]) -> dict[Monomial, QType]:
    """Add (monomial, coefficient) pairs into out in place; sums that cancel are dropped."""
    get = out.get
    for m, c in terms:
        v = get(m)
        if v is None:
            out[m] = c
        else:
            v = v + c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def add_product(out: dict[Monomial, object], a: dict[Monomial, object],
                b: dict[Monomial, object]) -> dict[Monomial, object]:
    """Add the product of the term maps a and b into out in place; sums that
    cancel are dropped.  The coefficients may be integers or rationals."""
    if len(a) > len(b):
        a, b = b, a
    if (reduce(or_, a, 0) | reduce(or_, b, 0)) & _SMALL:
        # an exponent of 64 or more, or a large or negative weight: check every product
        return add_terms(out, ((monomial_mul(m1, m2), c1 * c2)
                               for m1, c1 in a.items() for m2, c2 in b.items()))
    get = out.get
    bitems = b.items()
    for m1, c1 in a.items():
        for m2, c2 in bitems:
            m = m1 + m2
            v = get(m)
            if v is None:
                out[m] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def monomial_key(m: Monomial):
    """Canonical term-order key: (total weight, lexicographic monomial)."""
    return (monomial_weight(m), tuple((s.name, e) for s, e in factors(m)))


def monomial_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(s.name if e == 1 else "%s^%d" % (s.name, e) for s, e in factors(m))


# ---------------------------------------------------------------------------
# polynomials


class MultiPoly:
    """Exact sparse polynomial: map from monomial to nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, QType] | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({})

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = qify(c)
        return cls({EMPTY_MONOMIAL: c} if c else {})

    @classmethod
    def sym(cls, s: Symbol, exp: int = 1, coeff=1) -> "MultiPoly":
        coeff = qify(coeff)
        if not coeff:
            return cls.zero()
        return cls({s.unit if exp == 1 else monomial(((s, exp),)): coeff})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "MultiPoly":
        coeff = qify(coeff)
        return cls({m: coeff} if coeff else {})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = other if isinstance(other, MultiPoly) else _coerce(other)
        if other is NotImplemented:
            return other
        if not other.terms:
            return self
        if not self.terms:
            return other
        return MultiPoly(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = other if isinstance(other, MultiPoly) else _coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, QType)):
            c = qify(other)
            if not c:
                return MultiPoly.zero()
            return MultiPoly({m: v * c for m, v in self.terms.items()})
        other = other if isinstance(other, MultiPoly) else _coerce(other)
        if other is NotImplemented:
            return other
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        return MultiPoly(add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, QType)):
            other = MultiPoly.const(other)
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        """True when the polynomial is a rational constant (possibly 0)."""
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONOMIAL in self.terms)

    def rational_value(self) -> QType:
        if not self.terms:
            return Q(0)
        if not self.is_rational():
            raise ValueError("not a rational constant: %s" % self)
        return self.terms[EMPTY_MONOMIAL]

    def coeff(self, m: Monomial) -> QType:
        """The coefficient of the monomial m, 0 when absent; a key that is not a
        monomial (such as a tuple) raises rather than reading as 0."""
        if type(m) is not int:
            raise TypeError("not a monomial: %r" % (m,))
        if (m + _OFFSET) & _GUARD:
            raise ValueError("not a monomial: %d" % m)
        return self.terms.get(m, Q(0))

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, QType]]:
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=reverse)

    # -- weight grading ----------------------------------------------------

    def is_homogeneous(self, weight: int | None = None) -> bool:
        weights = {monomial_weight(m) for m in self.terms}
        if not weights:
            return True
        if len(weights) > 1:
            return False
        return weight is None or weights == {weight}

    # -- substitution and derivation ---------------------------------------

    def substitute(self, table: dict[Symbol, "MultiPoly"]) -> "MultiPoly":
        """Replace symbols by polynomials (used for parameter specialization)."""
        out: dict[Monomial, QType] = {}
        pow_cache: dict[tuple[Symbol, int], MultiPoly] = {}
        for m, c in self.terms.items():
            term = MultiPoly.const(c)
            plain = m
            for s, e in factors(m):
                if s in table:
                    key = (s, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = table[s] ** e
                        pow_cache[key] = p
                    term = term * p
                    plain = monomial_div(plain, monomial((key,)))
            if plain:
                term = term * MultiPoly.monomial(plain)
            add_terms(out, term.terms.items())
        return MultiPoly(out)

    def derive(self, dmap: Callable[[Symbol], "MultiPoly | None"]) -> "MultiPoly":
        """Formal derivation: dmap gives the image of each symbol (None = 0)."""
        out: dict[Monomial, QType] = {}
        for m, c in self.terms.items():
            for s, e in factors(m):
                ds = dmap(s)
                if ds:
                    add_product(out, {monomial_div(m, s.unit): c * e}, ds.terms)
        return MultiPoly(out)

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return self.text()

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            piece = monomial_str(m)
            if piece == "1":
                piece = q_str(c)
            elif c == 1:
                pass
            elif c == -1:
                piece = "-" + piece
            else:
                piece = "%s*%s" % (q_str(c), piece)
            if parts and not piece.startswith("-"):
                parts.append("+ " + piece)
            elif parts:
                parts.append("- " + piece[1:])
            else:
                parts.append(piece)
        return " ".join(parts)


def _coerce(x):
    """x as a MultiPoly, or NotImplemented for an operand type the ring
    operators do not know, so Python tries the other operand's method."""
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, QType)):
        return MultiPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# scaled polynomials: integer numerators over one denominator


class ScaledPoly:
    """The polynomial sum(nums[m] * m) / den, den a positive integer.

    The content/primitive-part representation (Geddes, Czapor & Labahn,
    Algorithms for Computer Algebra, ch. 2): linear combinations and
    products need integer arithmetic only, and rationals are formed once,
    by :meth:`poly`.  Numerators are never zero; den and the numerators
    need not be coprime (see :meth:`primitive`).  It defines no arithmetic
    operators, so it cannot be mixed up with a :class:`MultiPoly`; ``==``
    compares the polynomials.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: dict[Monomial, int]):
        self.den = den
        self.nums = nums

    @classmethod
    def of(cls, p: MultiPoly) -> "ScaledPoly":
        """p over the least common denominator of its coefficients (primitive)."""
        den = lcm(*{c.denominator for c in p.terms.values()})
        return cls(den, {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()})

    def poly(self) -> MultiPoly:
        """The rational polynomial, each coefficient in lowest terms."""
        den = self.den
        if den == 1:
            return MultiPoly({m: Q(n) for m, n in self.nums.items()})
        return MultiPoly({m: Q(n, den) for m, n in self.nums.items()})

    @property
    def terms(self) -> dict[Monomial, QType]:
        """The rational coefficients, as in :attr:`MultiPoly.terms`.

        Formed anew on each read, for code that inspects a row's terms (the
        span counters of ``perfbench/tracer.py``), not for a hot path.
        """
        return self.poly().terms

    def __eq__(self, other) -> bool:
        """Equality of the polynomials, whatever the denominators."""
        return (isinstance(other, ScaledPoly) and self.nums.keys() == other.nums.keys()
                and all(v * other.den == other.nums[m] * self.den for m, v in self.nums.items()))

    def primitive(self) -> "ScaledPoly":
        """The same polynomial with the content common to den and nums divided out."""
        g = gcd(self.den, *self.nums.values())
        if g == 1:
            return self
        return ScaledPoly(self.den // g, {m: n // g for m, n in self.nums.items()})


def scaled_sum(pairs: Iterable[tuple[QType | int, ScaledPoly]]) -> ScaledPoly:
    """sum(c * p) over (c, p) pairs with rational c: an integer linear
    combination over the least common denominator of the c/p.den."""
    pairs = [(qify(c), p) for c, p in pairs]
    den = lcm(*(c.denominator * p.den for c, p in pairs))
    out: dict[Monomial, int] = {}
    for c, p in pairs:
        f = c.numerator * (den // (c.denominator * p.den))
        if f:
            add_terms(out, ((m, n * f) for m, n in p.nums.items()))
    return ScaledPoly(den, out).primitive()


def scaled_products(triples: Iterable[tuple[int, ScaledPoly, ScaledPoly]]) -> ScaledPoly:
    """sum(c * a * b) over (c, a, b) triples with integer c: integer products
    over the least common multiple of the a.den * b.den."""
    triples = list(triples)
    den = lcm(*(a.den * b.den for _, a, b in triples))
    out: dict[Monomial, int] = {}
    for c, a, b in triples:
        c *= den // (a.den * b.den)
        add_product(out, {m: v * c for m, v in a.nums.items()}, b.nums)
    return ScaledPoly(den, out)
