"""Sparse multivariate polynomials over the rationals in weight-graded symbols.

A :class:`Symbol` is a named generator carrying a fixed Sato weight; symbols
are interned, so they hash and compare by identity.  A monomial is a tuple
of ``(symbol, exponent)`` pairs sorted by symbol name; a :class:`MultiPoly`
maps monomials to nonzero rational coefficients.  The zero polynomial is
the empty map.  All values are immutable in practice:
no method mutates its operands, so polynomials can be shared freely.

A :class:`ScaledPoly` carries the same polynomial as integer numerators
over one common denominator, so that sums and products of many terms run
in integer arithmetic; it is converted to and from :class:`MultiPoly`
through ``Q``.

The canonical term order used everywhere (export, pivot selection) is
(total Sato weight, monomial) with monomials compared lexicographically
by (symbol name, exponent).
"""

from __future__ import annotations

from math import gcd, lcm
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
    read-only.
    """

    __slots__ = ("name", "weight", "kind", "indices")

    def __new__(cls, name: str, weight: int, kind: str = "param",
                indices: tuple[int, ...] = ()) -> "Symbol":
        key = (name, weight, kind, indices)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            for attr, value in zip(cls.__slots__, key):
                object.__setattr__(self, attr, value)
            # setdefault: a racing constructor keeps the instance stored first
            self = _INTERNED.setdefault(key, self)
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


# A monomial: tuple of (Symbol, positive exponent), sorted by symbol name.
Monomial = tuple[tuple[Symbol, int], ...]

EMPTY_MONOMIAL: Monomial = ()


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for s, e in b:
        out[s] = out.get(s, 0) + e
    if len(out) == 1:
        return tuple(out.items())
    return tuple(sorted(out.items(), key=_factor_name))


def _factor_name(factor: tuple[Symbol, int]) -> str:
    return factor[0].name


def monomial_weight(m: Monomial) -> int:
    return sum(s.weight * e for s, e in m)


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    out = dict(b)
    for s, e in a:
        r = out[s] - e
        if r < 0:
            raise ValueError("monomial does not divide")
        if r:
            out[s] = r
        else:
            del out[s]
    # out keeps b's (sorted) insertion order
    return tuple(out.items())


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


def monomial_key(m: Monomial):
    """Canonical term-order key: (total weight, lexicographic monomial)."""
    return (monomial_weight(m), tuple((s.name, e) for s, e in m))


def monomial_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(s.name if e == 1 else "%s^%d" % (s.name, e) for s, e in m)


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
        return cls({((s, exp),): coeff})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "MultiPoly":
        coeff = qify(coeff)
        return cls({m: coeff} if coeff else {})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return MultiPoly(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, QType)):
            c = qify(other)
            if not c:
                return MultiPoly.zero()
            return MultiPoly({m: v * c for m, v in self.terms.items()})
        other = _coerce(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        # iterate over the smaller operand's terms
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        return MultiPoly(add_terms({}, ((monomial_mul(m1, m2), c1 * c2)
                                        for m1, c1 in a.items() for m2, c2 in b.items())))

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
        return self.terms.get(m, Q(0))

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, QType]]:
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=reverse)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

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
            plain: list[tuple[Symbol, int]] = []
            for s, e in m:
                if s in table:
                    key = (s, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = table[s] ** e
                        pow_cache[key] = p
                    term = term * p
                else:
                    plain.append((s, e))
            if plain:
                term = term * MultiPoly.monomial(tuple(sorted(plain)))
            add_terms(out, term.terms.items())
        return MultiPoly(out)

    def derive(self, dmap: Callable[[Symbol], "MultiPoly | None"]) -> "MultiPoly":
        """Formal derivation: dmap gives the image of each symbol (None = 0)."""
        out: dict[Monomial, QType] = {}
        for m, c in self.terms.items():
            for i, (s, e) in enumerate(m):
                ds = dmap(s)
                if not ds:
                    continue
                # removing or lowering one factor keeps the monomial sorted
                rest = m[:i] + ((s, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                ce = c * e
                add_terms(out, ((monomial_mul(rest, m2), ce * c2) for m2, c2 in ds.terms.items()))
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


def _coerce(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, QType)):
        return MultiPoly.const(x)
    raise TypeError("cannot coerce %r to MultiPoly" % (x,))


# ---------------------------------------------------------------------------
# scaled polynomials: integer numerators over one denominator


class ScaledPoly:
    """The polynomial sum(nums[m] * m) / den, den a positive integer.

    The content/primitive-part representation (Geddes, Czapor & Labahn,
    Algorithms for Computer Algebra, ch. 2): linear combinations and
    products need integer arithmetic only, and rationals are formed once,
    by :meth:`poly`.  Numerators are never zero; den and the numerators
    need not be coprime (see :meth:`primitive`).  It defines no arithmetic
    operators, so it cannot be mixed up with a :class:`MultiPoly`.
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

    def primitive(self) -> "ScaledPoly":
        """The same polynomial with the content common to den and nums divided out."""
        g = gcd(self.den, *self.nums.values())
        if g == 1:
            return self
        return ScaledPoly(self.den // g, {m: n // g for m, n in self.nums.items()})


def add_product(out: dict[Monomial, int], a: dict[Monomial, int],
                b: dict[Monomial, int]) -> dict[Monomial, int]:
    """Add the product of the numerator maps a and b into out in place."""
    if len(a) > len(b):
        a, b = b, a
    return add_terms(out, ((monomial_mul(m1, m2), c1 * c2)
                           for m1, c1 in a.items() for m2, c2 in b.items()))


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
