"""Truncated Laurent series in one variable with polynomial coefficients.

A :class:`LaurentSeries` stores finitely many coefficients of xi^k (k may be
negative) together with an exclusive truncation order: coefficients at
exponents >= order are unknown.  Truncation bookkeeping is pessimistic; an
operation that cannot guarantee a requested order raises
:class:`~kleinian.errors.TruncationError` rather than silently degrading.
Each coefficient is a primitive :class:`~kleinian.poly.ScaledPoly`, so sums,
products, scalar multiples, inverses and rational powers of a unit run in
integer arithmetic; :meth:`LaurentSeries.coeff` forms one rational coefficient.
"""

from __future__ import annotations

from math import lcm

from .errors import SeriesError, TruncationError
from .poly import (EMPTY_MONOMIAL, Monomial, MultiPoly, ScaledPoly, add_product, scaled_products,
                   scaled_sum)
from .rationals import Q, qify

_INF = 10 ** 9
_ONE = ScaledPoly(1, {EMPTY_MONOMIAL: 1})


def _scaled(c) -> ScaledPoly:
    """A coefficient (ScaledPoly, MultiPoly, int or rational) as a primitive ScaledPoly."""
    if isinstance(c, ScaledPoly):
        return c.primitive()
    return ScaledPoly.of(c if isinstance(c, MultiPoly) else MultiPoly.const(c))


class LaurentSeries:
    """Sparse truncated Laurent series with ScaledPoly coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict | None = None, order: int = _INF):
        cc = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _scaled(c)
                if c.nums and k < order:
                    cc[k] = c
        self.coeffs: dict[int, ScaledPoly] = cc
        self.order = order

    @classmethod
    def _of(cls, coeffs: dict[int, ScaledPoly], order: int) -> "LaurentSeries":
        """A series of primitive nonzero coefficients below order, taken as they are."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.order = order
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int = _INF) -> "LaurentSeries":
        return cls._of({}, order)

    @classmethod
    def const(cls, c, order: int = _INF) -> "LaurentSeries":
        return cls({0: c}, order)

    @classmethod
    def xi_power(cls, k: int, coeff=1, order: int = _INF) -> "LaurentSeries":
        return cls({k: coeff}, order)

    # -- basics ---------------------------------------------------------------

    def valuation(self) -> int:
        """Smallest known exponent with nonzero coefficient (order if none)."""
        return min(self.coeffs) if self.coeffs else self.order

    def coeff(self, k: int) -> MultiPoly:
        """The coefficient of xi^k as a rational polynomial."""
        if k >= self.order:
            raise TruncationError("coefficient of xi^%d beyond truncation order %d" % (k, self.order))
        c = self.coeffs.get(k)
        return MultiPoly.zero() if c is None else c.poly()

    def numerators(self) -> tuple[int, dict[int, dict[Monomial, int]]]:
        """(D, numerators by exponent): every coefficient over the common denominator D."""
        den = lcm(*(c.den for c in self.coeffs.values()))
        return den, {k: c.nums if c.den == den else
                     {m: v * (den // c.den) for m, v in c.nums.items()}
                     for k, c in self.coeffs.items()}

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise TruncationError("cannot extend truncation order %d to %d" % (self.order, order))
        return LaurentSeries._of({k: c for k, c in self.coeffs.items() if k < order}, order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "O(xi^%d)" % self.order
        parts = ["(%s)*xi^%d" % (self.coeff(k).text(), k) for k in sorted(self.coeffs)]
        return " + ".join(parts) + " + O(xi^%d)" % self.order

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k < order}
        for k, c in other.coeffs.items():
            if k < order:
                out[k] = scaled_sum(((1, out[k]), (1, c))) if k in out else c
        return LaurentSeries._of({k: c for k, c in out.items() if c.nums}, order)

    def __neg__(self) -> "LaurentSeries":
        return self * -1

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            # a scalar c: one integer product per coefficient, over its den times c's
            c = _scaled(other)
            return LaurentSeries._of({
                k: ScaledPoly(a.den * c.den, add_product({}, a.nums, c.nums)).primitive()
                for k, a in self.coeffs.items()} if c.nums else {}, self.order)
        order = min(self.order + other.valuation(), other.order + self.valuation())
        da, a = self.numerators()
        db, b = other.numerators()
        out: dict[int, dict[Monomial, int]] = {}
        for k1, n1 in a.items():
            for k2, n2 in b.items():
                k = k1 + k2
                if k < order:
                    add_product(out.setdefault(k, {}), n1, n2)
        return LaurentSeries._of({k: ScaledPoly(da * db, v).primitive()
                                  for k, v in out.items() if v}, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by xi^k."""
        return LaurentSeries._of({e + k: c for e, c in self.coeffs.items()}, self.order + k)

    def inverse(self, order: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse; the leading coefficient must be rational.

        The result is exact to order ``self.order - 2*valuation`` at most.
        """
        if self.is_zero():
            raise SeriesError("cannot invert the zero series")
        v = self.valuation()
        lead = self.coeffs[v]
        if lead.nums.keys() != {EMPTY_MONOMIAL}:
            raise SeriesError("leading coefficient %s is not an invertible rational" % lead.poly())
        max_order = self.order - 2 * v
        if order is None:
            order = max_order
        elif order > max_order:
            raise TruncationError("inverse known only to order %d, requested %d" % (max_order, order))
        inv_c0 = Q(lead.den, lead.nums[EMPTY_MONOMIAL])
        n_target = order + v  # unit-part inverse needed mod xi^n_target
        unit = self.shift(-v).truncate(n_target) * inv_c0
        return unit.unit_power(-1).shift(-v) * inv_c0

    def __pow__(self, n: int) -> "LaurentSeries":
        """self^n by repeated products; a negative n through the inverse."""
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries.const(1) if n == 0 else self
        for _ in range(n - 1):
            result = result * self
        return result

    def unit_power(self, alpha) -> "LaurentSeries":
        """f^alpha for a unit f = 1 + O(xi) and any rational alpha, to f's order.

        J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), with
        alpha + 1 = p/q in lowest terms: g_0 = 1,
        g_k = (1/(q k)) sum_{j=1..k} (p j - q k) f_j g_{k-j}.
        Each g_k is summed in integer numerators over the least common
        multiple of its terms' denominators and kept primitive.
        """
        if self.valuation() != 0 or self.coeffs.get(0) != _ONE or self.order >= _INF:
            raise SeriesError("unit_power needs a truncated series 1 + O(xi)")
        a1 = qify(alpha) + 1
        p, q = a1.numerator, a1.denominator
        f = sorted((j, fj) for j, fj in self.coeffs.items() if j)
        g: dict[int, ScaledPoly] = {0: _ONE}
        for k in range(1, self.order):
            terms = [(p * j - q * k, fj, g[k - j]) for j, fj in f
                     if j <= k and k - j in g and p * j != q * k]
            if terms:
                gk = scaled_products(terms)
                if gk.nums:
                    g[k] = ScaledPoly(q * k * gk.den, gk.nums).primitive()
        return LaurentSeries._of(g, self.order)
