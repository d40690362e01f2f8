"""Truncated Laurent series in one variable with polynomial coefficients.

A :class:`LaurentSeries` stores finitely many coefficients of xi^k (k may be
negative) together with an exclusive truncation order: coefficients at
exponents >= order are unknown.  Truncation bookkeeping is pessimistic; an
operation that cannot guarantee a requested order raises
:class:`~kleinian.errors.TruncationError` rather than silently degrading.
Rational powers of a unit (:meth:`LaurentSeries.unit_power`) run in integer
numerators over one denominator per coefficient.
"""

from __future__ import annotations

from .errors import SeriesError, TruncationError
from .poly import EMPTY_MONOMIAL, MultiPoly, ScaledPoly, scaled_products
from .rationals import Q, QType, qify

_INF = 10 ** 9


def _as_poly(c) -> MultiPoly:
    if isinstance(c, MultiPoly):
        return c
    return MultiPoly.const(c)


class LaurentSeries:
    """Sparse truncated Laurent series with MultiPoly coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict[int, MultiPoly] | None = None, order: int = _INF):
        cc = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _as_poly(c)
                if not c.is_zero() and k < order:
                    cc[k] = c
        self.coeffs = cc
        self.order = order

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int = _INF) -> "LaurentSeries":
        return cls({}, order)

    @classmethod
    def const(cls, c, order: int = _INF) -> "LaurentSeries":
        return cls({0: _as_poly(c)}, order)

    @classmethod
    def xi_power(cls, k: int, coeff=1, order: int = _INF) -> "LaurentSeries":
        return cls({k: _as_poly(coeff)}, order)

    # -- basics ---------------------------------------------------------------

    def valuation(self) -> int:
        """Smallest known exponent with nonzero coefficient (order if none)."""
        return min(self.coeffs) if self.coeffs else self.order

    def coeff(self, k: int) -> MultiPoly:
        if k >= self.order:
            raise TruncationError("coefficient of xi^%d beyond truncation order %d" % (k, self.order))
        return self.coeffs.get(k, MultiPoly.zero())

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise TruncationError("cannot extend truncation order %d to %d" % (self.order, order))
        return LaurentSeries({k: c for k, c in self.coeffs.items() if k < order}, order)

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
        parts = ["(%s)*xi^%d" % (c.text(), k) for k, c in sorted(self.coeffs.items())]
        return " + ".join(parts) + " + O(xi^%d)" % self.order

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return LaurentSeries(out, order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({k: -c for k, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, QType, MultiPoly)):
            c = _as_poly(other)
            if c.is_zero():
                return LaurentSeries({}, self.order)
            return LaurentSeries({k: v * c for k, v in self.coeffs.items()}, self.order)
        if self.is_zero() or other.is_zero():
            return LaurentSeries({}, min(self.order + other.valuation(),
                                         other.order + self.valuation()))
        order = min(self.order + other.valuation(), other.order + self.valuation())
        out: dict[int, MultiPoly] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k >= order:
                    continue
                v = out.get(k)
                p = c1 * c2
                out[k] = p if v is None else v + p
        return LaurentSeries(out, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by xi^k."""
        return LaurentSeries({e + k: c for e, c in self.coeffs.items()}, self.order + k)

    def inverse(self, order: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse; the leading coefficient must be rational.

        The result is exact to order ``self.order - 2*valuation`` at most.
        """
        if self.is_zero():
            raise SeriesError("cannot invert the zero series")
        v = self.valuation()
        lead = self.coeffs[v]
        if not lead.is_rational() or lead.is_zero():
            raise SeriesError("leading coefficient %s is not an invertible rational" % lead)
        max_order = self.order - 2 * v
        if order is None:
            order = max_order
        elif order > max_order:
            raise TruncationError("inverse known only to order %d, requested %d" % (max_order, order))
        inv_c0 = Q(1) / lead.rational_value()
        n_target = order + v  # unit-part inverse needed mod xi^n_target
        unit = LaurentSeries({k - v: c * inv_c0 for k, c in self.coeffs.items()}, n_target)
        return unit.unit_power(-1).shift(-v) * inv_c0

    def __pow__(self, n: int) -> "LaurentSeries":
        if n == 0:
            return LaurentSeries.const(1)
        if n < 0:
            return self.inverse() ** (-n)
        result = None
        base = self
        e = n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base._square()
        return result

    def _square(self) -> "LaurentSeries":
        """self * self, multiplying each unordered pair of coefficients once."""
        if self.is_zero():
            return self * self
        order = self.order + self.valuation()
        items = sorted(self.coeffs.items())
        out: dict[int, MultiPoly] = {}
        for i, (k1, c1) in enumerate(items):
            twice = c1 * 2
            for k2, c2 in items[i:]:
                k = k1 + k2
                if k >= order:
                    break
                p = (c1 if k2 == k1 else twice) * c2
                v = out.get(k)
                out[k] = p if v is None else v + p
        return LaurentSeries(out, order)

    def unit_power(self, alpha) -> "LaurentSeries":
        """f^alpha for a unit f = 1 + O(xi) and any rational alpha, to f's order.

        J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), with
        alpha + 1 = p/q in lowest terms: g_0 = 1,
        g_k = (1/(q k)) sum_{j=1..k} (p j - q k) f_j g_{k-j}.
        Each g_k is summed in integer numerators over the least common
        multiple of its terms' denominators and kept primitive as a
        :class:`~kleinian.poly.ScaledPoly`; rationals are formed once per
        coefficient of the result.
        """
        if self.valuation() != 0 or self.coeff(0) != MultiPoly.one() or self.order >= _INF:
            raise SeriesError("unit_power needs a truncated series 1 + O(xi)")
        a1 = qify(alpha) + 1
        p, q = a1.numerator, a1.denominator
        f = sorted((j, ScaledPoly.of(c)) for j, c in self.coeffs.items() if j)
        g: dict[int, ScaledPoly] = {0: ScaledPoly(1, {EMPTY_MONOMIAL: 1})}
        for k in range(1, self.order):
            terms = [(p * j - q * k, fj, g[k - j]) for j, fj in f
                     if j <= k and k - j in g and p * j != q * k]
            if terms:
                gk = scaled_products(terms)
                if gk.nums:
                    g[k] = ScaledPoly(q * k * gk.den, gk.nums).primitive()
        return LaurentSeries({k: gk.poly() for k, gk in g.items()}, self.order)

