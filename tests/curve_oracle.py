"""Direct, slower computations that kleinian.curves and kleinian.series replaced: test oracles.

* :class:`RationalSeries`, truncated Laurent series with rational
  polynomial coefficients (:class:`~kleinian.poly.MultiPoly`), the oracle
  for the integer-numerator ``LaurentSeries``: every operation forms
  rationals term by term;
* :class:`RationalExpansion`, the Puiseux data of a curve in that rational
  arithmetic, with y^b = lead^b xi^(-sb) f^(b/n) from :func:`miller_power`;
* y^n - phi(x) evaluated on series, the oracle for the Puiseux
  certificate: y is raised to the n-th power by repeated products of
  rational series whose coefficients are polynomials in the curve
  parameters, so its cost grows quadratically in the expansion order;
* J.C.P. Miller's power recurrence in rational arithmetic, the oracle for
  the integer-numerator ``LaurentSeries.unit_power``;
* the hand-written holomorphic differentials of both curves, formed as
  general series products with dx = x'(xi) dxi, the oracle for
  ``curves.differentials``, which computes them from (n, s);
* the hand-written genus-2 Kleinian polar, the oracle for Baker's closed
  form in ``curves.kleinian_polar``;
* the omega table by two exact divisions of a two-variable series
  (:class:`BiSeries`), first by P^2 and then by (xi - eta)^2, the oracle
  for ``curves.omega_alg``'s grouped integer pass with one division by
  (xi^n - eta^n)^2.
"""

from kleinian.curves import (FAMILIES, CurveSpec, LocalExpansion, OmegaAlgTable, kleinian_polar,
                             polar_vars)
from kleinian.errors import ConventionError, SeriesError, TruncationError
from kleinian.poly import MultiPoly, factors, monomial
from kleinian.rationals import Q, QType, qify
from kleinian.series import LaurentSeries

_INF = 10 ** 9


def _as_poly(c) -> MultiPoly:
    return c if isinstance(c, MultiPoly) else MultiPoly.const(c)


# ---------------------------------------------------------------------------
# rational series


class RationalSeries:
    """Sparse truncated Laurent series with MultiPoly coefficients.

    The same truncation bookkeeping as ``LaurentSeries``: coefficients at
    exponents >= order are unknown, a product is known to
    min(order_a + val_b, order_b + val_a).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict | None = None, order: int = _INF):
        cc = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _as_poly(c)
                if not c.is_zero() and k < order:
                    cc[k] = c
        self.coeffs = cc
        self.order = order

    @classmethod
    def of(cls, series: LaurentSeries) -> "RationalSeries":
        """The integer-numerator series with each coefficient formed as a rational."""
        return cls({k: series.coeff(k) for k in series.coeffs}, series.order)

    @classmethod
    def const(cls, c, order: int = _INF) -> "RationalSeries":
        return cls({0: c}, order)

    @classmethod
    def xi_power(cls, k: int, coeff=1, order: int = _INF) -> "RationalSeries":
        return cls({k: coeff}, order)

    def valuation(self) -> int:
        return min(self.coeffs) if self.coeffs else self.order

    def coeff(self, k: int) -> MultiPoly:
        if k >= self.order:
            raise TruncationError("coefficient of xi^%d beyond truncation order %d" % (k, self.order))
        return self.coeffs.get(k, MultiPoly.zero())

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise TruncationError("cannot extend truncation order %d to %d" % (self.order, order))
        return RationalSeries(self.coeffs, order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, RationalSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        parts = ["(%s)*xi^%d" % (c.text(), k) for k, c in sorted(self.coeffs.items())]
        return " + ".join(parts + ["O(xi^%d)" % self.order])

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return RationalSeries(out, min(self.order, other.order))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries({k: -c for k, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        return self + (-other)

    def __mul__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            c = _as_poly(other)
            return RationalSeries({k: v * c for k, v in self.coeffs.items()}, self.order)
        order = min(self.order + other.valuation(), other.order + self.valuation())
        out: dict[int, MultiPoly] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k < order:
                    v = out.get(k)
                    out[k] = c1 * c2 if v is None else v + c1 * c2
        return RationalSeries(out, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RationalSeries":
        return RationalSeries({e + k: c for e, c in self.coeffs.items()}, self.order + k)

    def inverse(self, order: int | None = None) -> "RationalSeries":
        """1/self to order self.order - 2 val at most; the lead must be rational."""
        if self.is_zero():
            raise SeriesError("cannot invert the zero series")
        v = self.valuation()
        lead = self.coeffs[v]
        if not lead.is_rational():
            raise SeriesError("leading coefficient %s is not an invertible rational" % lead)
        max_order = self.order - 2 * v
        if order is None:
            order = max_order
        elif order > max_order:
            raise TruncationError("inverse known only to order %d, requested %d" % (max_order, order))
        inv_c0 = Q(1) / lead.rational_value()
        unit = RationalSeries({k - v: c * inv_c0 for k, c in self.coeffs.items()}, order + v)
        return miller_power(unit, -1).shift(-v) * inv_c0

    def __pow__(self, n: int) -> "RationalSeries":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalSeries.const(1)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result


def miller_power(f: RationalSeries, alpha) -> RationalSeries:
    """f^alpha for a unit f = 1 + O(xi), to f's order, in rational arithmetic.

    g_0 = 1, g_k = (1/k) sum_{j=1..k} ((alpha+1) j - k) f_j g_{k-j}
    (Knuth, TAOCP Vol. 2, 4.7).
    """
    if f.valuation() != 0 or f.coeff(0) != MultiPoly.one() or f.order >= _INF:
        raise SeriesError("unit_power needs a truncated series 1 + O(xi)")
    a1 = qify(alpha) + 1
    terms = sorted((j, c) for j, c in f.coeffs.items() if j)
    g: dict[int, MultiPoly] = {0: MultiPoly.one()}
    for k in range(1, f.order):
        acc = MultiPoly.zero()
        for j, fj in terms:
            if j > k:
                break
            gk = g.get(k - j)
            c = a1 * j - k
            if gk is not None and c:
                acc = acc + (fj * c) * gk
        if not acc.is_zero():
            g[k] = acc * Q(1, k)
    return RationalSeries(g, f.order)


class RationalExpansion:
    """The Puiseux data of a ``LocalExpansion``'s curve at its orders, in rationals.

    f = phi(xi^(-n)) / (c_s xi^(-ns)) is formed from the curve's
    coefficients, and y^b = lead^b xi^(-sb) f^(b/n) by :func:`miller_power`;
    only the truncation order of f and the expansion order are read from
    the expansion.
    """

    def __init__(self, loc: LocalExpansion):
        curve = self.curve = loc.curve
        self.order = loc.order
        self.lead = Q(FAMILIES[curve.family][3])
        rhs = curve.rhs_coeffs()
        top = rhs[curve.s].rational_value()
        self.unit = RationalSeries({curve.n * j: rhs[curve.s - j] * (1 / top)
                                    for j in range(curve.s + 1)}, loc.unit.order)
        self.x = RationalSeries.xi_power(-curve.n)

    def y_power(self, b: int) -> RationalSeries:
        g = miller_power(self.unit, Q(b, self.curve.n))
        return (g * self.lead ** b).shift(-self.curve.s * b)


def curve_value(curve: CurveSpec, loc: LocalExpansion) -> RationalSeries:
    """f(x, y) = y^n - phi(x) on the expansion's series x(xi), y(xi)."""
    acc = RationalSeries.of(loc.y) ** curve.n
    x = RationalSeries.xi_power(-curve.n)
    xpow = {0: RationalSeries.const(1)}
    rhs = curve.rhs_coeffs()
    for deg in range(1, max(rhs) + 1):
        xpow[deg] = xpow[deg - 1] * x
    for deg, c in rhs.items():
        acc = acc - xpow[deg] * c
    return acc


def defects_below(curve: CurveSpec, loc: LocalExpansion, order: int) -> dict:
    """The nonzero coefficients of y^n - phi(x) below xi^order."""
    value = curve_value(curve, loc)
    assert value.order >= order, "oracle known only to xi^%d" % value.order
    return {k: c for k, c in value.coeffs.items() if k < order}


# ---------------------------------------------------------------------------
# the hand-written differentials and genus-2 polar


def differentiate(f: RationalSeries) -> RationalSeries:
    """d/dxi of a Laurent series, known to one order less."""
    return RationalSeries({k - 1: c * k for k, c in f.coeffs.items() if k}, f.order - 1)


def hand_written_differentials(curve: CurveSpec, loc: RationalExpansion) -> list[RationalSeries]:
    """du_i/dxi: x dx/y and dx/y for genus 2; -dx/(3y), -x dx/(3y^2), -dx/(3y^2) for trigonal."""
    x = loc.x
    dx = differentiate(x)
    if curve.n == 2:
        inv_y = loc.y_power(-1)
        return [x * dx * inv_y, dx * inv_y]
    inv_3y = loc.y_power(-1) * Q(1, 3)
    inv_3y2 = loc.y_power(-2) * Q(1, 3)
    # global sign flipped so the leading coefficients come out +1
    return [-(dx * inv_3y), -(x * dx * inv_3y2), -(dx * inv_3y2)]


def hand_written_genus2_polar(curve: CurveSpec) -> MultiPoly:
    """F((x,y),(z,w)) of y^2 = 4x^5 + a4 x^4 + a3 x^3 + a2 x^2 + a1 x + a0."""
    xs, ys, zs, ws = polar_vars(curve.n, curve.s)
    xv, yv = MultiPoly.sym(xs), MultiPoly.sym(ys)
    zv, wv = MultiPoly.sym(zs), MultiPoly.sym(ws)
    ps = {p.name: curve.parameter_poly(p) for p in curve.parameters}
    xz = xv * zv
    F = (xz * xz * (xv + zv) * 4 + xz * xz * ps["a4"] * 2
         + xz * (xv + zv) * ps["a3"] + xz * ps["a2"] * 2
         + (xv + zv) * ps["a1"] + ps["a0"] * 2)
    return F + yv * wv * 2


# ---------------------------------------------------------------------------
# two-variable series and the two-step omega table


class BiSeries:
    """Truncated power/Laurent series in two local parameters.

    Coefficients are known for exponent pairs (i, j) with i < order_x and
    j < order_y.  Used for the expansion of symmetric bi-differentials;
    symmetry means coeff(i, j) == coeff(j, i).
    """

    __slots__ = ("coeffs", "order_x", "order_y")

    def __init__(self, coeffs: dict[tuple[int, int], MultiPoly] | None = None,
                 order_x: int = _INF, order_y: int = _INF):
        cc = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = _as_poly(c)
                if not c.is_zero() and i < order_x and j < order_y:
                    cc[(i, j)] = c
        self.coeffs = cc
        self.order_x = order_x
        self.order_y = order_y

    @classmethod
    def outer(cls, u: RationalSeries, v: RationalSeries) -> "BiSeries":
        out = {}
        for i, a in u.coeffs.items():
            for j, b in v.coeffs.items():
                out[(i, j)] = a * b
        return cls(out, u.order, v.order)

    @classmethod
    def const(cls, c, order_x: int = _INF, order_y: int = _INF) -> "BiSeries":
        return cls({(0, 0): _as_poly(c)}, order_x, order_y)

    def coeff(self, i: int, j: int) -> MultiPoly:
        if i >= self.order_x or j >= self.order_y:
            raise TruncationError("coefficient (%d,%d) beyond truncation" % (i, j))
        return self.coeffs.get((i, j), MultiPoly.zero())

    def __add__(self, other: "BiSeries") -> "BiSeries":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return BiSeries(out, min(self.order_x, other.order_x), min(self.order_y, other.order_y))

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + BiSeries({k: -c for k, c in other.coeffs.items()}, other.order_x, other.order_y)

    def min_exponents(self) -> tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        return (min(i for i, _ in self.coeffs), min(j for _, j in self.coeffs))

    def __mul__(self, other) -> "BiSeries":
        if isinstance(other, (int, QType, MultiPoly)):
            c = _as_poly(other)
            return BiSeries({k: v * c for k, v in self.coeffs.items()}, self.order_x, self.order_y)
        vx, vy = other.min_exponents()
        sx, sy = self.min_exponents()
        ox = min(self.order_x + vx, other.order_x + sx)
        oy = min(self.order_y + vy, other.order_y + sy)
        out: dict[tuple[int, int], MultiPoly] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                if key[0] >= ox or key[1] >= oy:
                    continue
                v = out.get(key)
                p = c1 * c2
                out[key] = p if v is None else v + p
        return BiSeries(out, ox, oy)

    __rmul__ = __mul__

    def total_degree_valid(self) -> int:
        """Largest D such that every homogeneous part of degree < D is complete."""
        return min(self.order_x, self.order_y)

    def homogeneous_part(self, d: int) -> list[MultiPoly]:
        """Coefficients [c_0 .. c_d] of xi^(d-i) eta^i in the degree-d part."""
        if d >= self.total_degree_valid():
            raise TruncationError("degree-%d part is not complete" % d)
        return [self.coeffs.get((d - i, i), MultiPoly.zero()) for i in range(d + 1)]

    def is_symmetric(self) -> bool:
        return all(self.coeffs.get((j, i), MultiPoly.zero()) == c
                   for (i, j), c in self.coeffs.items())


def divide_homogeneous(numer: list[MultiPoly], divisor: list) -> list[MultiPoly]:
    """Exact division of binary homogeneous forms.

    Forms are coefficient lists [c_0..c_d] for sum c_i xi^(d-i) eta^i; the
    divisor must be monic in xi (c_0 == 1) with rational coefficients, and
    must divide exactly (a nonzero remainder raises SeriesError).
    """
    d = len(numer) - 1
    e = len(divisor) - 1
    if d < e:
        if any(not c.is_zero() if isinstance(c, MultiPoly) else c for c in numer):
            raise SeriesError("homogeneous division with nonzero remainder")
        return [MultiPoly.zero()]
    div = [qify(c) for c in divisor]
    if div[0] != 1:
        raise SeriesError("divisor must be monic in xi")
    work = list(numer)
    quot = [MultiPoly.zero()] * (d - e + 1)
    for i in range(d - e + 1):
        q = work[i]
        quot[i] = q
        if q.is_zero():
            continue
        for j in range(1, e + 1):
            work[i + j] = work[i + j] - q * div[j]
    for rem in work[d - e + 1:]:
        if not rem.is_zero():
            raise SeriesError("homogeneous division left remainder %s" % rem)
    return quot


def omega_alg_two_step(curve: CurveSpec, size: int, loc: RationalExpansion) -> OmegaAlgTable:
    """The omega table by two exact divisions of a bi-series numerator.

    The double pole is removed exactly: (x - z)^2 factors as
    (xi - eta)^2 P(xi, eta)^2 / (xi eta)^(2n) with P homogeneous, the series
    numerator is divided symbolically by P^2 and then, after subtracting 1,
    by (xi - eta)^2; both divisions are exact in the series ring.
    """
    n = curve.n
    polar = kleinian_polar(curve)
    shift_deg = 2 * curve.n - 2
    deg_cap = 2 * (size - 1) + 2 + shift_deg  # largest total degree ever read

    def factor(a: int, b: int) -> RationalSeries:
        """x^a y^b dx xi^(2n) / f_y = -xi^(n-1-na) y^(b+1-n), capped at deg_cap."""
        series = -loc.y_power(b + 1 - n).shift(n - 1 - n * a)
        if series.order <= deg_cap + 1:
            return series
        return series.truncate(deg_cap + 1)

    coeffs: dict[tuple[int, int], MultiPoly] = {}
    orders = []
    for mono, coeff in polar.terms.items():
        exps = {s.name: e for s, e in factors(mono)}
        pcoeff = MultiPoly.monomial(monomial((s, e) for s, e in factors(mono)
                                             if s.kind == "param"), coeff)
        u = factor(exps.get("x", 0), exps.get("y", 0)) * pcoeff
        v = factor(exps.get("z", 0), exps.get("w", 0))
        orders += [u.order, v.order]
        for i, a in u.coeffs.items():
            for j, b in v.coeffs.items():
                if i + j > deg_cap:
                    continue
                key = (i, j)
                prod = a * b
                got = coeffs.get(key)
                coeffs[key] = prod if got is None else got + prod
    M = BiSeries(coeffs, min(orders), min(orders))

    mi, mj = M.min_exponents()
    if mi < 0 or mj < 0:
        raise ConventionError("bi-differential numerator has negative exponents")

    # P(xi,eta) = xi^(n-1) + xi^(n-2) eta + ... + eta^(n-1); divisor P^2
    p_form = [Q(1)] * n
    p2 = [Q(0)] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            p2[i + j] += p_form[i] * p_form[j]
    shift = 2 * n - 2  # degree of P^2

    max_deg = 2 * (size - 1)
    if max_deg + 2 + shift >= M.total_degree_valid():
        raise TruncationError("expansion order insufficient for a %dx%d table" % (size, size))

    # Q := M / P^2 starts 1 + 0 + Q_2 + ...; the 1 is exactly the singular
    # kernel d xi d eta/(xi-eta)^2 and the degree-1 part must vanish.
    if divide_homogeneous(M.homogeneous_part(shift), p2) != [MultiPoly.one()]:
        raise ConventionError("double-pole normalization failed at degree 0")
    for c in divide_homogeneous(M.homogeneous_part(shift + 1), p2):
        if not c.is_zero():
            raise ConventionError("double-pole subtraction left a degree-1 part")

    entries: dict[tuple[int, int], MultiPoly] = {}
    for d in range(0, max_deg + 1):
        q_part = divide_homogeneous(M.homogeneous_part(d + 2 + shift), p2)
        w_part = divide_homogeneous(q_part, [Q(1), Q(-2), Q(1)])
        for i, c in enumerate(w_part):
            k, l = d - i, i
            if not c.is_zero() and k < size and l < size:
                entries[(k, l)] = c
    return OmegaAlgTable(curve, size, entries)
