"""Curve families and their local data at the branch point at infinity.

An (n,s)-curve y^n = phi(x), deg phi = s, has one point at infinity.  A
family is one row of :data:`FAMILIES`; everything else is computed from
(n, s): the genus (n-1)(s-1)/2, the Weierstrass gaps (the integers missing
from the semigroup <n, s>), the parameter weights n (s - power), phi, the
holomorphic differentials and, for n = 2, Baker's Kleinian polar (the
trigonal polar is written by hand).  The families are ``hyperelliptic_g2``,
y^2 = 4x^5 + a4 x^4 + ... + a0, and ``cyclic_trigonal_34``,
y^3 = x^4 + m3 x^3 + m6 x^2 + m9 x + m12.

The local parameter is fixed by x = xi^(-n) exactly.  Every holomorphic
differential is scaled to du_i = xi^(w_i - 1)(1 + O(xi)) dxi with leading
coefficient exactly +1; this single global convention keeps all downstream
signs coherent and is pinned by the weight-4 calibration relation of the
derivation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import lcm

from .errors import ConfigError, ConventionError, SeriesError, TruncationError
from .poly import (EMPTY_MONOMIAL, Monomial, MultiPoly, ScaledPoly, Symbol, add_product,
                   add_terms, factors, monomial, param, scaled_products)
from .rationals import Q, QType, q_str, qify
from .series import LaurentSeries

HYPERELLIPTIC_G2 = "hyperelliptic_g2"
CYCLIC_TRIGONAL_34 = "cyclic_trigonal_34"

# family: (n, s, top coefficient of phi, lead of y, parameter names by descending power)
FAMILIES = {
    HYPERELLIPTIC_G2: (2, 5, 4, -2, ("a4", "a3", "a2", "a1", "a0")),
    CYCLIC_TRIGONAL_34: (3, 4, 1, 1, ("m3", "m6", "m9", "m12")),
}

_FAMILY_ALIASES = {
    "hyperelliptic_g2": HYPERELLIPTIC_G2,
    "hyperelliptic": HYPERELLIPTIC_G2,
    "cyclic_trigonal_34": CYCLIC_TRIGONAL_34,
    "trigonal_34": CYCLIC_TRIGONAL_34,
}

# auxiliary coordinates of the two points of the Kleinian polar F((x,y),(z,w))
def polar_vars(n: int, s: int) -> tuple[Symbol, Symbol, Symbol, Symbol]:
    return (Symbol("x", n, "aux"), Symbol("y", s, "aux"),
            Symbol("z", n, "aux"), Symbol("w", s, "aux"))


@dataclass(frozen=True)
class CurveSpec:
    """A validated (n,s)-curve with optional rational parameter values."""

    family: str
    n: int
    s: int
    genus: int
    gap_weights: tuple[int, ...]
    parameters: tuple[Symbol, ...]
    values: tuple[tuple[str, QType], ...] = ()

    @property
    def parameter_values(self) -> dict[str, QType]:
        return dict(self.values)

    def parameter_poly(self, sym: Symbol) -> MultiPoly:
        got = self.parameter_values.get(sym.name)
        return MultiPoly.const(got) if got is not None else MultiPoly.sym(sym)

    def generic(self) -> "CurveSpec":
        """The family member with every parameter symbolic."""
        return _make_curve(self.family, ())

    def specialize(self, expr: MultiPoly) -> MultiPoly:
        """expr with this curve's parameter values substituted."""
        if not self.values:
            return expr
        values = self.parameter_values
        return expr.substitute({p: MultiPoly.const(values[p.name])
                                for p in self.parameters if p.name in values})

    def fingerprint(self) -> str:
        vals = ",".join("%s=%s" % (k, q_str(v)) for k, v in self.values)
        return "%s[%s]" % (self.family, vals)

    # -- defining polynomial -------------------------------------------------

    def rhs_coeffs(self) -> dict[int, MultiPoly]:
        """Coefficients of phi(x), where the curve is y^n = phi(x), by descending power."""
        out = {self.s: MultiPoly.const(FAMILIES[self.family][2])}
        for i, p in enumerate(self.parameters):
            out[self.s - 1 - i] = self.parameter_poly(p)
        return out


def _make_curve(family: str, values: tuple[tuple[str, QType], ...]) -> CurveSpec:
    n, s, _, _, names = FAMILIES[family]
    semigroup = {n * a + s * b for a in range(s) for b in range(n)}
    gaps = tuple(k for k in range(1, (n - 1) * (s - 1)) if k not in semigroup)
    params = tuple(param(name, n * (i + 1)) for i, name in enumerate(names))  # n (s - power)
    return CurveSpec(family, n, s, (n - 1) * (s - 1) // 2, gaps, params, values)


def curve_by_family(family: str, values: dict[str, object] | None = None) -> CurveSpec:
    canonical = _FAMILY_ALIASES.get(family.strip().lower())
    if canonical is None:
        raise ConfigError("unknown curve family %r" % family)
    base = _make_curve(canonical, ())
    if not values:
        return base
    names = {p.name for p in base.parameters}
    fixed = []
    for key in sorted(values):
        if key not in names:
            raise ConfigError("parameter %r does not belong to family %s" % (key, canonical))
        fixed.append((key, qify(values[key])))
    return _make_curve(canonical, tuple(fixed))


_PARAM_ALIASES = {"alpha": "a", "mu": "m", "a": "a", "m": "m", "lambda": "m"}


def parse_spec(text: str) -> CurveSpec:
    """Parse a line-based ``key = value`` curve-spec document.

    ``family`` is required; remaining keys assign rational values (``3/2``)
    to curve parameters, e.g. ``alpha4 = 3/2`` or ``mu3 = -1``.  Unset
    parameters stay symbolic.  A key given twice (``alpha4`` and ``a4``
    are one key) is an error.
    """
    family = None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "family":
            if family is not None:
                raise ConfigError("line %d: family given twice" % lineno)
            family = value
            continue
        head = key.rstrip("0123456789")
        tail = key[len(head):]
        if head not in _PARAM_ALIASES or not tail:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        name = _PARAM_ALIASES[head] + tail
        if name in values:
            raise ConfigError("line %d: parameter %s given twice" % (lineno, name))
        try:
            values[name] = qify(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("line %d: malformed rational %r (%s)" % (lineno, value, exc))
    if family is None:
        raise ConfigError("curve spec does not declare a family")
    return curve_by_family(family, values)


# ---------------------------------------------------------------------------
# local expansion at infinity


@dataclass(frozen=True)
class LocalExpansion:
    """Exact Puiseux data x(xi), y(xi) with f(x(xi), y(xi)) = 0 mod xi^order.

    y = lead * xi^(-s) * unit^(1/n) with unit = phi(x(xi)) / (lead^n
    xi^(-ns)) = 1 + O(xi); every power of y comes from this closed form.
    """

    curve: CurveSpec
    order: int
    lead: QType
    unit: LaurentSeries
    # y^b per exponent b: Miller's recurrence runs once per exponent
    _y_powers: dict[int, LaurentSeries] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def x(self) -> LaurentSeries:
        return LaurentSeries.xi_power(-self.curve.n)

    @property
    def y(self) -> LaurentSeries:
        return self.y_power(1)

    def y_power(self, b: int) -> LaurentSeries:
        """y^b = lead^b xi^(-sb) unit^(b/n), to the relative precision of y.

        Every power but y itself (which :func:`_certify` proves) is proved
        by :func:`_check_power` before it is memoized; callers must not
        mutate the returned series.
        """
        got = self._y_powers.get(b)
        if got is None:
            g = self.unit.unit_power(Q(b, self.curve.n))
            if b != 1:
                _check_power(self, b, g)
            scale = self.lead ** b
            if scale != 1:  # lead^b is 1 for y^0 and for a lead of 1 (trigonal)
                g = g * scale
            got = self._y_powers[b] = g.shift(-self.curve.s * b)
        return got


def _unit_part(curve: CurveSpec, order: int) -> LaurentSeries:
    """phi(xi^(-n)) / (c_s xi^(-ns)) = 1 + sum_j (c_{s-j}/c_s) xi^(nj) mod xi^order."""
    rhs = curve.rhs_coeffs()
    return LaurentSeries({curve.n * j: rhs[curve.s - j] for j in range(curve.s + 1)},
                         order) * (Q(1) / rhs[curve.s].rational_value())


def local_expansion(curve: CurveSpec, order: int) -> LocalExpansion:
    """x = xi^(-n) and y from the closed power recurrence, exactly to the given order.

    The y-branch is the rational one, leading with the family's lead of y.
    The curve equation y^n = phi(x) is proved through xi^order by
    :func:`_certify`, in time linear in the order.
    """
    n, s = curve.n, curve.s
    if order < n + s:
        raise TruncationError("order must be at least n+s = %d" % (n + s))
    work = order + (n - 1) * s + 2  # y^n is then known to order + 2
    loc = LocalExpansion(curve, order, Q(FAMILIES[curve.family][3]), _unit_part(curve, work + s))
    _certify(loc)
    return loc


def _ode_residual(f: LaurentSeries, g: dict[int, ScaledPoly], n: int, b: int,
                  stop: int) -> tuple[int, ScaledPoly] | None:
    """The first nonzero r_k = sum_j (n k - (n+b) j) f_j g_(k-j), 1 <= k < stop.

    r_k is the xi^(k-1) coefficient of n f g' - b f' g, summed in integer
    numerators; g maps exponents to coefficients.  Returns (k, r_k) or None.
    """
    f_terms = sorted(f.coeffs.items())
    for k in range(1, stop):
        terms = [(n * k - (n + b) * j, fj, g[k - j]) for j, fj in f_terms
                 if j <= k and k - j in g and n * k != (n + b) * j]
        if terms:
            r = scaled_products(terms)
            if r.nums:
                return k, r
    return None


def _check_power(loc: LocalExpansion, b: int, g: LaurentSeries):
    """Prove g = f^(b/n) for the unit f = loc.unit, through g's order, or raise.

    g_0 = 1, and g solves the first-order ODE n f g' = b f' g, whose
    xi^(k-1) coefficient is r_k of :func:`_ode_residual`.  Since f_0 = 1,
    the k-th equation fixes g_k from g_0 .. g_(k-1), so f^(b/n) is the one
    solution with g_0 = 1; where g first deviates, at g_k, it is off by
    r_k / (n k), and y^b by lead^b r_k / (n k) at xi^(k - sb).
    """
    n, s, lead = loc.curve.n, loc.curve.s, loc.lead
    if g.truncate(1) != LaurentSeries.const(1, 1):
        raise ConventionError("curve-equation defect: y^%d does not lead with %s xi^%d"
                              % (b, q_str(lead ** b), -s * b))
    found = _ode_residual(loc.unit, g.coeffs, n, b, min(g.order, loc.unit.order))
    if found:
        k, r = found
        off = ScaledPoly(r.den * n * k, r.nums).poly() * lead ** b
        raise ConventionError("curve-equation defect: y^%d is off by %s at xi^%d"
                              % (b, off, k - s * b))


def _certify(loc: LocalExpansion):
    """Prove y^n - phi(x) = 0 mod xi^order for the expansion, or raise.

    Two parts, with f = loc.unit and g = y xi^s / lead:

    (i) lead^n xi^(-ns) f = phi(xi^(-n)) term by term;
    (ii) g_0 = 1, and g solves the first-order ODE n f g' = f' g, whose
         xi^(k-1) coefficient reads r_k = sum_j (n k - (n+1) j) f_j g_(k-j)
         = 0, for 1 <= k < order + ns (:func:`_ode_residual` with b = 1,
         in integer numerators).

    Since f_0 = 1, the k-th equation fixes g_k from g_0 .. g_(k-1), so the
    ODE has the single solution f^(1/n) with g_0 = 1: g^n = f mod
    xi^(order + ns), and y^n - phi(x) = lead^n xi^(-ns) (g^n - f) vanishes
    below xi^order.  Each equation costs one product per term of f, so the
    proof is linear in the order.  A nonzero coefficient is reported as the
    first defect of y^n - phi(x); where g first deviates, at g_k, that
    defect is lead^n n (g_k - f^(1/n)_k) = lead^n r_k / k at xi^(k - ns).
    Every other power of y is proved by the same ODE for its exponent
    (:func:`_check_power`) when it is first computed.
    """
    curve, lead, f, y = loc.curve, loc.lead, loc.unit, loc.y
    n, s = curve.n, curve.s
    top = loc.order + n * s  # g and f are needed below xi^top
    lead_n = lead ** n
    # (i): lead^n f - phi(xi^(-n)) xi^(ns), on the exponents below xi^top
    phi = LaurentSeries({n * (s - deg): c for deg, c in curve.rhs_coeffs().items()})
    defect = (f * lead_n - phi).truncate(min(f.order, top))
    if not defect.is_zero():
        e = defect.valuation()
        raise ConventionError("curve-equation defect at xi^%d: %s" % (e - n * s, defect.coeff(e)))
    # (ii), on y_(k-s) = lead g_k: the ODE is linear, so r_k(y) = lead r_k(g)
    if y.truncate(1 - s) != LaurentSeries.xi_power(-s, lead, 1 - s):
        raise ConventionError("curve-equation defect at xi^%d: y does not lead with %s xi^%d"
                              % (-n * s, q_str(lead), -s))
    known = min(f.order, y.order + s)
    found = _ode_residual(f, y.shift(s).coeffs, n, 1, min(known, top))
    if found:
        k, r = found
        defect = r.poly() * (lead_n / (lead * k))
        raise ConventionError("curve-equation defect at xi^%d: %s" % (k - n * s, defect))
    if known - n * s < loc.order:
        raise TruncationError("defect only verified to order %d" % (known - n * s))


# ---------------------------------------------------------------------------
# holomorphic differentials and winding vectors


def differentials(curve: CurveSpec, loc: LocalExpansion) -> list[LaurentSeries]:
    """Densities du_i/dxi at infinity, normalized to leading coefficient +1.

    du_i = x^a y^b dx / f_y for the one monomial x^a y^b, b < n, of weight
    2g - 1 - w_i; with x = xi^(-n) and f_y = n y^(n-1) its density is
    -y^(b+1-n) xi^(-n(a+1)-1), of valuation w_i - 1 since ns - n - s = 2g - 1.
    """
    n, s, g = curve.n, curve.s, curve.genus
    dus = []
    for w in curve.gap_weights:
        a, b = next((a, b) for a in range(s) for b in range(n) if n * a + s * b == 2 * g - 1 - w)
        du = loc.y_power(b + 1 - n).shift(-n * (a + 1) - 1)
        lead = du.coeffs[w - 1]  # the rational lead^(b+1-n), proved by y_power
        dus.append(du * Q(lead.den, lead.nums[EMPTY_MONOMIAL]))
    return dus


@dataclass(frozen=True)
class WindingData:
    """Vectors R_k of expansion coefficients of the normalized differentials.

    (R_k)_i is the xi^(k-1) coefficient of du_i/dxi, so R_{w_i} = e_i and
    (R_k)_i = 0 for k < w_i; entry weights are k - w_i, and R_k = 0 when
    n divides k.  The table is checked when it is built: the last fact is
    the premise on which the tau model drops every tau_mu with a part
    divisible by n (:mod:`kleinian.schur`).
    """

    curve: CurveSpec
    vectors: tuple[tuple[MultiPoly, ...], ...]  # index k-1, then i-1

    def __post_init__(self):
        n = self.curve.n
        for k, row in enumerate(self.vectors, start=1):
            for i, c in enumerate(row, start=1):
                if c.is_zero():
                    continue
                w = self.curve.gap_weights[i - 1]
                if k < w:
                    raise ConventionError("gap structure violated at (R_%d)_%d" % (k, i))
                if not k % n:
                    raise ConventionError("(R_%d)_%d should vanish for n = %d" % (k, i, n))
                if not self.curve.values and not c.is_homogeneous(k - w):
                    raise ConventionError("(R_%d)_%d is not weight-homogeneous" % (k, i))

    @property
    def count(self) -> int:
        return len(self.vectors)

    def entry(self, k: int, i: int) -> MultiPoly:
        if not 1 <= k <= len(self.vectors):
            raise TruncationError("winding vector R_%d not computed" % k)
        return self.vectors[k - 1][i - 1]


def winding_vectors(curve: CurveSpec, count: int, loc: LocalExpansion | None = None) -> WindingData:
    if loc is None:
        loc = local_expansion(curve, count + curve.n + curve.s + 2)
    dus = differentials(curve, loc)
    if any(du.order < count for du in dus):
        raise TruncationError("differentials known to order %d; need %d"
                              % (min(du.order for du in dus), count))
    return WindingData(curve, tuple(tuple(du.coeff(k - 1) for du in dus)
                                    for k in range(1, count + 1)))


# ---------------------------------------------------------------------------
# Kleinian polar and the algebraic bi-differential table


def _polar_T(xv: MultiPoly, zv: MultiPoly, curve: CurveSpec) -> MultiPoly:
    """Degenerate-polar polynomial T(x,z) of the trigonal curve."""
    ps = {p.name: curve.parameter_poly(p) for p in curve.parameters}
    m3, m6, m9, m12 = ps["m3"], ps["m6"], ps["m9"], ps["m12"]
    return (m12 * 3 + (zv + xv * 2) * m9 + xv * (xv + zv * 2) * m6
            + xv * xv * zv * m3 * 3 + xv * xv * zv * zv + xv ** 3 * zv * 2)


def kleinian_polar(curve: CurveSpec) -> MultiPoly:
    """The symmetric polynomial F((x,y),(z,w)) of the bi-differential.

    omega_alg(Q,S) = F dx dz / (f_y(Q) f_w(S) (x-z)^2); on the diagonal
    F((x,y),(x,y)) = f_y(x,y)^2, which normalizes the double pole to 1.
    For n = 2 it is Baker's closed form for y^2 = sum_j lambda_j x^j,
    F = sum_k (xz)^k (2 lambda_(2k) + lambda_(2k+1) (x+z)) + 2yw
    (Buchstaber, Enolski & Leykin, Rev. Math. Math. Phys. 10, 1997).
    """
    xs, ys, zs, ws = polar_vars(curve.n, curve.s)
    xv, yv = MultiPoly.sym(xs), MultiPoly.sym(ys)
    zv, wv = MultiPoly.sym(zs), MultiPoly.sym(ws)
    if curve.n == 2:
        lam = curve.rhs_coeffs()
        F = yv * wv * 2
        for k in range(curve.s // 2 + 1):
            F = F + (xv * zv) ** k * (lam[2 * k] * 2 + lam[2 * k + 1] * (xv + zv))
        return F
    return (yv * yv * wv * wv * 3
            + wv * _polar_T(xv, zv, curve) + yv * _polar_T(zv, xv, curve))


class OmegaAlgTable:
    """Expansion coefficients of the holomorphic part of omega_alg.

    entry(k, l) is the coefficient of xi^k eta^l dxi deta after removing
    the double pole dxi deta/(xi-eta)^2; the table is symmetric, entry
    (k, l) is weight-homogeneous of weight k+l+2, and it vanishes unless n
    divides k+l+2 and divides neither time index k+1 nor l+1 (for n = 2:
    unless both indices are even).  The table is checked when it is built:
    q_{kl} = 0 for n | k is the premise on which the tau model drops every
    tau_mu with a part divisible by n (:mod:`kleinian.schur`).
    """

    def __init__(self, curve: CurveSpec, size: int, entries: dict[tuple[int, int], MultiPoly]):
        self.curve = curve
        self.size = size
        self.entries = entries
        self._validate()

    def entry(self, k: int, l: int) -> MultiPoly:
        if k >= self.size or l >= self.size or k < 0 or l < 0:
            raise TruncationError("omega_alg entry (%d,%d) outside table of size %d"
                                  % (k, l, self.size))
        return self.entries.get((k, l), MultiPoly.zero())

    def _validate(self):
        n = self.curve.n
        for (k, l), c in self.entries.items():
            if c.is_zero():
                continue
            if self.entries.get((l, k), MultiPoly.zero()) != c:
                raise ConventionError("omega_alg table asymmetric at (%d,%d)" % (k, l))
            if not self.curve.values and not c.is_homogeneous(k + l + 2):
                raise ConventionError("omega_alg(%d,%d) not homogeneous of weight %d: %s"
                                      % (k, l, k + l + 2, c))
            if (k + l + 2) % n or not (k + 1) % n or not (l + 1) % n:
                raise ConventionError("omega_alg(%d,%d) should vanish for n = %d" % (k, l, n))


def required_expansion_order(curve: CurveSpec, table_size: int) -> int:
    # largest total degree read from the numerator series, plus safety margin
    return 2 * (table_size - 1) + 2 * curve.n + 4


def omega_alg(curve: CurveSpec, size: int, loc: LocalExpansion | None = None) -> OmegaAlgTable:
    """Expand the algebraic bi-differential; see :class:`OmegaAlgTable`.

    With x = xi^(-n) and z = eta^(-n), (x - z)^2 = (xi^n - eta^n)^2 / (xi eta)^(2n),
    so omega_alg = M(xi, eta) dxi deta / (xi^n - eta^n)^2, where M sums, over
    the polar's monomials, the products of x^a y^b dx xi^(2n) / f_y and its
    (z, w) counterpart.  Their minus signs cancel, and the monomials are
    grouped by their (z, w) exponents: the xi-side series of a group are
    summed, so each group costs one outer product.  M is accumulated in
    integer numerators over one denominator D.

    The double pole is removed exactly.  Since (xi - eta) P = xi^n - eta^n
    with P = xi^(n-1) + xi^(n-2) eta + ... + eta^(n-1), M's degree-(2n-2)
    part must be P^2 (the kernel dxi deta / (xi - eta)^2) and its
    degree-(2n-1) part must vanish; the degree-d entries are then M's
    degree-(d+2n) part divided by (xi^n - eta^n)^2, one exact division in
    integers, w_i = q_i + 2 w_(i-n) - w_(i-2n), with a zero remainder.
    """
    if loc is None:
        loc = local_expansion(curve, required_expansion_order(curve, size))
    n = curve.n
    deg_cap = 2 * (size - 1) + 2 * n  # largest total degree ever read

    @cache
    def factor(a: int, b: int) -> tuple[int, int, dict[int, dict[Monomial, int]]]:
        """x^a y^b dx xi^(2n) / -f_y = xi^(n-1-na) y^(b+1-n) below xi^(deg_cap+1),
        as (order, den, numerators per exponent)."""
        y = loc.y_power(b + 1 - n).shift(n - 1 - n * a)
        order = min(y.order, deg_cap + 1)
        return (order, *y.truncate(order).numerators())

    groups: dict[tuple[int, int], list] = {}
    for mono, coeff in kleinian_polar(curve).terms.items():
        exps = {s.name: e for s, e in factors(mono)}
        pmono = monomial((s, e) for s, e in factors(mono) if s.kind == "param")
        groups.setdefault((exps.get("z", 0), exps.get("w", 0)), []).append(
            (factor(exps.get("x", 0), exps.get("y", 0)), pmono, coeff))

    # per group: the summed xi-side series over one denominator, and the eta-side factor
    products = []
    orders = []
    for key, members in groups.items():
        den = lcm(*(coeff.denominator * fden for (_, fden, _), _, coeff in members))
        side: dict[int, dict[Monomial, int]] = {}
        for (forder, fden, fnums), pmono, coeff in members:
            orders.append(forder)
            scale = coeff.numerator * (den // (coeff.denominator * fden))
            for k, nums in fnums.items():
                add_product(side.setdefault(k, {}), {pmono: scale}, nums)
        other = factor(*key)
        orders.append(other[0])
        products.append((den, side, other))
    D = lcm(*(den * other[1] for den, _, other in products))
    M: dict[tuple[int, int], dict[Monomial, int]] = {}
    for den, side, (_, oden, onums) in products:
        scale = D // (den * oden)
        for i, a in side.items():
            if not a:
                continue
            a = {m: v * scale for m, v in a.items()}
            for j, b in onums.items():
                if i + j <= deg_cap:
                    add_product(M.setdefault((i, j), {}), a, b)

    if any(nums and (i < 0 or j < 0) for (i, j), nums in M.items()):
        raise ConventionError("bi-differential numerator has negative exponents")
    if deg_cap >= min(orders):
        raise TruncationError("expansion order insufficient for a %dx%d table" % (size, size))

    def part(d: int) -> list[dict[Monomial, int]]:
        return [M.get((d - i, i), {}) for i in range(d + 1)]

    # P^2 has coefficients 1, 2, .., n, .., 2, 1; it is exactly the kernel's
    # numerator, and the degree-(2n-1) part must vanish
    p2 = [min(i, 2 * n - 2 - i) + 1 for i in range(2 * n - 1)]
    if part(2 * n - 2) != [{EMPTY_MONOMIAL: D * c} for c in p2]:
        raise ConventionError("double-pole normalization failed at degree 0")
    if any(part(2 * n - 1)):
        raise ConventionError("double-pole subtraction left a degree-1 part")

    entries: dict[tuple[int, int], MultiPoly] = {}
    for d in range(0, 2 * (size - 1) + 1):
        w: list[dict[Monomial, int]] = []
        for i, c in enumerate(part(d + 2 * n)):
            r = dict(c)
            if 0 <= i - n <= d:
                add_terms(r, ((m, 2 * v) for m, v in w[i - n].items()))
            if i - 2 * n >= 0:
                add_terms(r, ((m, -v) for m, v in w[i - 2 * n].items()))
            if i <= d:
                w.append(r)
            elif r:
                raise SeriesError("division by (xi^n - eta^n)^2 left remainder %s"
                                  % ScaledPoly(D, r).poly())
        for i, c in enumerate(w):
            if c and d - i < size and i < size:
                entries[(d - i, i)] = ScaledPoly(D, c).primitive().poly()
    return OmegaAlgTable(curve, size, entries)
