"""Classical genus-2 derivation engine: expansion of the Klein formula.

For the genus-2 curve the Klein identity

    sum_{i,j} p_ij(u(xi)) U_i(x(xi), y(xi)) U_j(x_k, y_k)
        = F((x(xi), y(xi)), (x_k, y_k)) / (x(xi) - x_k)^2

holds for each point (x_k, y_k) of the divisor, where U_i are the
numerators of the differentials (du_i = U_i dx / f_y) and the p-argument
is shifted by the vector of expanded holomorphic integrals as the
varying point runs into the base point at infinity.  Matching the
coefficients of successive powers of xi yields first the Jacobi
inversion problem and then the four-index relations; everything here is
independent of the hook-determinant engine and serves as its oracle.
"""

from __future__ import annotations

from math import factorial, prod

from .curves import CurveSpec, local_expansion, polar_vars, kleinian_polar, winding_vectors
from .engine import FOUR_INDEX, classify
from .errors import ConfigError, ConventionError
from .poly import MultiPoly, ScaledPoly, Symbol, divides, factors, monomial, monomial_div
from .rationals import Q
from .series import LaurentSeries
from .taucalc import AbelianContext

# coordinates of a finite divisor point (x_k, y_k)
XP = Symbol("xk", 2, "aux")
YP = Symbol("yk", 5, "aux")


def _check_genus2(curve: CurveSpec):
    if (curve.n, curve.s) != (2, 5):
        raise ConfigError("the classical engine supports only the genus-2 curve")


def _wp_taylor(ctx: AbelianContext, base: tuple[int, int],
               deltas: list[LaurentSeries], depth: int, order: int) -> LaurentSeries:
    """p_base(u + delta(xi)) expanded as a series with p-symbol coefficients."""
    acc = LaurentSeries.zero(order)

    def rec(start: int, mult: tuple[int, ...], factor: LaurentSeries):
        indices = base + tuple(i + 1 for i, m in enumerate(mult) for _ in range(m))
        nonlocal acc
        acc = acc + factor * ScaledPoly(prod(map(factorial, mult)), {ctx.wp(indices).unit: 1})
        if sum(mult) >= depth:
            return
        for i in range(start, len(deltas)):
            bumped = tuple(m + (1 if j == i else 0) for j, m in enumerate(mult))
            rec(i, bumped, (factor * deltas[i]).truncate(order))

    rec(0, (0,) * len(deltas), LaurentSeries.const(1, order))
    return acc


def klein_expand(curve: CurveSpec, order: int) -> list[tuple[int, MultiPoly]]:
    """Coefficient equations of xi^t, t = -2 .. order, of the Klein identity.

    Each equation is a polynomial in the p-symbols (Taylor-shifted about
    u), the divisor coordinates x_k, y_k and the curve parameters, valid
    for every point of the divisor.
    """
    _check_genus2(curve)
    ctx = AbelianContext(curve.gap_weights)
    ord_series = order + 1
    ord_taylor = ord_series + curve.n  # absorb the pole of U_1 = 2x
    loc = local_expansion(curve, ord_taylor + curve.n + curve.s + 4)
    x = loc.x
    winding = winding_vectors(curve, ord_taylor + 4, loc)
    # holomorphic integrals, integration constant zero
    deltas = []
    for i in (1, 2):
        coeffs = {k: ScaledPoly.of(winding.entry(k, i)) for k in range(1, ord_taylor + 3)}
        deltas.append(LaurentSeries({k: ScaledPoly(c.den * k, c.nums) for k, c in coeffs.items()},
                                    ord_taylor + 3))
    depth = ord_taylor + 2  # Taylor depth: delta has valuation 1

    # U_1 = 2x, U_2 = 2 (du_1 = x dx/y, du_2 = dx/y, f_y = 2y)
    u_var = [x * 2, LaurentSeries.const(2)]
    u_pt = [MultiPoly.sym(XP, coeff=2), MultiPoly.const(2)]

    lhs = LaurentSeries.zero(ord_series)
    for i in (1, 2):
        for j in (1, 2):
            pij = _wp_taylor(ctx, (i, j), deltas, depth, ord_taylor)
            lhs = lhs + (pij * u_var[i - 1]).truncate(ord_series) * u_pt[j - 1]

    xs, ys, zs, ws = polar_vars(curve.n, curve.s)
    polar = kleinian_polar(curve).substitute(
        {zs: MultiPoly.sym(XP), ws: MultiPoly.sym(YP)})
    numer = LaurentSeries.zero(ord_series + 10)
    for mono, c in polar.terms.items():
        exps = {s.name: e for s, e in factors(mono)}
        rest = monomial((s, e) for s, e in factors(mono) if s.name not in ("x", "y"))
        piece = LaurentSeries.xi_power(-curve.n * exps.get("x", 0)) * loc.y_power(exps.get("y", 0))
        numer = numer + piece * MultiPoly.monomial(rest, c)
    dx2 = x - LaurentSeries.const(MultiPoly.sym(XP))
    # the numerator has a pole of order 3n at worst; invert far enough
    rhs = (numer * (dx2 * dx2).inverse(ord_series + 3 * curve.n + 4)).truncate(ord_series)

    diff = lhs - rhs
    return [(t, diff.coeff(t)) for t in range(-2, order + 1)]


def _reduce_point(expr: MultiPoly, jip2_rhs: MultiPoly, jip2a_rhs: MultiPoly) -> MultiPoly:
    """Eliminate y_k and powers x_k^2 and higher through the inversion problem."""
    expr = expr.substitute({YP: jip2a_rhs})
    xk2 = monomial(((XP, 2),))
    for _ in range(64):
        high = next((mono for mono in expr.terms if divides(xk2, mono)), None)
        if high is None:
            return expr
        c = expr.terms[high]
        rest = monomial_div(high, xk2)
        expr = expr - MultiPoly.monomial(high, c) + MultiPoly.monomial(rest, c) * jip2_rhs
    raise ConventionError("x_k-degree reduction did not terminate")


def jacobi_inversion_extract(curve: CurveSpec):
    """Solve the leading Klein equations: inversion problem plus relations.

    Returns (jip2, jip2a, relations): jip2 is the x-part
    x_k^2 - x_k p11 - p12 = 0, jip2a expresses y_k, and relations are the
    two four-index solved forms and the quasilinear identity obtained by
    cross-derivation, all classified exactly as the hook engine's output.
    The parameters must be symbolic, as ``classify`` requires homogeneous
    relations; :func:`kleinian.cli.run_derive` substitutes values afterwards.
    """
    _check_genus2(curve)
    ctx = AbelianContext(curve.gap_weights)
    eqs = dict(klein_expand(curve, 0))

    e2 = eqs[-2] * Q(-1, 4)
    # x_k^2 - x_k p11 - p12 = 0
    jip2_rhs = MultiPoly.sym(XP) * ctx.wp_poly((1, 1)) + ctx.wp_poly((1, 2))
    if e2 != MultiPoly.sym(XP, 2) - jip2_rhs:
        raise ConventionError("leading Klein order does not give the inversion problem: %s" % e2)

    e1 = eqs[-1] * Q(1, 4)
    # y_k + p112 + x_k p111 = 0
    jip2a_rhs = -(ctx.wp_poly((1, 1, 2)) + MultiPoly.sym(XP) * ctx.wp_poly((1, 1, 1)))
    if e1 != MultiPoly.sym(YP) - jip2a_rhs:
        raise ConventionError("next Klein order does not solve for y_k: %s" % e1)

    e0 = _reduce_point(eqs[0], jip2_rhs, jip2a_rhs)
    linear = MultiPoly.zero()
    const = MultiPoly.zero()
    for mono, c in e0.terms.items():
        deg = dict(factors(mono)).get(XP, 0)
        if deg == 0:
            const = const + MultiPoly.monomial(mono, c)
        elif deg == 1:
            linear = linear + MultiPoly.monomial(monomial_div(mono, XP.unit), c)
        else:
            raise ConventionError("x_k-degree reduction left degree %d" % deg)
    rel_1111 = classify(linear * 2, 4, ctx)
    rel_1112 = classify(const * 2, 6, ctx)
    if rel_1111.cls != FOUR_INDEX or rel_1112.cls != FOUR_INDEX:
        raise ConventionError("Klein orders did not produce four-index solved forms")

    cross = ctx.diff(rel_1111.expr, 2) - ctx.diff(rel_1112.expr, 1)
    rel_w7 = classify(cross, 7, ctx)
    return e2, e1, [rel_1111, rel_1112, rel_w7]
