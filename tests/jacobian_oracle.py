"""Independent genus-2 oracle: evaluate relations on a symbolic divisor.

The inversion problem parameterizes the two-index and the first
three-index symbols by the divisor points (x1, y1), (x2, y2):

    p11 = x1 + x2            p12 = -x1 x2
    p22 = (F(x1, x2) - 2 y1 y2) / (4 (x1 - x2)^2)
    p111 = (y2 - y1)/(x1 - x2)
    p112 = (x2 y1 - x1 y2)/(x1 - x2)

A relation in these five symbols holds on the Jacobian iff, after
clearing (x1 - x2) denominators and reducing y_k^2 by the curve, the
result is the zero polynomial.  Entirely independent of both derivation
engines.

The module also keeps the Kummer quartic built from the quadratic-form
identity, the oracle for the derived weight-16 QUARTIC_EVEN relation, and
the quasilinear relations obtained by cross-differentiating the stored
four-index relations, an independent route to the quasilinear layers.
"""

from kleinian.engine import FOUR_INDEX, QUARTIC_EVEN, Relation, classify
from kleinian.errors import ReductionError
from kleinian.poly import (
    MultiPoly, ScaledPoly, Symbol, factors, monomial, monomial_div, monomial_key, monomial_str,
)
from kleinian.rationals import Q

X1 = Symbol("u1", 2, "aux")
X2 = Symbol("u2", 2, "aux")
Y1 = Symbol("v1", 5, "aux")
Y2 = Symbol("v2", 5, "aux")


def is_basic(mono):
    """Basic monomials: parameters and 2-index p-symbols only."""
    return all(s.kind == "param" or (s.kind == "wp" and len(s.indices) == 2)
               for s, _ in factors(mono))


def _phi(curve, xsym):
    acc = MultiPoly.zero()
    for deg, c in curve.rhs_coeffs().items():
        acc = acc + c * MultiPoly.sym(xsym, deg) if deg else acc + c
    return acc


def _polar_F(curve):
    """F(x1, x2) of the hyperelliptic polar, on the divisor coordinates."""
    ps = {p.name: curve.parameter_poly(p) for p in curve.parameters}
    x, z = MultiPoly.sym(X1), MultiPoly.sym(X2)
    xz = x * z
    return (xz * xz * (x + z) * 4 + xz * xz * ps["a4"] * 2 + xz * (x + z) * ps["a3"]
            + xz * ps["a2"] * 2 + (x + z) * ps["a1"] + ps["a0"] * 2)


def _fractions(curve, ctx):
    """Map wp symbols to (numerator, power of (x1 - x2)) pairs."""
    x1, x2 = MultiPoly.sym(X1), MultiPoly.sym(X2)
    y1, y2 = MultiPoly.sym(Y1), MultiPoly.sym(Y2)
    return {
        ctx.wp((1, 1)): (x1 + x2, 0),
        ctx.wp((1, 2)): (-(x1 * x2), 0),
        ctx.wp((2, 2)): ((_polar_F(curve) - y1 * y2 * 2) * Q(1, 4), 2),
        ctx.wp((1, 1, 1)): (y2 - y1, 1),
        ctx.wp((1, 1, 2)): (x2 * y1 - x1 * y2, 1),
    }


def _reduce_curve(curve, expr: MultiPoly) -> MultiPoly:
    """Rewrite y_k^2 -> phi(x_k) until the y-degrees drop below 2."""
    phi1 = _phi(curve, X1)
    phi2 = _phi(curve, X2)
    for _ in range(64):
        target = None
        for mono in expr.terms:
            for s, e in factors(mono):
                if s in (Y1, Y2) and e >= 2:
                    target = (mono, s)
                    break
            if target:
                break
        if target is None:
            return expr
        mono, s = target
        c = expr.terms[mono]
        rest = monomial_div(mono, monomial(((s, 2),)))
        phi = phi1 if s == Y1 else phi2
        expr = expr - MultiPoly.monomial(mono, c) + MultiPoly.monomial(rest, c) * phi
    raise AssertionError("curve reduction did not terminate")


def vanishes_on_jacobian(curve, ctx, expr: MultiPoly) -> bool:
    """Exact check that a relation in {p11,p12,p22,p111,p112} holds."""
    table = _fractions(curve, ctx)
    diff = MultiPoly.sym(X1) - MultiPoly.sym(X2)
    total_num = MultiPoly.zero()
    total_pow = 0
    for mono, c in expr.terms.items():
        num = MultiPoly.const(c)
        dpow = 0
        for s, e in factors(mono):
            if s.kind == "wp":
                if s not in table:
                    raise AssertionError("no divisor formula for %s" % s.name)
                n, d = table[s]
                num = num * n ** e
                dpow += d * e
            else:
                num = num * MultiPoly.sym(s, e)
        # bring to the common denominator incrementally
        if dpow > total_pow:
            total_num = total_num * diff ** (dpow - total_pow)
            total_pow = dpow
        elif dpow < total_pow:
            num = num * diff ** (total_pow - dpow)
        total_num = total_num + num
    return _reduce_curve(curve, total_num).is_zero()


def kummer_quartic(db) -> Relation:
    """The genus-2 Kummer surface quartic from the three quadratic forms.

    Expands (p111^2)(p112^2) - (p111 p112)^2 = 0 through the stored
    solved forms; the result is an even, 3-index-free quartic in the
    two-index symbols, homogeneous of weight 16, normalized on p12^4.
    """
    ctx = db.ctx
    need = [monomial(((ctx.wp((1, 1, 1)), 2),)),
            monomial(((ctx.wp((1, 1, 2)), 2),)),
            monomial(((ctx.wp((1, 1, 1)), 1), (ctx.wp((1, 1, 2)), 1)))]
    solved = {r.solved_monomial: r for r in db.relations()}
    missing = [monomial_str(m) for m in need if m not in solved]
    if missing:
        raise ReductionError("missing solved forms for the Kummer quartic: %s"
                             % ", ".join(missing))
    r6, r10, r8 = (solved[m] for m in need)
    quartic = r6.rhs * r10.rhs - r8.rhs * r8.rhs
    if quartic.is_zero():
        raise ReductionError("Kummer quartic collapsed to zero")
    p12_4 = monomial(((ctx.wp((1, 2)), 4),))
    c = quartic.coeff(p12_4)
    if c == 0:
        raise ReductionError("Kummer quartic has no p12^4 term")
    norm = quartic * (Q(1) / c)
    if not all(is_basic(m) for m in norm.terms):
        raise ReductionError("Kummer quartic is not basic")
    if not norm.is_homogeneous(16):
        raise ReductionError("Kummer quartic is not weight-16 homogeneous")
    if ctx.parity(norm) != norm:
        raise ReductionError("Kummer quartic is not even")
    return Relation(norm, 16, QUARTIC_EVEN, p12_4, ())


def cross_differentiate(db) -> list[Relation]:
    """Quasilinear relations from mixed-derivative compatibility.

    For stored FOUR_INDEX relations with pivots p_A, p_B and single
    indices j, i such that A+{j} = B+{i}, the difference of derivatives
    d_j(rel_A) - d_i(rel_B) has no 5-index content; after reduction by
    the strictly lower layers it is either zero or a quasilinear
    relation at weight |A| + w_j.
    """
    ctx = db.ctx
    four = [r for r in db.relations() if r.cls == FOUR_INDEX]
    four.sort(key=lambda r: (r.weight, monomial_key(r.solved_monomial)))
    out = []
    seen_exprs = []
    for ia in range(len(four)):
        for ib in range(ia + 1, len(four)):
            ra, rb = four[ia], four[ib]
            A = factors(ra.solved_monomial)[0][0].indices
            B = factors(rb.solved_monomial)[0][0].indices
            for j in range(1, ctx.genus + 1):
                for i in range(1, ctx.genus + 1):
                    if tuple(sorted(A + (j,))) != tuple(sorted(B + (i,))):
                        continue
                    w = ra.weight + ctx.gaps[j - 1]
                    expr = ctx.diff(ra.expr, j) - ctx.diff(rb.expr, i)
                    # the closure below w
                    red = db._grow(w, False).normal_form(ScaledPoly.of(expr)).poly()
                    if red.is_zero():
                        continue
                    rel = classify(red, w, ctx, ())
                    if rel.expr not in seen_exprs:
                        seen_exprs.append(rel.expr)
                        out.append(rel)
    return out
