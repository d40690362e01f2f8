"""Classical expansion engine against the hook-determinant engine."""

import pytest

from kleinian.curves import curve_by_family, CYCLIC_TRIGONAL_34
from kleinian.errors import ConfigError
from kleinian.klein import XP, YP, _reduce_point, jacobi_inversion_extract, klein_expand
from kleinian.poly import MultiPoly, factors, monomial_div, monomial_weight
from kleinian.taucalc import AbelianContext


def test_rejects_trigonal():
    with pytest.raises(ConfigError):
        jacobi_inversion_extract(curve_by_family(CYCLIC_TRIGONAL_34))


def test_inversion_problem_equations(g2):
    ctx = AbelianContext(g2.gap_weights)
    jip2, jip2a, _ = jacobi_inversion_extract(g2)
    xk = MultiPoly.sym(XP)
    yk = MultiPoly.sym(YP)
    assert jip2 == xk * xk - xk * ctx.wp_poly((1, 1)) - ctx.wp_poly((1, 2))
    assert jip2a == yk + ctx.wp_poly((1, 1, 2)) + xk * ctx.wp_poly((1, 1, 1))


def test_klein_equations_hold_for_both_points(g2):
    # the emitted coefficient equations carry a single (x_k, y_k) pair;
    # the leading one factors through the inversion problem for k = 1, 2
    eqs = dict(klein_expand(g2, 0))
    assert -2 in eqs and -1 in eqs and 0 in eqs
    assert not eqs[-2].is_zero()


def test_oracle_agreement_with_hook_engine(g2, g2_db):
    _, _, rels = jacobi_inversion_extract(g2)
    stored = {r.solved_monomial: r for r in g2_db.relations()}
    assert len(rels) == 3
    for r in rels:
        assert r.solved_monomial in stored
        assert stored[r.solved_monomial].expr == r.expr
        assert stored[r.solved_monomial].cls == r.cls


def test_higher_klein_orders_vanish_modulo_the_hook_relations(g2, g2_db):
    # beyond the orders the extraction reads, each Klein equation, with y_k
    # and x_k^2 eliminated by the inversion problem, is linear in x_k; both
    # parts, of weights t + 4 and t + 6, reduce to zero modulo the hook
    # engine's relations (the expansion's integrals and Taylor terms enter
    # only from xi^1 on)
    ctx = AbelianContext(g2.gap_weights)
    xk = MultiPoly.sym(XP)
    jip2_rhs = xk * ctx.wp_poly((1, 1)) + ctx.wp_poly((1, 2))
    jip2a_rhs = -(ctx.wp_poly((1, 1, 2)) + xk * ctx.wp_poly((1, 1, 1)))
    for t, eq in klein_expand(g2, 4):
        if t < 1:
            continue
        parts = {}
        for m, c in _reduce_point(eq, jip2_rhs, jip2a_rhs).terms.items():
            deg = dict(factors(m)).get(XP, 0)
            parts.setdefault(deg, {})[monomial_div(m, XP.unit) if deg else m] = c
        assert sorted(parts) == [0, 1], t
        for deg, terms in parts.items():
            assert {monomial_weight(m) for m in terms} == {t + 6 - 2 * deg}, (t, deg)
            assert g2_db.reduce(MultiPoly(terms)).is_zero(), (t, deg)
