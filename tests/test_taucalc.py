"""Tau-model calculus: ladder, time-derivatives, hooks, parity."""

import pytest

from kleinian.errors import TruncationError
from kleinian.poly import MultiPoly
from kleinian.taucalc import AbelianContext, SigmaDerivExpr, ladder_reduce


def zp(ctx, *idx):
    return ctx.wp_poly(idx)


def test_ladder_first_rungs(g2):
    ctx = AbelianContext(g2.gap_weights)
    z1 = MultiPoly.sym(ctx.zeta(1))
    z2 = MultiPoly.sym(ctx.zeta(2))
    assert ctx.ladder((1,)) == z1
    assert ctx.ladder((1, 2)) == z1 * z2 - zp(ctx, 1, 2)
    expected = (z1 * z2 * z1 - z1 * zp(ctx, 1, 2) - z2 * zp(ctx, 1, 1)
                - z1 * zp(ctx, 1, 2) - zp(ctx, 1, 1, 2))
    assert ctx.ladder((1, 1, 2)) == expected


def test_ladder_commutes_with_differentiation(g2):
    # P_{J+i} = zeta_i P_J + d_i P_J must hold for every insertion order
    ctx = AbelianContext(g2.gap_weights)
    for J in [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2)]:
        for i in (1, 2):
            lhs = ctx.ladder(tuple(sorted(J + (i,))))
            rhs = MultiPoly.sym(ctx.zeta(i)) * ctx.ladder(J) + ctx.diff(ctx.ladder(J), i)
            assert lhs == rhs


def test_sigma_ratio_reduction(g2):
    ctx = AbelianContext(g2.gap_weights)
    e = SigmaDerivExpr(ctx)
    e.add((1,), MultiPoly.one())
    assert ladder_reduce(e) == MultiPoly.sym(ctx.zeta(1))
    e = SigmaDerivExpr(ctx)
    e.add((1, 2), MultiPoly.one())
    assert ladder_reduce(e) == MultiPoly.sym(ctx.zeta(1)) * MultiPoly.sym(ctx.zeta(2)) - zp(ctx, 1, 2)


def test_tau_derivative_first_orders(g2_model):
    ctx = g2_model.ctx
    d1 = g2_model.tau_t_derivative((1,))
    assert d1.parts == {(1,): MultiPoly.one()}
    d11 = g2_model.tau_t_derivative((1, 1))
    assert d11.parts[(1, 1)] == MultiPoly.one()
    assert d11.parts[()] == g2_model.q(1, 1)  # the t1t1 pairing
    # mixed t1 t2: R_2 = 0 and q_12 = 0 for the hyperelliptic curve
    d12 = g2_model.tau_t_derivative((1, 2))
    assert d12.parts == {}


def test_tau_derivative_mixed_trigonal(trig_model):
    d12 = trig_model.tau_t_derivative((1, 2))
    assert d12.parts[(1, 2)] == MultiPoly.one()
    assert d12.parts[()] == trig_model.q(1, 2)
    assert not trig_model.q(1, 2).is_zero()


def test_pairing_multiplicity(g2_model):
    # t1^4: 3 double pairings and 6 single pairings of four positions
    d = g2_model.tau_t_derivative((1, 1, 1, 1))
    q11 = g2_model.q(1, 1)
    assert d.parts[()] == q11 * q11 * 3
    assert d.parts[(1, 1)] == q11 * 6
    assert d.parts[(1, 1, 1, 1)] == MultiPoly.one()


def test_truncation_guard(g2_model):
    with pytest.raises(TruncationError):
        g2_model.tau_t_derivative((g2_model.max_time_index + 1,))
    with pytest.raises(TruncationError):
        g2_model.a_hook(10, 10)


def test_a_hook_normalization(g2_model, trig_model):
    for model in (g2_model, trig_model):
        assert model.a_hook(0, 0) == MultiPoly.sym(model.ctx.zeta(1))


def test_a_hook_weight_homogeneity(g2_model):
    for m in range(0, 5):
        for n in range(0, 5 - m):
            h = g2_model.a_hook(m, n)
            assert h.is_homogeneous(m + n + 1)


def test_a_hook_antisymmetry(g2_model, trig_model):
    # A_(m|n)(u) = -A_(n|m)(-u) for all computed hooks with m+n <= 10 / 5
    for model, top in ((g2_model, 10), (trig_model, 5)):
        ctx = model.ctx
        for m in range(0, top + 1):
            for n in range(0, top + 1 - m):
                lhs = model.a_hook(m, n)
                rhs = -ctx.parity(model.a_hook(n, m))
                assert lhs == rhs, (m, n)


def test_hook_sum_difference_split(g2_model):
    # s2 + s11 = t1^2 and s2 - s11 = 2 t2 transfer to hook values
    b10, b01 = g2_model.hook(1, 0), g2_model.hook(0, 1)
    d11 = g2_model.tau_t_derivative_abelian((1, 1))
    d2 = g2_model.tau_t_derivative_abelian((2,))
    assert b10 + b01 == d11
    assert b10 - b01 == d2
    assert d2.is_zero()  # hyperelliptic: R_2 = 0


def test_parity_involution_examples(g2):
    ctx = AbelianContext(g2.gap_weights)
    z1 = MultiPoly.sym(ctx.zeta(1))
    assert ctx.parity(z1) == -z1
    assert ctx.parity(zp(ctx, 1, 1, 2)) == -zp(ctx, 1, 1, 2)
    both = zp(ctx, 1, 1) * zp(ctx, 1, 2)
    assert ctx.parity(both) == both
    assert ctx.parity(ctx.parity(z1 + both)) == z1 + both
