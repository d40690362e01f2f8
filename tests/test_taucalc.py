"""Tau-model calculus: time-derivatives, hooks, parity.

The reference implementation below is the direct expansion that the
model's Leibniz/Wick recursions replace: a sum over partial matchings of
the time positions (matched pairs give q factors, unmatched positions
act as directional sigma derivatives), whose sigma_J/sigma ratios are then
eliminated through the ladder P_{J+i} = zeta_i P_J + d_i P_J.
"""

from collections import Counter

import pytest

from kleinian.errors import TruncationError
from kleinian.poly import MultiPoly
from kleinian.series import LaurentSeries
from kleinian.taucalc import AbelianContext, TauModel


def zp(ctx, *idx):
    return ctx.wp_poly(idx)


# -- reference oracle: partial matchings and the sigma ladder ------------------

def ladder(ctx, J, cache):
    """sigma_J / sigma as a polynomial in zeta and p symbols."""
    J = tuple(sorted(J))
    if not J:
        return MultiPoly.one()
    if J not in cache:
        prev = ladder(ctx, J[:-1], cache)
        cache[J] = MultiPoly.sym(ctx.zeta(J[-1])) * prev + ctx.diff(prev, J[-1])
    return cache[J]


def ladder_reduce(ctx, parts, cache):
    """Eliminate the formal ratios sigma_J/sigma of {J: coefficient}."""
    out = MultiPoly.zero()
    for J, coeff in parts.items():
        out = out + coeff * ladder(ctx, J, cache)
    return out


def directional(model, times, scale, parts):
    """Add prod_k (sum_i (R_k)_i d/du_i) sigma / sigma, times scale, into parts."""
    states = {(): scale}
    for k in times:
        nxt = {}
        for J, coeff in states.items():
            for i in range(1, model.ctx.genus + 1):
                r = model.winding.entry(k, i)
                if r.is_zero():
                    continue
                J2 = tuple(sorted(J + (i,)))
                nxt[J2] = nxt.get(J2, MultiPoly.zero()) + coeff * r
        states = nxt
    for J, coeff in states.items():
        parts[J] = parts.get(J, MultiPoly.zero()) + coeff


def reference_tau_derivative(model, times, cache):
    """d^|K|/dt_K of the tau ratio at t = 0 by the partial-matching walk."""
    parts = {}

    def walk(rest, qfactor, unmatched):
        if not rest:
            directional(model, unmatched, qfactor, parts)
            return
        head, tail = rest[0], rest[1:]
        walk(tail, qfactor, unmatched + (head,))
        # positions stay distinguished, so equal values pair with multiplicity
        for pos, val in enumerate(tail):
            qv = model.q(head, val)
            if not qv.is_zero():
                walk(tail[:pos] + tail[pos + 1:], qfactor * qv, unmatched)

    walk(tuple(sorted(times)), MultiPoly.one(), ())
    return ladder_reduce(model.ctx, parts, cache)


def time_multisets(weight):
    """Sorted time multisets (partitions) of total weight 1..weight."""
    def parts(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield rest + (k,)

    return [K for n in range(1, weight + 1) for K in parts(n, n)]


def test_ladder_first_rungs(g2):
    ctx = AbelianContext(g2.gap_weights)
    cache = {}
    z1 = MultiPoly.sym(ctx.zeta(1))
    z2 = MultiPoly.sym(ctx.zeta(2))
    assert ladder(ctx, (1,), cache) == z1
    assert ladder(ctx, (1, 2), cache) == z1 * z2 - zp(ctx, 1, 2)
    expected = (z1 * z2 * z1 - z1 * zp(ctx, 1, 2) - z2 * zp(ctx, 1, 1)
                - z1 * zp(ctx, 1, 2) - zp(ctx, 1, 1, 2))
    assert ladder(ctx, (1, 1, 2), cache) == expected


def test_ladder_commutes_with_differentiation(g2):
    # P_{J+i} = zeta_i P_J + d_i P_J must hold for every insertion order
    ctx = AbelianContext(g2.gap_weights)
    cache = {}
    for J in [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2)]:
        for i in (1, 2):
            lhs = ladder(ctx, J + (i,), cache)
            rhs = MultiPoly.sym(ctx.zeta(i)) * ladder(ctx, J, cache) + ctx.diff(ladder(ctx, J, cache), i)
            assert lhs == rhs


def test_sigma_ratio_reduction(g2):
    ctx = AbelianContext(g2.gap_weights)
    assert ladder_reduce(ctx, {(1,): MultiPoly.one()}, {}) == MultiPoly.sym(ctx.zeta(1))
    assert (ladder_reduce(ctx, {(1, 2): MultiPoly.one()}, {})
            == MultiPoly.sym(ctx.zeta(1)) * MultiPoly.sym(ctx.zeta(2)) - zp(ctx, 1, 2))


@pytest.mark.parametrize("which, top", [("g2_model", 10), ("trig_model", 6)])
def test_tau_derivative_matches_matching_walk(request, which, top):
    model = request.getfixturevalue(which)
    cache = {}
    for K in time_multisets(top):
        assert model.tau_t_derivative(K).poly() == reference_tau_derivative(model, K, cache), K


def test_tau_derivative_first_orders(g2_model):
    ctx, cache = g2_model.ctx, {}
    assert g2_model.tau_t_derivative((1,)).poly() == ladder(ctx, (1,), cache)
    # the t1t1 pairing
    assert (g2_model.tau_t_derivative((1, 1)).poly()
            == ladder(ctx, (1, 1), cache) + g2_model.q(1, 1))
    # mixed t1 t2: R_2 = 0 and q_12 = 0 for the hyperelliptic curve
    assert g2_model.tau_t_derivative((1, 2)).poly().is_zero()


def test_tau_derivative_mixed_trigonal(trig_model):
    d12 = trig_model.tau_t_derivative((1, 2)).poly()
    assert d12 == ladder(trig_model.ctx, (1, 2), {}) + trig_model.q(1, 2)
    assert not trig_model.q(1, 2).is_zero()


def test_pairing_multiplicity(g2_model):
    # t1^4: 3 double pairings and 6 single pairings of four positions
    ctx, cache = g2_model.ctx, {}
    q11 = g2_model.q(1, 1)
    assert g2_model.tau_t_derivative((1, 1, 1, 1)).poly() == (
        ladder(ctx, (1, 1, 1, 1), cache) + q11 * 6 * ladder(ctx, (1, 1), cache) + q11 * q11 * 3)


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
    b10, b01 = g2_model.hook(1, 0).poly(), g2_model.hook(0, 1).poly()
    d11 = g2_model.tau_t_derivative((1, 1)).poly()
    d2 = g2_model.tau_t_derivative((2,)).poly()
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


@pytest.mark.parametrize("which, exponents", [("g2", 3), ("trig", 4)])
def test_build_runs_each_y_power_once(request, monkeypatch, which, exponents):
    # differentials and the omega table share y^(-1/n) (and y^(-2/3) on the
    # trigonal curve): Miller's recurrence must run once per exponent
    seen = Counter()
    unit_power = LaurentSeries.unit_power

    def counting(self, alpha):
        seen[alpha] += 1
        return unit_power(self, alpha)

    monkeypatch.setattr(LaurentSeries, "unit_power", counting)
    TauModel.build(request.getfixturevalue(which), 8)
    assert len(seen) == exponents
    assert set(seen.values()) == {1}
