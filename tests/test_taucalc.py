"""Tau-model calculus: time-derivatives, hooks, parity, the zeta gauge.

The model computes the gauged tau ratio, whose derivatives carry no
zeta: every Plucker row is a Hirota bilinear identity, invariant under
tau -> exp(sum c_k t_k) tau, and that gauge shifts each zeta_i by an
arbitrary constant.  Two zeta-carrying references check it.  The one
below is the direct expansion: a sum over partial matchings of the time
positions (matched pairs give q factors, unmatched positions act as
directional sigma derivatives), whose sigma_J/sigma ratios are then
eliminated through the ladder P_{J+i} = zeta_i P_J + d_i P_J.  The other
is the Leibniz convolution of that ladder with the Wick factor, in
tau_oracle.py.  The model's values are the zeta = 0 parts of both, and
a Plucker row built from either reference has the model row's normal
form.
"""

import os
from collections import Counter
from math import prod

import pytest

from kleinian.curves import parse_spec
from kleinian.engine import RelationDB, derive_range
from kleinian.errors import TruncationError
from kleinian.partitions import all_partitions, enumerate_rank2
from kleinian.poly import MultiPoly, factors, wp_symbol
from kleinian.series import LaurentSeries
from kleinian.taucalc import AbelianContext, TauModel
from plucker_oracle import hook_value, plucker_relation
from schur_oracle import hook_schur
from tau_oracle import ZetaTau, a_hook, is_zeta_free, zeta, zeta_diff, zeta_free_part, zeta_model

CURVE_SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "curve-specs")


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
        cache[J] = zeta(ctx, J[-1]) * prev + zeta_diff(ctx, prev, J[-1])
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


@pytest.mark.parametrize("which, n, count", [("g2", 2, 96), ("trig", 3, 57)])
def test_tau_vanishes_on_a_part_divisible_by_n(request, which, n, count):
    # the premise of folding transpose pairs when n = 2: tau_mu carries
    # only multisets mu with no part divisible by n
    model = TauModel.build(request.getfixturevalue(which), 10)
    divisible = [K for K in time_multisets(10) if any(k % n == 0 for k in K)]
    assert len(divisible) == count
    for K in divisible:
        assert model.tau_t_derivative(K).poly().is_zero(), K


def test_ladder_first_rungs(g2):
    ctx = AbelianContext(g2.gap_weights)
    cache = {}
    z1, z2 = zeta(ctx, 1), zeta(ctx, 2)
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
            rhs = zeta(ctx, i) * ladder(ctx, J, cache) + zeta_diff(ctx, ladder(ctx, J, cache), i)
            assert lhs == rhs


def test_sigma_ratio_reduction(g2):
    ctx = AbelianContext(g2.gap_weights)
    assert ladder_reduce(ctx, {(1,): MultiPoly.one()}, {}) == zeta(ctx, 1)
    assert (ladder_reduce(ctx, {(1, 2): MultiPoly.one()}, {})
            == zeta(ctx, 1) * zeta(ctx, 2) - zp(ctx, 1, 2))


def zeta_free_ladder(ctx, J, cache):
    """The zeta = 0 part of sigma_J / sigma."""
    return zeta_free_part(ladder(ctx, J, cache))


@pytest.mark.parametrize("which, top", [("g2_model", 10), ("trig_model", 6)])
def test_tau_derivative_matches_matching_walk(request, which, top):
    # the gauged derivative is the zeta = 0 part of the matching walk
    model = request.getfixturevalue(which)
    cache = {}
    for K in time_multisets(top):
        assert (model.tau_t_derivative(K).poly()
                == zeta_free_part(reference_tau_derivative(model, K, cache))), K


def test_tau_derivative_first_orders(g2_model):
    ctx, cache = g2_model.ctx, {}
    # sigma_1/sigma = z1 has no zeta-free part
    assert g2_model.tau_t_derivative((1,)).poly() == zeta_free_ladder(ctx, (1,), cache)
    assert g2_model.tau_t_derivative((1,)).poly().is_zero()
    # the t1t1 pairing: sigma_11/sigma = z1^2 - p11 keeps -p11
    assert (g2_model.tau_t_derivative((1, 1)).poly()
            == zeta_free_ladder(ctx, (1, 1), cache) + g2_model.q(1, 1))
    assert zeta_free_ladder(ctx, (1, 1), cache) == -g2_model.ctx.wp_poly(1, 1)
    # mixed t1 t2: R_2 = 0 and q_12 = 0 for the hyperelliptic curve
    assert g2_model.tau_t_derivative((1, 2)).poly().is_zero()


def test_tau_derivative_mixed_trigonal(trig_model):
    d12 = trig_model.tau_t_derivative((1, 2)).poly()
    assert d12 == zeta_free_ladder(trig_model.ctx, (1, 2), {}) + trig_model.q(1, 2)
    assert not trig_model.q(1, 2).is_zero()


def test_pairing_multiplicity(g2_model):
    # t1^4: 3 double pairings and 6 single pairings of four positions
    ctx, cache = g2_model.ctx, {}
    q11 = g2_model.q(1, 1)
    assert g2_model.tau_t_derivative((1, 1, 1, 1)).poly() == (
        zeta_free_ladder(ctx, (1, 1, 1, 1), cache)
        + q11 * 6 * zeta_free_ladder(ctx, (1, 1), cache) + q11 * q11 * 3)


def test_truncation_guard(g2_model):
    with pytest.raises(TruncationError):
        g2_model.tau_t_derivative((g2_model.max_time_index + 1,))
    with pytest.raises(TruncationError):
        hook_value(g2_model, 10, 10)


def test_a_hook_normalization(g2_model, trig_model):
    # A_(m|n) is (-1)^n s_(m|n)(D~) tau / tau, at zeta = 0 of the matching walk;
    # A_(0|0), the zeta = 0 part of +z1, vanishes
    for model in (g2_model, trig_model):
        cache = {}
        assert a_hook(model, 0, 0).is_zero()
        for m, n in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            walk = MultiPoly.zero()
            for mono, coeff in hook_schur(m, n).terms.items():
                times = tuple(s.indices[0] for s, e in factors(mono) for _ in range(e))
                walk = walk + reference_tau_derivative(model, times, cache) * (coeff / prod(times))
            expected = zeta_free_part(walk)
            assert a_hook(model, m, n) == (-expected if n % 2 else expected), (m, n)


def test_a_hook_weight_homogeneity(g2_model):
    for m in range(0, 5):
        for n in range(0, 5 - m):
            h = a_hook(g2_model, m, n)
            assert h.is_homogeneous(m + n + 1)


def test_a_hook_antisymmetry(g2_model, trig_model):
    # A_(m|n)(u) = -A_(n|m)(-u) for all computed hooks with m+n <= 10 / 5
    for model, top in ((g2_model, 10), (trig_model, 5)):
        ctx = model.ctx
        for m in range(0, top + 1):
            for n in range(0, top + 1 - m):
                lhs = a_hook(model, m, n)
                rhs = -ctx.parity(a_hook(model, n, m))
                assert lhs == rhs, (m, n)


def test_hook_sum_difference_split(g2_model):
    # s2 + s11 = t1^2 and s2 - s11 = 2 t2 transfer to hook values
    b10, b01 = hook_value(g2_model, 1, 0).poly(), hook_value(g2_model, 0, 1).poly()
    d11 = g2_model.tau_t_derivative((1, 1)).poly()
    d2 = g2_model.tau_t_derivative((2,)).poly()
    assert b10 + b01 == d11
    assert b10 - b01 == d2
    assert d2.is_zero()  # hyperelliptic: R_2 = 0


def test_parity_involution_examples(g2):
    ctx = AbelianContext(g2.gap_weights)
    odd = zp(ctx, 1, 1, 2)
    assert ctx.parity(odd) == -odd
    both = zp(ctx, 1, 1) * zp(ctx, 1, 2)
    assert ctx.parity(both) == both
    assert ctx.parity(odd + both) == both - odd
    assert ctx.parity(ctx.parity(odd + both)) == odd + both


def unmemoized_diff(ctx, expr, i):
    """d_i with the image of each symbol formed afresh on every use."""
    return expr.derive(lambda s: MultiPoly({wp_symbol(s.indices + (i,), ctx.gaps).unit: 1})
                       if s.kind == "wp" else None)


@pytest.mark.parametrize("which", ["g2", "trig"])
def test_derivative_images_are_memoized(request, monkeypatch, which):
    # d_i equals the derivation with fresh images, and its images are formed
    # once per context: a second pass shares every one of them
    curve = request.getfixturevalue(which)
    ctx = AbelianContext(curve.gap_weights)
    a = curve.parameter_poly(curve.parameters[0])
    exprs = [zp(ctx, 1, 1) ** 3 * a + zp(ctx, 1, 2) * zp(ctx, 1, 1, 1) - a * 7,
             zp(ctx, 1, 1, 1, 1) * zp(ctx, 2, 2) ** 2 + zp(ctx, 1, 2, 2)]
    for i in range(1, ctx.genus + 1):
        for expr in exprs:
            assert ctx.diff(expr, i) == unmemoized_diff(ctx, expr, i), (i, expr.text())
        images = dict(ctx._images[i])
        for expr in exprs:
            ctx.diff(expr, i)
        assert ctx._images[i] == images and all(
            ctx._images[i][s] is image for s, image in images.items())
    # the cumulants of a tau model go through the same derivative
    model = TauModel.build(curve, 8)
    want = {mu: model.tau_t_derivative(mu).poly() for mu in all_partitions(8, curve.n)}
    monkeypatch.setattr(AbelianContext, "diff", unmemoized_diff)
    fresh = TauModel.build(curve, 8)
    for mu, tau in want.items():
        assert fresh.tau_t_derivative(mu).poly() == tau, mu


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


def spec_model(name, weight):
    with open(os.path.join(CURVE_SPECS, name)) as fh:
        return TauModel.build(parse_spec(fh.read()), weight)


@pytest.mark.parametrize("spec, top", [("hyperelliptic_g2.curve", 12),
                                       ("cyclic_trigonal_34.curve", 12),
                                       ("specialized_trigonal.curve", 10)])
def test_moment_recursion_matches_leibniz_oracle(spec, top):
    # every time multiset through the weight: the cumulant/moment recursion
    # is the zeta = 0 part of the sigma ladder times the Wick factor
    model = spec_model(spec, top)
    oracle = ZetaTau(model)
    multisets = time_multisets(top)
    assert len(multisets) == {10: 138, 12: 271}[top]
    for K in multisets:
        assert model.tau_t_derivative(K).poly() == zeta_free_part(oracle.derivative(K)), K


@pytest.mark.parametrize("spec", ["hyperelliptic_g2.curve", "cyclic_trigonal_34.curve"])
def test_rows_are_gauge_invariant(spec):
    # a row built from the zeta-carrying tau ratio has the gauged row's normal
    # form modulo the lower layers: its zeta-coefficients vanish on the Jacobian
    top = 9
    model = spec_model(spec, top)
    carrying = zeta_model(model)
    db = derive_range(RelationDB(model.curve), model, top - 1)
    zeta_rows = 0
    for w in range(4, top + 1):
        index = db._grow(w, False)  # the closure below w
        for lam in enumerate_rank2(w):
            gauged = plucker_relation(lam, model)
            ungauged = plucker_relation(lam, carrying)
            assert is_zeta_free(gauged.poly()), lam.parts
            zeta_rows += not is_zeta_free(ungauged.poly())
            assert (index.normal_form(gauged).poly()
                    == index.normal_form(ungauged).poly()), lam.parts
    assert zeta_rows
