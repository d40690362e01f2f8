"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 1-10 run in the plain suite; criterion 10 derives the genus-2
weight-16 layer and checks it against the Kummer quartic oracle.  All
comparisons are exact - no tolerances anywhere.
"""

import time

import pytest

from jacobian_oracle import cross_differentiate, kummer_quartic, vanishes_on_jacobian
from omega_tables import omega_table_values
from schur_oracle import elementary_schur, jacobi_trudi, power_sum_poly, schur_poly, time_symbol
from plucker_oracle import plucker_relation
from tau_oracle import a_hook, is_zeta_free
from kleinian import cli, tables
from kleinian.cli import run_derive, verify_document
from kleinian.curves import local_expansion, omega_alg, required_expansion_order
from kleinian.engine import (
    FOUR_INDEX, QUAD_THREE_INDEX, QUASILINEAR, QUARTIC_EVEN, RelationDB, classify,
    derive_at_weight,
)
from kleinian.klein import jacobi_inversion_extract
from kleinian.partitions import Partition, all_partitions, enumerate_rank2, transpose_classes
from kleinian.poly import MultiPoly, factors, monomial, monomial_str
from kleinian.rationals import Q
from kleinian.schur import schur_weights
from kleinian.tables import relation_table, trigonal_weight12_quartic
from kleinian.taucalc import TauModel


class Clock:
    def __init__(self, number, limit):
        self.number = number
        self.limit = limit
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if elapsed < self.limit else "FAIL(time)"
        print("%s criterion %-2d (%6.2fs / limit %4.0fs): %s"
              % (verdict, self.number, elapsed, self.limit, detail))
        assert elapsed < self.limit, "criterion %d exceeded %ds" % (self.number, self.limit)


def find(db, pivot_indices=None, weight=None, pivot=None):
    for r in db.relations():
        if weight is not None and r.weight != weight:
            continue
        if pivot is not None and r.solved_monomial != pivot:
            continue
        return r
    return None


def test_criterion_1_weight4_calibration(g2):
    clock = Clock(1, 10)
    model = TauModel.build(g2, 4)
    db = RelationDB(g2)
    rels = derive_at_weight(4, db, model)
    assert len(rels) == 1
    weight, cls, printed = relation_table(g2, model.ctx)[0]
    want = classify(printed, 4, model.ctx)
    assert rels[0].expr == want.expr
    assert rels[0].cls == FOUR_INDEX
    assert rels[0].solved_monomial == want.solved_monomial
    clock.done("p1111 = 6 p11^2 + a4 p11 + 4 p12 + 1/2 a3, exact")


def test_criterion_2_weight5_nullity(g2, g2_model):
    clock = Clock(2, 30)
    db = RelationDB(g2)
    db.add_layer(4, derive_at_weight(4, db, g2_model))
    rels = derive_at_weight(5, db, g2_model)
    assert rels == []
    # every generated row reduces to 0 modulo the closure of KdV_4
    for rep, _tr in transpose_classes(enumerate_rank2(5)):
        row = plucker_relation(rep, g2_model).poly()
        assert db.reduce(row, 5).is_zero()
    clock.done("weight 5 yields no new relations; all rows reduce to 0")


def test_criterion_3_weight6(g2, g2_db):
    clock = Clock(3, 60)
    layer = g2_db.layers[6]
    assert len(layer) == 2
    for weight, cls, printed in relation_table(g2, g2_db.ctx):
        if weight != 6:
            continue
        want = classify(printed, 6, g2_db.ctx)
        got = [r for r in layer if r.solved_monomial == want.solved_monomial]
        assert got and got[0].expr == want.expr and got[0].cls == cls
    clock.done("weight 6 is exactly {KdV_6, Jac_6}, exact coefficients")


def test_criterion_4_weights_7_to_10(g2, g2_db):
    clock = Clock(4, 300)
    ctx = g2_db.ctx
    table = {(w, classify(e, w, ctx).solved_monomial): (cls, classify(e, w, ctx).expr)
             for w, cls, e in relation_table(g2, ctx)}
    # the printed relations of weights 7..10 all appear exactly
    for (w, pivot), (cls, expr) in table.items():
        if w < 7:
            continue
        got = find(g2_db, weight=w, pivot=pivot)
        assert got is not None, "missing %s" % monomial_str(pivot)
        assert got.expr == expr and got.cls == cls
    # layer shape: w7 and w9 single quasilinear, w8 two, w10 three relations
    assert [len(g2_db.layers[w]) for w in (7, 8, 9, 10)] == [1, 2, 1, 3]
    assert g2_db.layers[7][0].cls == QUASILINEAR
    assert g2_db.layers[9][0].cls == QUASILINEAR
    # cross-differentiation reproduces the two quasilinear relations
    crossed = {(r.weight, r.solved_monomial): r.expr for r in cross_differentiate(g2_db)}
    for w in (7, 9):
        stored = g2_db.layers[w][0]
        assert crossed[(w, stored.solved_monomial)] == stored.expr
    clock.done("weights 7-10 match the printed displays; cross-derivation agrees")


def test_criterion_5_kummer_quartic(g2, g2_db):
    clock = Clock(5, 120)
    ctx = g2_db.ctx
    k = kummer_quartic(g2_db)
    assert k.cls == QUARTIC_EVEN and k.weight == 16
    assert is_zeta_free(k.expr) and k.expr.is_homogeneous(16)
    assert all(len(s.indices) <= 2 for m in k.expr.terms for s, _ in factors(m) if s.kind == "wp")
    assert k.expr.coeff(monomial(((ctx.wp((1, 2)), 4),))) == 1
    assert ctx.parity(k.expr) == k.expr
    # the quadratic-form identity reduces to zero through the database
    p111, p112 = ctx.wp_poly(1, 1, 1), ctx.wp_poly(1, 1, 2)
    identity = (p111 * p111) * (p112 * p112) - (p111 * p112) * (p111 * p112)
    assert g2_db.reduce(identity).is_zero()
    # independent check on the symbolic divisor
    assert vanishes_on_jacobian(g2, ctx, k.expr)
    clock.done("Kummer quartic: even, 3-index-free, weight 16, p12^4 present")


def test_criterion_6_trigonal_weights_4_to_6(trig, trig_db):
    clock = Clock(6, 120)
    for weight, cls, printed in relation_table(trig, trig_db.ctx):
        want = classify(printed, weight, trig_db.ctx)
        got = find(trig_db, weight=weight, pivot=want.solved_monomial)
        assert got is not None and got.expr == want.expr and got.cls == cls
    clock.done("trigonal weights 4-6 match the printed displays exactly")


def test_criterion_7_omega_tables(g2, trig):
    clock = Clock(7, 30)
    for curve in (g2, trig):
        tbl = omega_alg(curve, 12, local_expansion(curve, required_expansion_order(curve, 12)))
        for (k, l), expected in omega_table_values(curve):
            assert tbl.entry(k, l) == expected, (curve.family, k, l)
        # family vanishing patterns over the full 12x12 table
        for k in range(12):
            for l in range(12):
                entry = tbl.entry(k, l)
                if curve.family == "hyperelliptic_g2" and (k % 2 or l % 2):
                    assert entry.is_zero()
                if curve.family == "cyclic_trigonal_34" and (k + l) % 3 != 1:
                    assert entry.is_zero()
    clock.done("printed omega values match; vanishing patterns hold on 12x12")


def test_criterion_8_classical_oracle(g2, g2_db):
    clock = Clock(8, 60)
    ctx = g2_db.ctx
    jip2, jip2a, rels = jacobi_inversion_extract(g2)
    from kleinian.klein import XP, YP
    xk, yk = MultiPoly.sym(XP), MultiPoly.sym(YP)
    assert jip2 == xk * xk - xk * ctx.wp_poly(1, 1) - ctx.wp_poly(1, 2)
    assert jip2a == yk + ctx.wp_poly(1, 1, 2) + xk * ctx.wp_poly(1, 1, 1)
    stored = {r.solved_monomial: r for r in g2_db.relations()}
    assert len(rels) == 3
    for r in rels:  # R1111, R1112 and the weight-7 quasilinear relation
        assert stored[r.solved_monomial].expr == r.expr
    assert {r.weight for r in rels} == {4, 6, 7}
    clock.done("Klein expansion reproduces JIP and relations; engines agree")


def test_criterion_9_combinatorial_property_suite(g2_model, g2_db, trig_db):
    clock = Clock(9, 120)
    # Giambelli == Jacobi-Trudi for all partitions of weight <= 12
    for w in range(1, 13):
        for lam in map(Partition, all_partitions(w)):
            assert schur_poly(lam) == jacobi_trudi(lam)
    # the power-sum weights of src, sum_mu W(mu)/n! p_mu, == Jacobi-Trudi, every rank
    for w in range(0, 13):
        for lam in map(Partition, all_partitions(w)):
            assert power_sum_poly(schur_weights(lam, w + 1), w) == jacobi_trudi(lam), lam
    # elementary-Schur recursion for m <= 12
    for m in range(1, 13):
        rhs = MultiPoly.zero()
        for j in range(1, m + 1):
            rhs = rhs + MultiPoly.sym(time_symbol(j), coeff=j) * elementary_schur(m - j)
        assert elementary_schur(m) * m == rhs
    # (the Cauchy-Littlewood truncation to degree 6 runs in test_schur)
    # hyperelliptic transpose identity for all rank-2 partitions of weight <= 10
    for w in range(4, 11):
        for rep, tr in transpose_classes(enumerate_rank2(w)):
            if rep != tr:
                assert (plucker_relation(rep, g2_model).poly()
                        == plucker_relation(tr, g2_model).poly())
    # hook antisymmetry A_(m|n)(u) = -A_(n|m)(-u) for m+n <= 10
    ctx = g2_model.ctx
    for m in range(0, 11):
        for n in range(0, 11 - m):
            assert a_hook(g2_model, m, n) == -ctx.parity(a_hook(g2_model, n, m))
    # weight homogeneity of every derived relation on both curves
    for db in (g2_db, trig_db):
        for r in db.relations():
            assert r.expr.is_homogeneous(r.weight)
    clock.done("Giambelli/JT, power sums/JT, p-recursion, transpose identity, antisymmetry, grading")


@pytest.fixture(scope="module")
def trig_doc12(trig):
    return run_derive(trig, 12)


def test_trigonal_weight12_quartic_lies_in_derived_ideal(trig, trig_doc12):
    # the printed weight-12 quartic is no derived relation, but the layers
    # through weight 12 generate it; verify passes on that
    db = trig_doc12.to_db()
    assert db.reduce(trigonal_weight12_quartic(trig, db.ctx)).is_zero()
    ok, lines = verify_document(trig_doc12)
    assert ok
    assert "PASS weight-12 quartic lies in the derived ideal" in lines


def test_trigonal_weight12_quartic_residual_fails_verify(trig_doc12, tmp_path, monkeypatch,
                                                         capsys):
    # a quartic off by one basic monomial leaves a residual: FAIL, exit 1
    def perturbed(curve, ctx):
        return trigonal_weight12_quartic(curve, ctx) + ctx.wp_poly((1, 1)) ** 6

    monkeypatch.setattr(tables, "trigonal_weight12_quartic", perturbed)
    doc = tmp_path / "trig.json"
    doc.write_text(trig_doc12.to_json())
    assert cli.main(["verify", "--doc", str(doc)]) == 1
    assert "FAIL weight-12 quartic residual has" in capsys.readouterr().out


@pytest.fixture(scope="module")
def g2_doc16(g2):
    return run_derive(g2, 16)


def test_criterion_10_weight16_layer(g2_doc16):
    # weight-16 enumeration: 140 rank-2 partitions in 72 transpose-classes
    parts = enumerate_rank2(16)
    classes = transpose_classes(parts)
    assert len(parts) == 140
    assert len(classes) == 72
    db = g2_doc16.to_db()
    ctx = db.ctx
    layer = db.layers[16]
    for r in layer:
        assert is_zeta_free(r.expr) and r.expr.is_homogeneous(16), r.expr.text()
    solved = {r.solved_monomial: r for r in layer}
    # the derived quartic is the one the quadratic-form identity gives
    kummer = kummer_quartic(db)
    quartic = solved[kummer.solved_monomial]
    assert (quartic.expr, quartic.cls) == (kummer.expr, kummer.cls)
    # beside it the layer solves a quadratic three-index relation for p122*p222
    (p122_p222,) = (ctx.wp_poly(1, 2, 2) * ctx.wp_poly(2, 2, 2)).terms
    assert solved[p122_p222].cls == QUAD_THREE_INDEX
    print("PASS criterion 10: weight-16 classes=%d relations=%d, Kummer quartic and "
          "p122*p222 derived" % (len(classes), len(layer)))
