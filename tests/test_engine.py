"""Relation engine: layers, reduction, elimination, classification, Kummer."""

import pytest
from hypothesis import given, settings, strategies as st

from closure_oracle import closure as oracle_closure
from jacobian_oracle import cross_differentiate, is_basic, kummer_quartic, vanishes_on_jacobian
from monomial_oracle import tuple_divides
from plucker_oracle import plucker_relation, schur_apply
from schur_oracle import hook_schur, schur_poly
from solve_oracle import linear_solve as oracle_solve
from tau_oracle import is_zeta_free, zeta
from kleinian import engine
from kleinian.engine import (
    FOUR_INDEX, QUAD_THREE_INDEX, QUARTIC_EVEN, QUASILINEAR, PivotIndex, Relation,
    RelationDB, _basic_relations, classify, column_of, derive_at_weight, derive_range,
    layer_rows, linear_solve,
)
from kleinian.errors import InconsistentSystemError, ReductionError
from kleinian.partitions import Partition, all_partitions, enumerate_rank2, transpose_classes
from kleinian.poly import (
    MultiPoly, ScaledPoly, add_terms, factors, monomial, monomial_div, monomial_key,
    monomial_mul, monomial_str, monomial_weight, param,
)
from kleinian.rationals import Q
from kleinian.schur import pair_weights, schur_weights
from kleinian.tables import relation_table
from kleinian.taucalc import TauModel


def normalized(db, expr, weight):
    return classify(expr, weight, db.ctx)


def by_weight(db, w):
    return db.layers.get(w, [])


def index_of(rules):
    """A pivot index over rules with rational right-hand sides."""
    index = PivotIndex()
    index.add({pivot: ScaledPoly.of(rhs) for pivot, rhs in rules.items()})
    return index


def nf(index, expr):
    """The normal form of a rational polynomial under an index, as one."""
    return index.normal_form(ScaledPoly.of(expr)).poly()


def grown_closure(db, w, include_equal=True):
    """(rules, collision rows) of db's closure at (w, include_equal), the
    right-hand sides and rows as rational polynomials."""
    index = db._grow(w, include_equal)
    return ({pivot: rhs.poly() for pivot, rhs in index.rhss.items()},
            [row.poly() for row in db._collision_rows()])


def split(expr, source=()):
    """A rational row split into the integer columns linear_solve takes."""
    return engine._split_row(ScaledPoly.of(expr), source)


# -- layer content against the printed tables ---------------------------------

def test_genus2_layers_match_printed_relations(g2, g2_db):
    expected = relation_table(g2, g2_db.ctx)
    for weight, cls, expr in expected:
        want = classify(expr, weight, g2_db.ctx)
        got = [r for r in by_weight(g2_db, weight)
               if r.solved_monomial == want.solved_monomial]
        assert got, "missing relation for %s at weight %d" % (
            monomial_str(want.solved_monomial), weight)
        assert got[0].expr == want.expr
        assert got[0].cls == cls


def test_genus2_weight5_is_empty(g2_db):
    assert by_weight(g2_db, 5) == []


def test_genus2_layer_sizes(g2_db):
    assert len(by_weight(g2_db, 4)) == 1
    assert len(by_weight(g2_db, 6)) == 2
    assert len(by_weight(g2_db, 7)) == 1
    assert len(by_weight(g2_db, 8)) == 2
    assert len(by_weight(g2_db, 9)) == 1
    assert len(by_weight(g2_db, 10)) == 3


def test_trigonal_layers_match_printed_relations(trig, trig_db):
    for weight, cls, expr in relation_table(trig, trig_db.ctx):
        want = classify(expr, weight, trig_db.ctx)
        got = [r for r in by_weight(trig_db, weight)
               if r.solved_monomial == want.solved_monomial]
        assert got and got[0].expr == want.expr and got[0].cls == cls


def test_all_relations_zeta_free_homogeneous_parity(g2_db, trig_db):
    for db in (g2_db, trig_db):
        for r in db.relations():
            assert is_zeta_free(r.expr)
            assert r.expr.is_homogeneous(r.weight)
            im = db.ctx.parity(r.expr)
            assert im == r.expr or im == -r.expr


# -- reduction ----------------------------------------------------------------

def test_reduce_self_to_zero(g2_db):
    kdv4 = by_weight(g2_db, 4)[0]
    assert g2_db.reduce(kdv4.expr).is_zero()


def test_reduce_derivative_closure_consistency(g2_db):
    # d_i of any stored FOUR_INDEX relation reduces to 0 once the layer
    # at weight |R| + w_i is complete
    ctx = g2_db.ctx
    for r in g2_db.relations():
        if r.cls != FOUR_INDEX:
            continue
        for i in (1, 2):
            w = r.weight + ctx.gaps[i - 1]
            if w > 10:
                continue
            assert g2_db.reduce(ctx.diff(r.expr, i), w).is_zero()


def test_reduce_kummer_identity_input_is_zero(g2_db):
    ctx = g2_db.ctx
    p111sq = ctx.wp_poly((1, 1, 1)) ** 2
    p112sq = ctx.wp_poly((1, 1, 2)) ** 2
    cross = ctx.wp_poly((1, 1, 1)) * ctx.wp_poly((1, 1, 2))
    expr = p111sq * p112sq - cross * cross
    assert g2_db.reduce(expr).is_zero()


def test_reduce_quartic_products_consistently(g2_db):
    # reducing p111^2 * p112^2 and (p111 p112)^2 separately must agree
    ctx = g2_db.ctx
    a = g2_db.reduce(ctx.wp_poly((1, 1, 1)) ** 2) * \
        0 + g2_db.reduce(ctx.wp_poly((1, 1, 1)) ** 2 * ctx.wp_poly((1, 1, 2)) ** 2)
    b = g2_db.reduce((ctx.wp_poly((1, 1, 1)) * ctx.wp_poly((1, 1, 2))) ** 2)
    assert a == b


# -- pivot index against the linear scan it replaces ----------------------------

def scan_pivot(mono, rules, skip=None):
    """Reference: scan every rule, keep the largest dividing pivot."""
    mw = monomial_weight(mono)
    best = None
    for pivot in rules:
        if pivot == skip or monomial_weight(pivot) > mw:
            continue
        if tuple_divides(factors(pivot), factors(mono)):
            if best is None or monomial_key(pivot) > monomial_key(best):
                best = pivot
    return best


@pytest.fixture(scope="module")
def g2_rules(g2_db):
    """The weight-10 closure rules, their pivots and every symbol they use."""
    rules, _ = grown_closure(g2_db, 10)
    pivots = sorted(rules, key=monomial_key)
    symbols = sorted({s for p in pivots for s, _ in factors(p)}
                     | {s for rhs in rules.values() for m in rhs.terms for s, _ in factors(m)})
    return rules, pivots, symbols


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pivot_index_matches_linear_scan(g2_rules, data):
    rules, pivots, symbols = g2_rules
    exps = data.draw(st.dictionaries(st.sampled_from(symbols), st.integers(1, 3),
                                     max_size=5))
    mono = monomial(exps.items())
    if data.draw(st.booleans()):
        # a multiple of a pivot, so that some rule surely applies
        mono = monomial_mul(mono, data.draw(st.sampled_from(pivots)))
    index = index_of(rules)
    want = scan_pivot(mono, rules)
    assert index.find(mono) == want


# -- the integer kernel against the rational code it replaces -------------------

def reference_reduce(expr, rules, skip=None, bound=400):
    """Reference: the pass loop over rational coefficients, pivots by linear scan.

    skip leaves one pivot out, as the closure inter-reduction once did.
    """
    pivots = {}
    for _ in range(bound):
        changed = False
        out = {}
        for mono, c in expr.terms.items():
            if mono not in pivots:
                pivots[mono] = scan_pivot(mono, rules, skip)
            pivot = pivots[mono]
            if pivot is None:
                add_terms(out, ((mono, c),))
            else:
                changed = True
                cofactor = monomial_div(mono, pivot)
                add_terms(out, ((monomial_mul(cofactor, m), c * rc)
                                for m, rc in rules[pivot].terms.items()))
        expr = MultiPoly(out)
        if not changed:
            return expr
    raise ReductionError("reduction did not terminate within the pass bound")


def reference_apply(model, time_poly):
    """Reference: s(D~) tau / tau summed over rational coefficients."""
    acc = MultiPoly.zero()
    for mono, coeff in time_poly.terms.items():
        times, scale = [], Q(1)
        for s, e in factors(mono):
            times.extend([s.indices[0]] * e)
            scale *= Q(1, s.indices[0]) ** e
        acc = acc + model.tau_t_derivative(tuple(times)).poly() * (coeff * scale)
    return acc


def reference_plucker(lam, model):
    """Reference: the row assembled from rational hook values."""
    (a1, a2), (b1, b2) = lam.frobenius()

    def h(a, b):
        return reference_apply(model, hook_schur(a, b))

    return (reference_apply(model, schur_poly(lam))
            - (h(a1, b1) * h(a2, b2) - h(a1, b2) * h(a2, b1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduction_matches_rational_reference(g2, g2_db, g2_rules, data):
    # non-integral coefficients, parameter and zeta cofactors, half the
    # terms multiples of a pivot; weight at most 16 keeps the normal forms
    # to a few hundred terms
    rules, pivots, symbols = g2_rules
    cofactors = [g2.parameter_poly(a) for a in g2.parameters] + [
        zeta(g2_db.ctx, i) for i in (1, 2)]
    expr = MultiPoly.zero()
    for _ in range(data.draw(st.integers(1, 6))):
        exps = data.draw(st.dictionaries(st.sampled_from(symbols), st.integers(1, 2),
                                         max_size=3))
        mono = monomial(exps.items())
        if data.draw(st.booleans()):
            mono = monomial_mul(mono, data.draw(st.sampled_from(pivots)))
        if monomial_weight(mono) > 16:
            continue
        coeff = Q(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 30)))
        term = MultiPoly.monomial(mono, coeff)
        for c in data.draw(st.lists(st.sampled_from(cofactors), max_size=2)):
            term = term * c
        expr = expr + term
    assert nf(index_of(rules), expr) == reference_reduce(expr, rules)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoized_reduction_matches_rational_reference(g2_db, g2_rules, data):
    # the closure's memo of normal forms outlives each example, so later
    # draws reuse normal forms memoized by earlier ones
    rules, pivots, symbols = g2_rules
    expr = MultiPoly.zero()
    for _ in range(data.draw(st.integers(1, 6))):
        exps = data.draw(st.dictionaries(st.sampled_from(symbols), st.integers(1, 2),
                                         max_size=3))
        mono = monomial_mul(monomial(exps.items()), data.draw(st.sampled_from(pivots)))
        if monomial_weight(mono) <= 16:
            coeff = Q(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 30)))
            expr = expr + MultiPoly.monomial(mono, coeff)
    assert g2_db.reduce(expr, 10) == reference_reduce(expr, rules)


def chain_symbols(count):
    return [param("chain%d" % i, 1) for i in range(count)]


def assert_memo_matches_fresh_index(index):
    # every memoized NF(m) is the normal form a fresh index over the same
    # rules computes (None: m is irreducible)
    fresh = PivotIndex()
    fresh.add(index.rhss)
    for m, got in index.memo.items():
        want = fresh.normal_form(ScaledPoly(1, {m: 1})).poly()
        assert want == (MultiPoly.monomial(m) if got is None else got.poly()), monomial_str(m)


@pytest.mark.parametrize("which", ["g2_model", "trig_model10"])
def test_block_sweep_keeps_memoized_forms_fresh(request, which):
    # the closure grows by weight blocks, each swept without emptying the
    # memo: before the layer's rows, after them, and after the stored
    # relations of the layer are swept in, every memoized form is fresh
    model = request.getfixturevalue(which)
    db = RelationDB(model.curve)
    for w in range(4, 11):
        assert_memo_matches_fresh_index(db._grow(w, False))
        rels = derive_at_weight(w, db, model)
        assert_memo_matches_fresh_index(db._grow(w, False))
        db.add_layer(w, rels)
        index = db._grow(w, True)
        assert index.memo, w
        assert_memo_matches_fresh_index(index)


def test_adding_a_pivot_drops_the_forms_of_its_weight_and_above(g2_db):
    rules, _ = grown_closure(g2_db, 10)
    index = index_of(rules)
    p11 = g2_db.ctx.wp((1, 1)).unit
    for pivot in rules:
        index.normal_form(ScaledPoly(1, {monomial_mul(pivot, p11): 1}))
    before = dict(index.memo)
    new, _ = grown_closure(g2_db, 11, include_equal=False)
    pivot = min((p for p in new if p not in rules), key=monomial_key)
    w = monomial_weight(pivot)
    assert {monomial_weight(m) for m in before} >= {w - 1, w, w + 1}
    index.add({pivot: ScaledPoly.of(new[pivot])})
    assert index.memo.keys() == {m for m in before if monomial_weight(m) < w}
    assert all(index.memo[m] is before[m] for m in index.memo)


def test_cyclic_rules_raise_reduction_error():
    a, b = chain_symbols(2)
    rules = {a.unit: MultiPoly.sym(b), b.unit: MultiPoly.sym(a)}
    with pytest.raises(ReductionError):
        nf(index_of(rules), MultiPoly.sym(a))


def test_long_rule_chain_reduces_without_recursion():
    # 1500 rules deep: beyond both the pass bound and Python's recursion limit
    syms = chain_symbols(1501)
    rules = {s.unit: MultiPoly.sym(t, coeff=2) for s, t in zip(syms, syms[1:])}
    assert nf(index_of(rules), MultiPoly.sym(syms[0])) == \
        MultiPoly.sym(syms[-1], coeff=2 ** 1500)


@pytest.fixture(scope="module")
def trig_model8(trig):
    return TauModel.build(trig, 8)


@pytest.fixture(scope="module")
def trig_model10(trig):
    return TauModel.build(trig, 10)


@pytest.fixture(scope="module")
def trig_db8(trig, trig_model8):
    return derive_range(RelationDB(trig), trig_model8, 8)


@pytest.mark.parametrize("which, top", [("g2_db", 10), ("trig_db8", 8)])
def test_closure_is_inter_reduced_in_one_sweep(request, which, top):
    # the one sweep reaches the fixed point of the pass loop it replaced:
    # each right-hand side is irreducible under every rule but its own, and
    # under its own too
    rules, _ = grown_closure(request.getfixturevalue(which), top)
    index = index_of(rules)
    for pivot, rhs in rules.items():
        assert reference_reduce(rhs, rules, skip=pivot) == rhs, monomial_str(pivot)
        assert all(index.find(m) is None for m in rhs.terms), monomial_str(pivot)


def test_transpose_pairs_combine_after_reduction(trig, trig_model10):
    # a trigonal layer forms NF(a) +- NF(b) for a transpose pair: the normal
    # form is linear, so these are NF(a +- b), also under a fresh memo.  The
    # two rows differ (only for n = 2 are they equal and folded)
    model = trig_model10
    db = derive_range(RelationDB(trig), model, 9)
    for w in range(8, 11):
        index = db._grow(w, False)
        fresh = PivotIndex()
        fresh.add(index.rhss)
        for rep, tr in transpose_classes(enumerate_rank2(w)):
            if rep == tr:
                continue
            a, b = plucker_relation(rep, model).poly(), plucker_relation(tr, model).poly()
            assert a != b, rep.parts
            ra, rb = (nf(index, x) for x in (a, b))
            for combined, expr in ((ra + rb, a + b), (ra - rb, a - b)):
                assert combined == nf(index, expr), rep.parts
                assert combined == nf(fresh, expr), rep.parts


@pytest.mark.parametrize("which, top", [("g2_model", 10), ("trig_model8", 8)])
def test_plucker_rows_match_rational_reference(request, which, top):
    model = request.getfixturevalue(which)
    for w in range(4, top + 1):
        for lam in enumerate_rank2(w):
            assert plucker_relation(lam, model).poly() == reference_plucker(lam, model), lam.parts


@pytest.mark.parametrize("which", ["g2_model", "trig_model10"])
def test_schur_apply_matches_rational_expansion(request, which):
    # the integer character weights against the rational Schur polynomial
    # expanded term by term, for every hook and rank-2 partition through weight 10
    model = request.getfixturevalue(which)
    for w in range(1, 11):
        for lam in map(Partition, all_partitions(w)):
            if lam.rank <= 2:
                got = schur_apply(model, lam).poly()
                assert got == reference_apply(model, schur_poly(lam)), lam.parts


# -- layer rows from reduced tau-derivatives -----------------------------------

@pytest.mark.parametrize("which", ["g2_model", "trig_model10"])
def test_layer_rows_are_normal_forms_of_unreduced_rows(request, which):
    # each row the layer assembles from NF(tau_mu) and reduces once is the
    # normal form of the unreduced Plucker row under a fresh index; a
    # trigonal transpose pair gives the same +- combinations
    model = request.getfixturevalue(which)
    fold = model.curve.n == 2
    db = RelationDB(model.curve)
    for w in range(4, 11):
        rules, _ = grown_closure(db, w, include_equal=False)
        fresh = index_of(rules)

        def reduced(lam):
            return nf(fresh, plucker_relation(lam, model).poly())

        want = []
        for rep, tr in transpose_classes(enumerate_rank2(w)):
            if fold or rep == tr:
                want.append(((rep,), reduced(rep)))
            else:
                a, b = reduced(rep), reduced(tr)
                want += [((rep, tr), a + b), ((rep, tr), a - b)]
        want = [(src, row) for src, row in want if not row.is_zero()]
        assert [(src, row.poly()) for src, row in layer_rows(w, db, model) if src] == want, w
        db.add_layer(w, derive_at_weight(w, db, model))


def test_trigonal_layer_forms_weights_for_one_member_of_each_pair(trig, monkeypatch):
    # a transpose pair's rows are summed from its representative's Schur and
    # pair weights, split by the sign of each class: through weight 10 the
    # layers ask schur_weights and pair_weights once for each pair
    # representative and each self-conjugate partition, and never for a
    # pair's other member
    asked = {"schur_weights": [], "pair_weights": []}
    for name in asked:
        def spy(lam, n, name=name, weights=getattr(engine, name)):
            asked[name].append(lam)
            return weights(lam, n)

        monkeypatch.setattr(engine, name, spy)
    derive_range(RelationDB(trig), TauModel.build(trig, 10), 10)
    classes = [c for w in range(4, 11) for c in transpose_classes(enumerate_rank2(w))]
    assert any(rep == tr for rep, tr in classes) and any(rep != tr for rep, tr in classes)
    for name, lams in asked.items():
        assert (sorted(lam.parts for lam in lams if lam.rank == 2)
                == sorted(rep.parts for rep, _ in classes)), name


@pytest.mark.parametrize("which", ["g2_model", "trig_model10"])
def test_each_tau_derivative_is_reduced_once_per_layer(request, which, monkeypatch):
    # a layer reduces each tau_mu it needs once, and it needs exactly the mu
    # of the full weights with no part divisible by n: a fresh model of the
    # fixture's curve builds no cumulant or moment with such a part
    curve = request.getfixturevalue(which).curve
    model, n = TauModel.build(curve, 10), curve.n
    seen = []  # every argument, kept alive so that identities stay unique
    normal_form = PivotIndex.normal_form

    def spy(index, expr):
        seen.append(expr)
        return normal_form(index, expr)

    monkeypatch.setattr(PivotIndex, "normal_form", spy)
    db = RelationDB(model.curve)
    for w in range(4, 11):
        del seen[:]
        db.add_layer(w, derive_at_weight(w, db, model))
        key_of = {id(v): k for k, v in model._moments.items()}
        reduced = [key_of[id(e)] for e in seen if id(e) in key_of]
        assert len(reduced) == len(set(reduced)), w
        assert set(reduced) == {tuple(sorted(mu)) for lam in enumerate_rank2(w)
                                for mu in schur_weights(lam, w + 1)
                                if all(k % n for k in mu)}, w
    assert all(k % n for K in model._moments for k in K)
    assert all(k % n for A in model._kappa for k in A)


def test_tau_normal_forms_are_dropped_with_the_layer_closure(g2, g2_model, monkeypatch):
    db = derive_range(RelationDB(g2), g2_model, 7)
    rels = derive_at_weight(8, db, g2_model)
    memo = db._tau[g2_model]
    assert memo
    db.add_layer(8, rels)
    assert not db._tau
    calls = []
    normal_form = PivotIndex.normal_form
    monkeypatch.setattr(PivotIndex, "normal_form",
                        lambda index, expr: calls.append(expr) or normal_form(index, expr))
    tau, _ = db.layer_reduction(8, g2_model)
    del calls[:]  # a sweep, had the closure grown
    mu = next(iter(memo))
    assert tau(mu).poly() == memo[mu].poly()
    tau(mu)
    assert len(calls) == 1
    assert db._tau[g2_model] is not memo


@pytest.mark.parametrize("which", ["g2_model", "trig_model10"])
def test_each_pair_product_is_reduced_once_per_layer(request, which, monkeypatch):
    # a layer reduces the product tau_mu tau_nu of each class pair it needs
    # once, and it needs exactly the pairs of the hook determinants' weights
    curve = request.getfixturevalue(which).curve
    model, n = TauModel.build(curve, 10), curve.n
    seen, made = [], []  # kept alive, so that identities stay unique
    pair_of = {}
    normal_form, products = PivotIndex.normal_form, engine.scaled_products

    def spy(index, expr):
        seen.append(expr)
        return normal_form(index, expr)

    def product_spy(triples):
        (c, a, b), = triples
        key_of = {id(v): k for k, v in model._moments.items()}
        got = products(((c, a, b),))
        made.append(got)
        pair_of[id(got)] = (key_of[id(a)], key_of[id(b)])
        return got

    monkeypatch.setattr(PivotIndex, "normal_form", spy)
    monkeypatch.setattr(engine, "scaled_products", product_spy)
    db = RelationDB(model.curve)
    for w in range(4, 11):
        del seen[:], made[:]
        pair_of.clear()
        db.add_layer(w, derive_at_weight(w, db, model))
        reduced = [pair_of[id(e)] for e in seen if id(e) in pair_of]
        assert len(reduced) == len(pair_of) == len(set(reduced)), w
        assert set(reduced) == {(tuple(sorted(mu)), tuple(sorted(nu)))
                                for lam in enumerate_rank2(w)
                                for mu, nu in pair_weights(lam, n)}, w


def test_pair_normal_forms_are_dropped_with_the_layer_closure(g2, g2_model, monkeypatch):
    # NF(tau_mu tau_nu) is the normal form of the product of the derivatives
    # themselves, kept beside NF(tau_mu) and dropped with it
    db = derive_range(RelationDB(g2), g2_model, 7)
    rels = derive_at_weight(8, db, g2_model)
    memo = db._tau[g2_model]
    pairs = [c for c in memo if len(c) == 2]
    assert pairs and len(pairs) < len(memo)
    fresh = index_of(grown_closure(db, 8, include_equal=False)[0])
    d = g2_model.tau_t_derivative
    for mu, nu in pairs:
        assert memo[mu, nu].poly() == nf(fresh, d(mu).poly() * d(nu).poly()), (mu, nu)
    db.add_layer(8, rels)
    assert not db._tau
    calls = []
    normal_form = PivotIndex.normal_form
    monkeypatch.setattr(PivotIndex, "normal_form",
                        lambda index, expr: calls.append(expr) or normal_form(index, expr))
    tau, _ = db.layer_reduction(8, g2_model)
    del calls[:]  # a sweep, had the closure grown
    pair = pairs[-1]
    assert tau(pair).poly() == memo[pair].poly()
    tau(pair)
    assert len(calls) == 1
    assert db._tau[g2_model] is not memo


# -- the grown closure against the closure built from nothing --------------------

@pytest.fixture(scope="module")
def g2_model12(g2):
    return TauModel.build(g2, 12)


@pytest.fixture(scope="module")
def trig_model11(trig):
    return TauModel.build(trig, 11)


def assert_closure_matches_oracle(db, w, include_equal):
    rules, rows = grown_closure(db, w, include_equal)
    want_rules, want_rows = oracle_closure(db, w, include_equal)
    assert rules == want_rules, (w, include_equal)
    assert rows == [row for v, row in want_rows if v == w], (w, include_equal)


@pytest.mark.parametrize("which, top", [("g2_model12", 12), ("trig_model11", 11)])
def test_grown_closure_matches_closure_built_from_nothing(request, which, top):
    # every layer's closure, grown from the last one, has the rules and the
    # top-weight collision rows of the closure built from nothing, both
    # below the layer and with it
    model = request.getfixturevalue(which)
    db = RelationDB(model.curve)
    for w in range(4, top + 1):
        rels = derive_at_weight(w, db, model)
        assert_closure_matches_oracle(db, w, False)
        db.add_layer(w, rels)
        assert_closure_matches_oracle(db, w, True)
    # a request below the closure held starts a fresh one; above it, it grows
    for w, include_equal in ((8, True), (8, False), (top, False), (top + 2, True)):
        assert_closure_matches_oracle(db, w, include_equal)


def test_closure_below_the_layers_held(g2_db):
    # closure(8) after layers through 10 starts a fresh closure, which grows back
    for w in (10, 8, 9, 10):
        assert_closure_matches_oracle(g2_db, w, True)
        assert_closure_matches_oracle(g2_db, w, False)


def test_stored_pivot_takes_over_a_derivative_pivot(g2, g2_db):
    # a document whose weight-7 relation solves for p11112, the pivot of d_2
    # of the weight-4 relation: the stored rule wins, the two meet in a
    # weight-7 collision row, and the rule of p1111111 (d_111), whose
    # right-hand side holds 4*p11112, is swept again from its original
    # right-hand side under the stored rule
    ctx = g2_db.ctx
    kdv = g2_db.layers[4][0]
    p11112, p1111111 = ctx.wp((1, 1, 1, 1, 2)).unit, ctx.wp((1,) * 7).unit
    extra = ctx.wp_poly((1, 1)) ** 2 * ctx.wp_poly((1, 1, 1))
    stored = Relation(MultiPoly.monomial(p11112) - ctx.diff(kdv.rhs, 2) - extra, 7,
                      QUASILINEAR, p11112)
    db = RelationDB(g2)
    db.add_layer(4, [kdv])
    assert_closure_matches_oracle(db, 7, False)
    db.add_layer(7, [stored])
    assert_closure_matches_oracle(db, 7, True)
    rules, rows = grown_closure(db, 7, True)
    index = index_of(rules)
    assert rules[p11112] == nf(index, stored.rhs)
    assert rows == [extra]
    assert p11112 in ctx.diff(ctx.diff(ctx.diff(kdv.rhs, 1), 1), 1).terms
    assert rules[p1111111] == nf(index, ctx.diff(ctx.diff(ctx.diff(kdv.rhs, 1), 1), 1))
    for w in (8, 9, 7):
        assert_closure_matches_oracle(db, w, False)
        assert_closure_matches_oracle(db, w, True)
    # a layer at a weight the closure covers drops it
    db._grow(9, False)
    db.add_layer(6, [])
    assert db._step == 0
    assert_closure_matches_oracle(db, 9, False)


def test_genus2_weight12_derive_memoizes_each_form_once_per_weight(g2, g2_model12, monkeypatch):
    # a closure rebuilt for every layer, its memo emptied on every changed
    # right-hand side, wrote 2,270 normal forms in this derive
    writes = []

    class CountingMemo(dict):
        def __setitem__(self, m, value):
            writes.append(m)
            dict.__setitem__(self, m, value)

    init = PivotIndex.__init__

    def counting_init(index, *args):
        init(index, *args)
        index.memo = CountingMemo()

    monkeypatch.setattr(PivotIndex, "__init__", counting_init)
    derive_range(RelationDB(g2), g2_model12, 12)
    assert len(writes) == 705


# -- hyperelliptic transpose identity ------------------------------------------

def test_hyperelliptic_transpose_identity(g2_model):
    for w in range(4, 9):
        for rep, tr in transpose_classes(enumerate_rank2(w)):
            if rep == tr:
                continue
            assert (plucker_relation(rep, g2_model).poly()
                    == plucker_relation(tr, g2_model).poly()), rep.parts


def test_plucker_rank_check(g2_model):
    with pytest.raises(ValueError):
        plucker_relation(Partition((3,)), g2_model)


def test_plucker_weight4_is_kdv4(g2, g2_model):
    expr = plucker_relation(Partition((2, 2)), g2_model).poly()
    rel = classify(expr * Q(-12), 4, g2_model.ctx)
    weight, cls, printed = relation_table(g2, g2_model.ctx)[0]
    assert rel.expr == classify(printed, 4, g2_model.ctx).expr


# -- cross-differentiation ------------------------------------------------------

def test_cross_differentiate_reproduces_quasilinear(g2_db):
    got = {(r.weight, r.solved_monomial): r for r in cross_differentiate(g2_db)}
    for w in (7, 9):
        stored = by_weight(g2_db, w)[0]
        key = (w, stored.solved_monomial)
        assert key in got
        assert got[key].expr == stored.expr


def test_cross_differentiate_degenerate_pair(g2):
    # a database with a single four-index relation has no valid pairs
    db = RelationDB(g2)
    ctx = db.ctx
    expr = (ctx.wp_poly((1, 1, 1, 1)) - ctx.wp_poly((1, 1)) ** 2 * 6
            - g2.parameter_poly(g2.parameters[0]) * ctx.wp_poly((1, 1))
            - ctx.wp_poly((1, 2)) * 4
            - g2.parameter_poly(g2.parameters[1]) * Q(1, 2))
    db.add_layer(4, [classify(expr, 4, ctx)])
    assert cross_differentiate(db) == []


# -- linear solve ----------------------------------------------------------------

def test_linear_solve_single_unknown(g2_db):
    ctx = g2_db.ctx
    X = ctx.wp_poly((1, 1, 1, 1))
    solved, residual = linear_solve([split(X - 3)])
    assert not residual
    col, rhs, _ = solved[0]
    assert MultiPoly.monomial(col) == ctx.wp_poly((1, 1, 1, 1))
    assert rhs == MultiPoly.const(3)


def test_linear_solve_inconsistent(g2_db):
    ctx = g2_db.ctx
    X = ctx.wp_poly((1, 1, 1, 1))
    with pytest.raises(InconsistentSystemError):
        linear_solve([split(MultiPoly.const(3))])  # 0 = 3
    with pytest.raises(InconsistentSystemError):
        linear_solve([split(X - 1), split(X - 2)])  # eliminates to 0 = 1


def test_linear_solve_returns_eliminated_basic_row(g2_db):
    ctx = g2_db.ctx
    X = ctx.wp_poly((1, 1, 1, 1))
    p11, p12 = ctx.wp_poly((1, 1)), ctx.wp_poly((1, 2))
    solved, residual = linear_solve([split(X - p11), split(X - p12)])
    assert [MultiPoly.monomial(col) for col, _, _ in solved] == [X]
    assert len(residual) == 1 and not residual[0].cols
    basic = ScaledPoly(residual[0].den, residual[0].basic).poly()
    assert basic in (p11 - p12, p12 - p11)


def test_proportional_basic_rows_give_one_relation(g2_db):
    ctx = g2_db.ctx
    p11, p12, p22 = ctx.wp_poly((1, 1)), ctx.wp_poly((1, 2)), ctx.wp_poly((2, 2))
    even = p11 ** 4 - p12 * p12 * 3 + p11 * p22  # weight 8
    rels = _basic_relations([((), even), ((), even * Q(-2, 7))], 8, ctx)
    assert len(rels) == 1 and rels[0].cls == QUARTIC_EVEN
    assert rels[0].expr == even * (Q(1) / even.coeff(rels[0].solved_monomial))
    with pytest.raises(InconsistentSystemError):
        _basic_relations([((), even), ((), ctx.wp_poly((1, 1, 1)) * p11)], 8, ctx)


def test_linear_solve_substitution_closes(g2_db):
    # solutions substituted back reduce every input row to zero exactly
    ctx = g2_db.ctx
    X = ctx.wp_poly((1, 1, 1, 1))
    Y = ctx.wp_poly((1, 1, 1)) * ctx.wp_poly((1, 1, 1))
    rows = [X - Y - ctx.wp_poly((1, 1)), X + Y - ctx.wp_poly((1, 2))]
    solved, residual = linear_solve([split(row) for row in rows])
    assert not residual and len(solved) == 2
    index = index_of({col: rhs for col, rhs, _ in solved})
    for row in rows:
        assert nf(index, row).is_zero()


# -- the integer solve against the rational oracle --------------------------------

def assert_solve_matches_oracle(system, oracle_system, sources):
    # the same solved rows in the same order, and residual rows with the
    # same sources and expressions; a 0 = c row raises on both sides.
    # system holds the split rows, oracle_system the same rows as rational
    # polynomials
    try:
        want_solved, want_residual = oracle_solve(oracle_system, sources)
    except InconsistentSystemError as exc:
        with pytest.raises(InconsistentSystemError) as got:
            linear_solve(system)
        assert str(got.value) == str(exc)
        return
    solved, residual = linear_solve(system)
    assert solved == want_solved
    assert [(r.source, r.expr()) for r in residual] == \
        [(r.source, r.expr()) for r in want_residual]


def solve_pool(g2, ctx):
    """(columns, cofactors, basic terms) from which small systems are drawn:
    the columns hold 3- and 4-index symbols, to the first and second
    degree; a4 * a3 + 1 is a cofactor with a constant term that is still
    not a rational constant."""
    a4, a3 = (g2.parameter_poly(a) for a in g2.parameters[:2])
    wp = ctx.wp_poly
    cols = [wp((1, 1, 1, 1)), wp((1, 1, 1)) ** 2, wp((1, 1)) * wp((1, 1, 1)),
            wp((1, 1, 2)), wp((1, 2, 2, 2))]
    cofactors = [MultiPoly.one(), a4, a3, a4 * a3 + 1]
    basic = [wp((1, 1)), wp((1, 2)), wp((1, 1)) * wp((2, 2)), MultiPoly.one(), a4]
    return cols, cofactors, basic


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linear_solve_matches_rational_oracle(g2, g2_db, data):
    # parameter-polynomial coefficients, negative and non-unit rational
    # pivots, rows that cancel (rational multiples of earlier rows summed),
    # columns with no rational coefficient, and 0 = c rows
    cols, cofactors, basic = solve_pool(g2, g2_db.ctx)
    coeffs = st.sampled_from([Q(1), Q(-1), Q(3), Q(-2, 3), Q(5, 4), Q(-7, 6)])
    system = []
    for _ in range(data.draw(st.integers(1, 5))):
        if system and data.draw(st.integers(0, 3)) == 0:
            picked = data.draw(st.lists(st.sampled_from(range(len(system))),
                                        min_size=1, max_size=2))
            row = sum((system[i] * data.draw(coeffs) for i in picked), MultiPoly.zero())
        else:
            row = MultiPoly.zero()
            for _ in range(data.draw(st.integers(1, 4))):
                if data.draw(st.booleans()):
                    term = data.draw(st.sampled_from(cols)) * data.draw(st.sampled_from(cofactors))
                else:
                    term = data.draw(st.sampled_from(basic))
                row = row + term * data.draw(coeffs)
        system.append(row)
    sources = [(i,) for i in range(len(system))]
    assert_solve_matches_oracle([split(e, s) for e, s in zip(system, sources)], system, sources)


@pytest.mark.parametrize("case", ["parameter coefficients", "negative non-unit pivots",
                                  "rows that cancel", "no rational coefficient",
                                  "0 = c", "0 = parameter"])
def test_linear_solve_matches_rational_oracle_on_each_case(g2, g2_db, case):
    (X, Y, Z, _, _), (_, a4, a3, _), (p11, p12, _, one, _) = solve_pool(g2, g2_db.ctx)
    system = {
        "parameter coefficients": [a3 * X + Y * Q(2, 3) - p11, X - a4 * Y + p12 * 5,
                                   Y * 2 + a4 * Z - one],
        "negative non-unit pivots": [X * Q(-2, 3) + Y * Q(5, 4) - p11 * Q(1, 7),
                                     X * 3 - Y * 7 + p12, Y * Q(-9, 10) + Z * Q(3, 4)],
        "rows that cancel": [X - p11 * Q(1, 3), X * Q(-3, 2) + p11 * Q(1, 2), Y + Z,
                             Y * 2 + Z * 2],
        "no rational coefficient": [a3 * X + p11, a4 * X - p12 * Q(2, 5), a3 * Y + Z * 4],
        "0 = c": [X - 1, X - 2],
        "0 = parameter": [X * Q(3, 2) - a4, X * 3],
    }[case]
    sources = [(i,) for i in range(len(system))]
    assert_solve_matches_oracle([split(e, s) for e, s in zip(system, sources)], system, sources)


def layer_systems(model, top):
    """(weight, rows) of every layer through top: the reduced rows that
    derive_at_weight hands to linear_solve, with their partitions."""
    db = RelationDB(model.curve)
    out = []
    for w in range(4, top + 1):
        out.append((w, [(src, red) for src, red in layer_rows(w, db, model)
                        if engine._split_row(red, src).cols]))
        db.add_layer(w, derive_at_weight(w, db, model))
    return out


@pytest.fixture(scope="module")
def g2_systems12(g2_model12):
    return layer_systems(g2_model12, 12)


@pytest.fixture(scope="module")
def trig_systems11(trig_model11):
    return layer_systems(trig_model11, 11)


@pytest.mark.parametrize("which", ["g2_systems12", "trig_systems11"])
def test_linear_solve_matches_rational_oracle_on_layers(request, which):
    for w, rows in request.getfixturevalue(which):
        sources = [src for src, _ in rows]
        assert_solve_matches_oracle([engine._split_row(red, src) for src, red in rows],
                                    [red.poly() for _, red in rows], sources)


def test_linear_solve_adds_and_multiplies_no_rational_polynomial(trig_systems11, monkeypatch):
    # the elimination of every trigonal layer through weight 11 runs in
    # integers; the same counter sees the oracle's rational elimination
    systems = [[engine._split_row(red, src) for src, red in rows]
               for _, rows in trig_systems11]
    oracle_systems = [([red.poly() for _, red in rows], [src for src, _ in rows])
                      for _, rows in trig_systems11]
    calls = []

    def counted(name, method):
        return lambda *args: calls.append(name) or method(*args)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, counted(name, getattr(MultiPoly, name)))
    for system in systems:
        linear_solve(system)
    assert calls == []
    for system, sources in oracle_systems:
        oracle_solve(system, sources)
    assert calls


def test_layer_rows_make_no_rational_round_trip(trig, trig_model11, monkeypatch):
    # over the trigonal layers through weight 11, closure growth and
    # collision rows included, layer_rows forms no rational polynomial from
    # an integer one, and puts only the stored relations' right-hand sides
    # over integers, each once; the model is warmed first, so that it
    # builds no tau-derivative or hook of its own
    model = trig_model11
    derive_range(RelationDB(trig), model, 11)
    polys, converted = [], []
    poly, of = ScaledPoly.poly, ScaledPoly.of.__func__
    db = RelationDB(trig)
    for w in range(4, 12):
        with monkeypatch.context() as m:
            m.setattr(ScaledPoly, "poly", lambda p: polys.append(p) or poly(p))
            m.setattr(ScaledPoly, "of",
                      classmethod(lambda cls, p: converted.append(p) or of(cls, p)))
            rows = layer_rows(w, db, model)
        with monkeypatch.context() as m:
            m.setattr(engine, "layer_rows", lambda *args: rows)
            db.add_layer(w, derive_at_weight(w, db, model))
    assert polys == []
    stored = [r.rhs for r in db.relations() if r.weight < 11 and r.solved_monomial is not None]
    assert sorted(p.text() for p in converted) == sorted(p.text() for p in stored)


def test_unresolved_row_note_is_the_oracle_text(g2, g2_model, monkeypatch):
    # notes are document bytes: the note of a row with no rational pivot
    # is the rational oracle's text of the row, character for character
    db = RelationDB(g2)
    wp = db.ctx.wp_poly
    a4, a3 = (g2.parameter_poly(a) for a in g2.parameters[:2])
    row = (a3 * wp((1, 1, 1)) * Q(-3, 4) + a4 * wp((1, 1)) * wp((1, 1, 1)) * Q(2, 5)
           + wp((1, 1)) ** 3 * Q(7, 6) - a4 * Q(1, 3))
    monkeypatch.setattr(engine, "layer_rows", lambda *args: [((), ScaledPoly.of(row))])
    assert derive_at_weight(4, db, g2_model) == []
    _, [want] = oracle_solve([row])
    assert db.notes == {4: ["unresolved row (no rational pivot): %s" % want.expr().text()]}
    assert want.expr().text() == "2/5*a4*p11*p111 - 3/4*a3*p111 + 7/6*p11^3 - 1/3*a4"


def test_reduce_all_stored_derivatives_to_zero(g2_db):
    # the derivative of any stored relation, after reduction, is zero once
    # the corresponding layer is complete (full consistency predicate)
    ctx = g2_db.ctx
    for r in g2_db.relations():
        for i in (1, 2):
            w = r.weight + ctx.gaps[i - 1]
            if w > 10:
                continue
            assert g2_db.reduce(ctx.diff(r.expr, i), w).is_zero(), (r.expr.text(), i)


def test_reduce_below_the_held_closure_reuses_it(g2, g2_db, monkeypatch):
    # rewriting never raises weight and a grown closure's lighter rules are
    # final: the derivative checks above, at falling weights, start no fresh
    # closure, and each normal form is the one a fresh database gives
    ctx = g2_db.ctx
    checks = [(ctx.diff(r.expr, i), r.weight + ctx.gaps[i - 1])
              for r in g2_db.relations() for i in (1, 2) if r.weight + ctx.gaps[i - 1] <= 10]
    assert any(w < v for (_, v), (_, w) in zip(checks, checks[1:]))

    def database():
        db = RelationDB(g2, ctx)
        for w, relations in sorted(g2_db.layers.items()):
            db.add_layer(w, relations)
        return db

    db = database()
    fresh = []
    with monkeypatch.context() as m:
        m.setattr(RelationDB, "_fresh", lambda self: fresh.append(self) or RelationDB._fresh(self))
        got = [db.reduce(expr, w) for expr, w in checks]
    assert fresh == []
    assert got == [database().reduce(expr, w) for expr, w in checks]
    # an expression heavier than max_weight is reduced modulo the closure at
    # max_weight, not the one held
    heavy, w = max(checks, key=lambda check: check[1])
    assert not db.reduce(heavy, w - 4).is_zero()
    assert db.reduce(heavy, w - 4) == database().reduce(heavy, w - 4)


def test_reduce_all_trigonal_derivatives_to_zero(trig_db):
    ctx = trig_db.ctx
    for r in trig_db.relations():
        for i in (1, 2, 3):
            w = r.weight + ctx.gaps[i - 1]
            if w > 6:
                continue
            assert trig_db.reduce(ctx.diff(r.expr, i), w).is_zero(), (r.expr.text(), i)


# -- classification ---------------------------------------------------------------

def test_classify_examples(g2, g2_db):
    ctx = g2_db.ctx
    table = relation_table(g2, ctx)
    assert classify(table[0][2], 4, ctx).cls == FOUR_INDEX
    assert classify(table[2][2], 6, ctx).cls == QUAD_THREE_INDEX
    assert classify(table[3][2], 7, ctx).cls == QUASILINEAR
    with pytest.raises(ReductionError):
        classify(ctx.wp_poly((1, 1)) + ctx.wp_poly((1, 2)), 4, ctx)  # inhomogeneous


@pytest.mark.parametrize("which, model, top", [("g2_db", "g2_model", 10),
                                               ("trig_db8", "trig_model8", 8)])
def test_derive_decodes_each_row_term_once(request, which, model, top, monkeypatch):
    # each row of a layer is split into its columns once: outside classify,
    # which decodes its own terms once, the layer decodes each row term once,
    # and each column once more for its order, and solves the same relations
    db, model = request.getfixturevalue(which), request.getfixturevalue(model)
    decoded, quiet = [], []

    def spy(m):
        if not quiet:
            decoded.append(m)
        return factors(m)

    def silenced(fn):
        def call(*args, **kwargs):
            quiet.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                quiet.pop()
        return call

    partial = RelationDB(db.curve)
    for w in range(4, top + 1):
        rows = layer_rows(w, partial, model)
        with monkeypatch.context() as m:
            m.setattr(engine, "factors", spy)
            m.setattr(engine, "layer_rows", lambda *args: rows)
            m.setattr(engine, "classify", silenced(classify))
            m.setattr(engine, "_basic_relations", silenced(_basic_relations))
            del decoded[:]
            rels = derive_at_weight(w, partial, model)
        terms = [m for _, row in rows for m in row.terms]
        columns = {column_of(m) for m in terms} - {None}
        assert sorted(decoded) == sorted(terms + list(columns)), w
        assert [(r.solved_monomial, r.expr) for r in rels] == \
            [(r.solved_monomial, r.expr) for r in db.layers[w]], w
        partial.add_layer(w, rels)


def test_classify_decodes_each_term_once(g2, g2_db, monkeypatch):
    # every printed relation keeps its class, and each term's monomial is
    # decoded once on its way there
    ctx = g2_db.ctx
    decoded = []
    monkeypatch.setattr(engine, "factors", lambda m: decoded.append(m) or factors(m))
    for weight, cls, expr in relation_table(g2, ctx):
        del decoded[:]
        assert classify(expr, weight, ctx).cls == cls
        assert sorted(decoded) == sorted(expr.terms), (weight, expr.text())


# -- Kummer quartic ----------------------------------------------------------------

def test_kummer_quartic_properties(g2_db):
    k = kummer_quartic(g2_db)
    ctx = g2_db.ctx
    assert k.cls == QUARTIC_EVEN and k.weight == 16
    assert k.expr.is_homogeneous(16)
    assert ctx.parity(k.expr) == k.expr
    assert all(is_basic(m) for m in k.expr.terms)
    p12_4 = monomial(((ctx.wp((1, 2)), 4),))
    assert k.expr.coeff(p12_4) == 1
    # no 3-index content anywhere
    for mono in k.expr.terms:
        assert all(len(s.indices) <= 2 for s, _ in factors(mono) if s.kind == "wp")


def test_kummer_quartic_specializes_to_monomial_curve(g2_db):
    k = kummer_quartic(g2_db)
    subs = {p: MultiPoly.zero() for p in g2_db.curve.parameters}
    special = k.expr.substitute(subs)
    assert not special.is_zero()
    assert special.is_homogeneous(16)
    assert g2_db.ctx.parity(special) == special


def test_kummer_quartic_missing_prerequisites(g2):
    with pytest.raises(ReductionError):
        kummer_quartic(RelationDB(g2))


# -- independent Jacobian oracle ------------------------------------------------------

def test_divisor_oracle_validates_low_index_relations(g2, g2_db):
    ctx = g2_db.ctx
    checkable = []
    for r in g2_db.relations():
        ok = all(s.kind != "wp" or s.indices in
                 ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2))
                 for m in r.expr.terms for s, _ in factors(m))
        if ok:
            checkable.append(r)
    # Jac_6, the weight-8 quadratic and Jac_10^(2) are all checkable
    assert len(checkable) >= 3
    for r in checkable:
        assert vanishes_on_jacobian(g2, ctx, r.expr), r.expr.text()


def test_divisor_oracle_validates_kummer(g2, g2_db):
    k = kummer_quartic(g2_db)
    assert vanishes_on_jacobian(g2, g2_db.ctx, k.expr)


def test_divisor_oracle_rejects_wrong_relation(g2, g2_db):
    ctx = g2_db.ctx
    wrong = ctx.wp_poly((1, 1)) * ctx.wp_poly((1, 1)) - ctx.wp_poly((1, 2))
    assert not vanishes_on_jacobian(g2, ctx, wrong)


# -- precondition checks ---------------------------------------------------------------

def test_derive_requires_complete_lower_layers(g2, g2_model):
    db = RelationDB(g2)
    with pytest.raises(ReductionError):
        derive_at_weight(6, db, g2_model)


@pytest.mark.xfail(raises=ReductionError, strict=True,
                   reason="the weight-15 closure is cyclic: p111*p22^3 rewrites to itself")
def test_trigonal_derives_through_weight_15(trig):
    db = derive_range(RelationDB(trig), TauModel.build(trig, 15), 15)
    assert 15 in db.layers


@pytest.mark.xfail(raises=ReductionError, strict=True,
                   reason="the weight-19 closure is cyclic: p11*p112*p12^3 rewrites to itself")
def test_genus2_derives_through_weight_19(g2):
    db = derive_range(RelationDB(g2), TauModel.build(g2, 19), 19)
    assert 19 in db.layers
