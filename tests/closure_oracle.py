"""The derivative closure built from nothing: the oracle for RelationDB's grown one.

:func:`closure` collects every rule of the closure at (max_weight,
include_equal) at once, the stored solved relations first and then the
u-derivatives of the stored FOUR_INDEX relations, and inter-reduces all of
them in one sweep in term order, emptying the memo of normal forms after
each right-hand side.  Its derivatives are taken over the rationals.
:class:`kleinian.engine.RelationDB` grows one closure a weight block at a
time, in integer numerators, and keeps its memo; both must give the same
rules and the same collision rows.
"""

from kleinian.engine import FOUR_INDEX, PivotIndex, _index_multisets
from kleinian.poly import MultiPoly, ScaledPoly, factors, monomial_key, monomial_weight


def closure(db, max_weight: int, include_equal: bool = True
            ) -> tuple[dict, list[tuple[int, MultiPoly]]]:
    """(rules, rows): the closure's rules, and its nonzero reduced collision
    rows of every weight as (weight, row) pairs, in the order met."""
    ctx = db.ctx
    rules = {}
    collisions = []
    stored = [r for r in db.relations()
              if r.solved_monomial is not None
              and (r.weight < max_weight or include_equal and r.weight == max_weight)]
    stored.sort(key=lambda r: (r.weight, monomial_key(r.solved_monomial)))
    for r in stored:
        rules[r.solved_monomial] = r.rhs
    for r in stored:
        if r.cls != FOUR_INDEX:
            continue
        base = factors(r.solved_monomial)[0][0].indices
        # d_J = d_{J[-1]} d_{J[:-1]}: the sorted multisets list each prefix first
        derivs = {(): r.rhs}
        for J in _index_multisets(ctx.genus, ctx.gaps, max_weight - r.weight):
            pivot = ctx.wp(base + J).unit
            rhs = derivs[J] = ctx.diff(derivs[J[:-1]], J[-1])
            if pivot in rules:
                collisions.append((monomial_weight(pivot), rules[pivot] - rhs))
            else:
                rules[pivot] = rhs
    index = PivotIndex()
    index.add({pivot: ScaledPoly.of(rhs) for pivot, rhs in rules.items()})
    for pivot in sorted(rules, key=monomial_key):
        index.set_rhs(pivot, index.normal_form(index.rhss[pivot]))
        index.memo.clear()
    rules = {pivot: rhs.poly() for pivot, rhs in index.rhss.items()}
    rows = []
    for w, c in collisions:
        r = index.normal_form(ScaledPoly.of(c)).poly()
        if not r.is_zero():
            rows.append((w, r))
    return rules, rows
