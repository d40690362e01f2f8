"""Relation engine: hook-determinant rows, reduction, elimination, storage.

Layers are strictly sequential: the weight-W layer assumes a database
complete for all weights below W.  A layer generates one determinant
identity per rank-2 partition of weight W, reduced modulo the lower
layers and their derivative closure as it is built, so the layer holds
reduced rows only.  Transpose pairs are folded for a hyperelliptic
(n = 2) curve, where both members give the same row; otherwise a pair
gives the sum and the difference of its two rows, each summed at once
from the sign-split weights of one member (:func:`layer_rows`).  The layer
then solves the surviving rows for the monomials that contain a p-symbol
with three or more indices.  Solved rows are promoted to relations; rows
that reduce to zero were already in the ideal and are dropped; rows left
with no 3-index content are relations among the basic symbols.

From the closure to the solve, every polynomial is integer numerators
over one denominator (:class:`~kleinian.poly.ScaledPoly`): a stored
relation's right-hand side is put over integers once, its u-derivatives
act on the numerators, rules, normal forms and collision rows are each
held over their own denominator, and a layer's reduced rows are split
into their unknown columns and eliminated in integers
(:func:`linear_solve`).  Rationals are formed once per solved relation,
as the solve hands it to :func:`classify`, and once per check that asks
for a normal form (:meth:`RelationDB.reduce`).

Reduction modulo a closure is a linear map: the pivot that rewrites a
monomial depends on the monomial alone, so NF(sum(c_m * m)) =
sum(c_m * NF(m)).  Each monomial's normal form is memoized on the
closure's :class:`PivotIndex`, and this is the one reduction path: every
layer row, collision row and check reduced against a closure combines the
memoized forms, and so does the closure's own inter-reduction.  The
database holds one closure, which grows with the layers, as the hierarchy
does: the closure at weight W + 1 is the one at W plus the stored
weight-W relations and the weight-(W + 1) derivatives.  Rewriting never
raises weight, so each step inter-reduces only the weight block it adds,
in one sweep that replaces each right-hand side by its normal form, and
keeps every memoized form lighter than that block: each normal form is
computed once per weight (:class:`RelationDB`).  The same linearity lets
a layer reduce each term of its rows once.  A row is

    (1/N!) (sum_mu W_lambda(mu) tau_mu - sum_{mu <= nu} K_lambda(mu, nu) tau_mu tau_nu),

its Schur part and its hook determinant in the class weights of
:mod:`kleinian.schur`, so its normal form is the same integer combination
of NF(tau_mu) and NF(tau_mu tau_nu), each memoized per layer and dropped
with the layer's closure.  No hook product is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable

from .curves import CurveSpec
from .errors import InconsistentSystemError, ReductionError
from .partitions import Partition, enumerate_rank2, transpose_classes
from .poly import (
    EMPTY_MONOMIAL, Monomial, MultiPoly, ScaledPoly, Symbol, add_product, add_terms, divides,
    factors, monomial, monomial_div, monomial_key, monomial_mul, monomial_str, monomial_weight,
    scaled_products, scaled_sum,
)
from .rationals import Q
from .schur import pair_weights, schur_weights
from .taucalc import AbelianContext, TauModel, character_sum

FOUR_INDEX = "FOUR_INDEX"
QUAD_THREE_INDEX = "QUAD_THREE_INDEX"
QUASILINEAR = "QUASILINEAR"
QUARTIC_EVEN = "QUARTIC_EVEN"
OTHER = "OTHER"
#: every class a relation can be given
CLASSES = (FOUR_INDEX, QUAD_THREE_INDEX, QUASILINEAR, QUARTIC_EVEN, OTHER)


def wp_degree(pairs: tuple[tuple[Symbol, int], ...], min_indices: int) -> int:
    """Total degree in p-symbols with at least the given number of indices,
    over a monomial's (symbol, exponent) pairs (:func:`~kleinian.poly.factors`)."""
    return sum(e for s, e in pairs if s.kind == "wp" and len(s.indices) >= min_indices)


def column_of(mono: Monomial) -> Monomial | None:
    """The unknown column of a monomial: its full p-part, when that part
    contains a symbol with >= 3 indices; None for basic monomials."""
    pairs = factors(mono)
    if not any(s.kind == "wp" and len(s.indices) >= 3 for s, _ in pairs):
        return None
    return monomial((s, e) for s, e in pairs if s.kind == "wp")


def column_rank(pairs: tuple[tuple[Symbol, int], ...]) -> int:
    """Pivot preference of a column, from its (symbol, exponent) pairs:
    4-index symbols, then quadratic 3-index, then linear."""
    if any(len(s.indices) >= 4 for s, _ in pairs):
        return 0
    if wp_degree(pairs, 3) >= 2:
        return 1
    return 2


def column_order_key(col: Monomial):
    return (-column_rank(factors(col)), monomial_key(col))


@dataclass
class Relation:
    """A derived identity, stored in solved form pivot = pivot - expr.

    expr is weight-homogeneous and has the solved monomial
    with coefficient exactly +1; on a curve with parameter values it is
    the generic relation with the values substituted (see
    :func:`kleinian.cli.run_derive`), which keeps the coefficient +1 but
    not the homogeneity.
    """

    expr: MultiPoly
    weight: int
    cls: str
    solved_monomial: Monomial | None
    source: tuple[Partition, ...] = ()

    @property
    def rhs(self) -> MultiPoly:
        if self.solved_monomial is None:
            return -self.expr
        return MultiPoly.monomial(self.solved_monomial) - self.expr


# ---------------------------------------------------------------------------
# rewriting


class PivotIndex:
    """Rule pivots bucketed by their first symbol, and their right-hand sides.

    A pivot that divides a monomial has its first symbol (by name) among
    that monomial's symbols, so only those buckets are searched, with the
    packed divisibility test :func:`~kleinian.poly.divides`.  Each bucket
    is kept in descending term order, so the first divisor found in a
    bucket is that bucket's largest; the largest over all buckets is the
    pivot a scan over every rule would pick.

    Each right-hand side is a :class:`~kleinian.poly.ScaledPoly`, integer
    numerators over its own denominator, and so is every normal form.  Only
    the pivots are bucketed, so a right-hand side may be replaced
    (:meth:`set_rhs`) and rules may be added (:meth:`add`).

    ``memo`` holds the normal form NF(m) of every monomial reduced so far
    under the current rules (None marks an irreducible monomial).  Every
    symbol has positive weight, so a pivot that divides a monomial is
    lighter than it or equal to it, and rewriting never raises weight:
    NF(m) depends on the rules of weight at most wt(m) alone.  So
    :meth:`add` drops only the forms of weight at least that of the
    lightest pivot it adds.  :meth:`set_rhs` drops none: it replaces
    rhs(p) by NF(rhs(p)), a pivot of weight w divides a monomial of weight
    w only when the two are equal, and NF is idempotent, so every memoized
    form stays what a fresh index would compute.
    """

    def __init__(self):
        self.buckets: dict[Symbol, list[tuple[tuple, Monomial]]] = {}
        self.rhss: dict[Monomial, ScaledPoly] = {}
        self.memo: dict[Monomial, ScaledPoly | None] = {}

    def add(self, rules: dict[Monomial, ScaledPoly]):
        """Add rules, or give pivots already present these right-hand sides,
        and drop the memoized normal forms that can change."""
        if not rules:
            return
        touched = set()
        for pivot, rhs in rules.items():
            if pivot not in self.rhss:
                s = factors(pivot)[0][0]
                self.buckets.setdefault(s, []).append((monomial_key(pivot), pivot))
                touched.add(s)
            self.rhss[pivot] = rhs
        for s in touched:
            self.buckets[s].sort(reverse=True)
        lightest = min(map(monomial_weight, rules))
        memo = self.memo
        for m in [m for m in memo if monomial_weight(m) >= lightest]:
            del memo[m]

    def find(self, mono: Monomial) -> Monomial | None:
        """The largest pivot that divides mono."""
        best = best_key = None
        for s, _ in factors(mono):
            for key, pivot in self.buckets.get(s, ()):
                if best is not None and key <= best_key:
                    break
                if divides(pivot, mono):
                    best, best_key = pivot, key
                    break
        return best

    def set_rhs(self, pivot: Monomial, value: ScaledPoly):
        """Replace the right-hand side of pivot by its normal form (see the
        class docstring)."""
        self.rhss[pivot] = value.primitive()

    def normal_form(self, expr: ScaledPoly) -> ScaledPoly:
        """sum(n_m * NF(m)) / den over expr's terms; expr itself if none is reducible.

        Each monomial is rewritten by its largest pivot (:meth:`find`); a
        cyclic rule set raises :class:`ReductionError`.
        """
        memo = self.memo
        for m in expr.nums:
            if m not in memo:
                self._memoize(m)
        images = [memo[m] for m in expr.nums]
        if images.count(None) == len(images):
            return expr
        return _linear_image(expr.den, list(zip(expr.nums.items(), images)))

    def _memoize(self, mono: Monomial):
        """Memoize NF(mono) and every normal form it needs, depth first.

        NF(m) = m when no pivot divides m, and otherwise
        sum(n_r * NF(cofactor * m_r)) / den over the pivot's right-hand side
        sum(n_r * m_r) / den.  The walk keeps its own stack, so a long rule
        chain cannot exhaust Python's recursion limit; a monomial met again
        on its own rewriting path means the rule set is cyclic.
        """
        memo, find, rhss = self.memo, self.find, self.rhss

        def frame(m):
            # children: the rewriting step m -> cofactor * rhs(pivot), over its den
            pivot = find(m)
            if pivot is None:
                return [m, None, 0, 0]
            rhs = rhss[pivot]
            # the terms cofactor * r of the rewriting step: one integer add each
            step = add_product({}, {monomial_div(m, pivot): 1}, rhs.nums)
            return [m, list(step.items()), 0, rhs.den]

        stack, path = [frame(mono)], {mono}
        while stack:
            top = stack[-1]
            m, children, i, den = top
            if children is not None:
                while i < len(children) and children[i][0] in memo:
                    i += 1
                if i < len(children):
                    child = children[i][0]
                    if child in path:
                        raise ReductionError("cyclic rule set: %s rewrites to itself"
                                             % monomial_str(child))
                    top[2] = i + 1
                    path.add(child)
                    stack.append(frame(child))
                    continue
                memo[m] = _linear_image(den, [(c, memo[c[0]]) for c in children])
            else:
                memo[m] = None
            path.discard(m)
            stack.pop()


def _linear_image(den: int, terms: list[tuple[tuple[Monomial, int], ScaledPoly | None]]
                  ) -> ScaledPoly:
    """sum(n * image) / den over ((m, n), image) pairs, a None image standing for m."""
    d = lcm(*(image.den for _, image in terms if image is not None))
    out: dict[Monomial, int] = {}
    for (m, n), image in terms:
        if image is None:
            add_terms(out, ((m, n * d),))
        else:
            f = n * (d // image.den)
            add_terms(out, ((k, f * c) for k, c in image.nums.items()))
    return ScaledPoly(den * d, out).primitive()


def _index_multisets(genus: int, gaps: tuple[int, ...], max_weight: int):
    """Nonempty sorted index multisets J with sum of gap weights <= max_weight."""
    out: list[tuple[int, ...]] = []

    def rec(start: int, budget: int, acc: tuple[int, ...]):
        for i in range(start, genus + 1):
            w = gaps[i - 1]
            if w > budget:
                continue
            nxt = acc + (i,)
            out.append(nxt)
            rec(i, budget - w, nxt)

    rec(1, max_weight, ())
    return sorted(out)


# ---------------------------------------------------------------------------
# database


class RelationDB:
    """Weight-indexed store of relations with a derivative-closure service.

    The closure at (W, include_equal) holds the stored solved relations of
    weight below W (at most W when include_equal) and the u-derivatives,
    up to weight W, of the stored FOUR_INDEX relations, whose pivots stay
    single monomials.  When two derivative routes, or a derivative and a
    stored relation, meet on one pivot of weight W, the first rule stays, a
    stored one first, and the difference, reduced, is a genuinely new
    relation at that weight: a collision row, handed to the layer
    (:meth:`layer_reduction`) instead of being minted as a rule.

    The closure is one :class:`PivotIndex` that grows with the layers, one
    step at a time: (W, False) -> (W, True) adds the stored relations of
    weight W, and (W, True) -> (W + 1, False) the derivatives of weight
    W + 1.  A step that adds pivots of weight w puts the whole weight-w
    block back to its original right-hand sides, which drops the memoized
    normal forms of weight >= w, and inter-reduces the block in one sweep
    in term order.  Rules are weight-homogeneous and every symbol has
    positive weight, so the right-hand sides of weight w reduce modulo the
    lighter rules and the weight-w block alone, and the lighter rules are
    final: the grown closure is the one a build from nothing would give.
    Rewriting never raises weight, so :meth:`reduce` serves an expression
    no heavier than its max_weight from a closure held above it; any other
    request below the closure held starts a fresh one, which grows from
    empty.  Each stored relation's right-hand side is put over integers
    once, and its derivatives, taken on the numerators
    (:meth:`AbelianContext.diff_scaled`), are kept across closures.
    """

    def __init__(self, curve: CurveSpec, ctx: AbelianContext | None = None):
        self.curve = curve
        self.ctx = ctx or AbelianContext(curve.gap_weights)
        self.layers: dict[int, list[Relation]] = {}
        self.notes: dict[int, list[str]] = {}
        # d_J rhs of each stored solved relation, by its pivot, then by J
        self._chains: dict[Monomial, dict[tuple[int, ...], ScaledPoly]] = {}
        self._fresh()

    def _fresh(self):
        """Drop the closure: an empty one, below every request."""
        self._step = 0  # 2 * W + include_equal of the closure held
        self._index = PivotIndex()
        # the derivative rules of the top weight, in closure order, and the
        # original right-hand sides of the top weight's block
        self._derived: list[tuple[Monomial, ScaledPoly]] = []
        self._block: dict[Monomial, ScaledPoly] = {}
        self._tau: dict[TauModel, dict] = {}

    # -- storage -------------------------------------------------------------

    def add_layer(self, weight: int, relations: list[Relation]):
        pivots = {}
        for r in self.relations() + relations:
            if r.solved_monomial is None:
                continue
            if r.solved_monomial in pivots:
                raise InconsistentSystemError(
                    "duplicate solved monomial %s" % monomial_str(r.solved_monomial))
            pivots[r.solved_monomial] = r
        for r in self.layers.get(weight, ()):
            self._chains.pop(r.solved_monomial, None)
        covered = weight in self.layers or 2 * weight + 1 <= self._step
        self.layers[weight] = list(relations)
        if covered:
            self._fresh()
        # the memos of NF(tau_mu) and NF(tau_mu tau_nu) serve one layer
        self._tau = {}

    def relations(self) -> list[Relation]:
        return [r for w in sorted(self.layers) for r in self.layers[w]]

    # -- derivative closure ----------------------------------------------------

    def reduce(self, expr: MultiPoly, max_weight: int | None = None) -> MultiPoly:
        """Normal form of expr modulo the closure at max_weight, the stored
        relations of that weight included; by default max_weight is the
        heaviest weight among expr's terms."""
        heaviest = max(map(monomial_weight, expr.terms), default=0)
        max_weight = heaviest if max_weight is None else max_weight
        held = heaviest <= max_weight < self._step // 2
        index = self._index if held else self._grow(max_weight, True)
        return index.normal_form(ScaledPoly.of(expr)).poly()

    def layer_reduction(self, weight: int, model: TauModel
                        ) -> tuple[Callable[[tuple[tuple[int, ...], ...]], ScaledPoly],
                                   list[ScaledPoly]]:
        """The normal form, under the closure below weight, of the product of
        the time-derivatives over a tuple of classes, (mu,) -> NF(tau_mu) and
        (mu, nu) -> NF(tau_mu tau_nu), and the closure's nonzero collision
        rows of that weight.

        Each product is of the derivatives themselves, not of their normal
        forms: the greedy rewriting is not confluent, and NF(tau_mu tau_nu)
        is the form the unreduced row's product has.  Each normal form is
        computed on first use and kept until the closure grows or a layer is
        added, so every row of the layer shares it.
        """
        index = self._grow(weight, False)
        memo = self._tau.setdefault(model, {})
        d = model.tau_t_derivative

        def tau(classes: tuple[tuple[int, ...], ...]) -> ScaledPoly:
            got = memo.get(classes)
            if got is None:
                value = (d(classes[0]) if len(classes) == 1
                         else scaled_products(((1, d(classes[0]), d(classes[1])),)))
                got = memo[classes] = index.normal_form(value)
            return got

        return tau, self._collision_rows()

    def _grow(self, max_weight: int, include_equal: bool) -> PivotIndex:
        """The closure at (max_weight, include_equal), grown from the one held."""
        step = 2 * max_weight + include_equal
        if step < self._step:
            self._fresh()
        index = self._index
        while self._step < step:
            self._step += 1
            w, stored = divmod(self._step, 2)
            if stored:
                # a stored pivot takes over a derivative one
                added = {r.solved_monomial: self._chain(r)[()] for r in self.layers.get(w, ())
                         if r.solved_monomial is not None}
            else:
                self._derived = self._derivatives(w)
                self._block, added = {}, {}
                for pivot, rhs in self._derived:
                    added.setdefault(pivot, rhs)
            self._tau = {}
            if not added:
                continue
            # the block, back at its original right-hand sides, then one sweep
            self._block.update(added)
            index.add(self._block)
            for pivot in sorted(self._block, key=monomial_key):
                index.set_rhs(pivot, index.normal_form(index.rhss[pivot]))
        return index

    def _chain(self, r: Relation) -> dict[tuple[int, ...], ScaledPoly]:
        """The d_J rhs of a stored solved relation, by J, each computed once;
        its rhs, put over integers here, at J = ()."""
        chain = self._chains.get(r.solved_monomial)
        if chain is None:
            chain = self._chains[r.solved_monomial] = {(): ScaledPoly.of(r.rhs)}
        return chain

    def _derivatives(self, weight: int) -> list[tuple[Monomial, ScaledPoly]]:
        """(pivot, rhs) of the u-derivatives of the given weight of the stored
        FOUR_INDEX relations, in closure order: relations by (weight, pivot),
        each one's index multisets J in sorted order."""
        stored = sorted((r for w, rels in self.layers.items() if w < weight for r in rels
                         if r.cls == FOUR_INDEX and r.solved_monomial is not None),
                        key=lambda r: (r.weight, monomial_key(r.solved_monomial)))
        gaps = self.ctx.gaps
        out = []
        for r in stored:
            chain = self._chain(r)
            base = factors(r.solved_monomial)[0][0].indices
            for J in _index_multisets(self.ctx.genus, gaps, weight - r.weight):
                if sum(gaps[i - 1] for i in J) == weight - r.weight:
                    out.append((self.ctx.wp(base + J).unit, self._derivative(chain, J)))
        return out

    def _derivative(self, chain: dict[tuple[int, ...], ScaledPoly], J: tuple[int, ...]
                    ) -> ScaledPoly:
        """d_J of a relation's rhs, from its chain: d_J = d_{J[-1]} d_{J[:-1]}."""
        got = chain.get(J)
        if got is None:
            got = chain[J] = self.ctx.diff_scaled(self._derivative(chain, J[:-1]), J[-1])
        return got

    def _collision_rows(self) -> list[ScaledPoly]:
        """The nonzero reduced collision rows of the top weight of the closure held."""
        w, stored = divmod(self._step, 2)
        first = {r.solved_monomial: self._chain(r)[()] for r in self.layers.get(w, ())
                 if stored and r.solved_monomial is not None}
        rows = []
        for pivot, rhs in self._derived:
            got = first.get(pivot)
            if got is None:
                first[pivot] = rhs
            else:
                row = self._index.normal_form(scaled_sum(((1, got), (-1, rhs))))
                if row.nums:
                    rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# rows and elimination


@dataclass
class _Row:
    """The row (sum(cols[c] * c) + basic) / den, in integer numerators.

    cols maps each unknown column to its coefficient, a polynomial in the
    parameters as {monomial: numerator}; basic maps the basic monomials to
    their numerators; den > 0.  Elimination combines rows in integers, and
    rationals are formed once, by :meth:`expr`.
    """

    cols: dict[Monomial, dict[Monomial, int]]
    basic: dict[Monomial, int]
    den: int
    source: tuple[Partition, ...] = ()

    def is_zero(self):
        return not self.cols and not self.basic

    def expr(self, sign: int = 1, drop: Monomial | None = None) -> MultiPoly:
        """sign times the row, less its column drop, as a rational polynomial."""
        den = sign * self.den
        terms = {m: Q(n, den) for m, n in self.basic.items()}
        for col, coeff in self.cols.items():
            if col != drop:
                terms.update((monomial_mul(m, col), Q(n, den)) for m, n in coeff.items())
        return MultiPoly(terms)

    def primitive(self) -> "_Row":
        """The same row with the content common to den and the numerators divided out."""
        g = gcd(self.den, *self.basic.values())
        for coeff in self.cols.values():
            if g == 1:
                return self
            g = gcd(g, *coeff.values())
        if g == 1:
            return self
        return _Row({c: {m: n // g for m, n in v.items()} for c, v in self.cols.items()},
                    {m: n // g for m, n in self.basic.items()}, self.den // g, self.source)

    def over_pivot(self, col: Monomial) -> "_Row":
        """The row divided by its rational coefficient at col, c / den: the
        numerators over c, so the coefficient at col becomes den."""
        c = self.cols[col][EMPTY_MONOMIAL]
        if c > 0:
            return _Row(self.cols, self.basic, c, self.source).primitive()
        return _Row({k: {m: -n for m, n in v.items()} for k, v in self.cols.items()},
                    {m: -n for m, n in self.basic.items()}, -c, self.source).primitive()

    def minus(self, pivot: "_Row", col: Monomial) -> "_Row":
        """self - f * pivot, f the coefficient of self at col and that of pivot 1:
        the numerators of self times pivot.den less those of f times pivot,
        over self.den * pivot.den, with their content divided out."""
        d = pivot.den
        neg = {m: -n for m, n in self.cols[col].items()}
        cols = {c: {m: n * d for m, n in v.items()} for c, v in self.cols.items()}
        for c, v in pivot.cols.items():
            got = cols.get(c)
            if got is None:
                got = cols[c] = {}
            add_product(got, neg, v)
            if not got:
                del cols[c]
        basic = add_product({m: n * d for m, n in self.basic.items()}, neg, pivot.basic)
        return _Row(cols, basic, self.den * d,
                    tuple(dict.fromkeys(self.source + pivot.source))).primitive()


def _split_row(expr: ScaledPoly, source: tuple[Partition, ...]) -> _Row:
    """The row split into its unknown columns and its basic part, each term
    decoded once (:func:`column_of`), over the row's denominator."""
    cols: dict[Monomial, dict[Monomial, int]] = {}
    basic: dict[Monomial, int] = {}
    for mono, n in expr.nums.items():
        col = column_of(mono)
        if col is None:
            basic[mono] = n
        else:
            # col keeps the full p-part; the coefficient is parameters only, and
            # two terms of one column differ in it
            coeff = cols.get(col)
            if coeff is None:
                coeff = cols[col] = {}
            coeff[monomial_div(mono, col)] = n
    return _Row(cols, basic, expr.den, source)


def linear_solve(system: list[_Row]):
    """Fraction-free elimination of rows linear in unknown monomials.

    Each row is split by :func:`_split_row`, in integer numerators over one
    denominator, and keeps its own source.  Columns are taken in
    :func:`column_order_key` order; a column's pivot is the shortest free
    row whose coefficient there is a rational constant c / den, and the
    pivot step divides the row by it, which puts its numerators over c.
    Eliminating the column from another row r with coefficient f is then
    the integer combination r * pivot.den - f * pivot, over r.den *
    pivot.den (the division-free step of Bareiss, Math. Comp. 22, 1968),
    with the content divided out; rationals are formed once per solved
    row.  The pivots, and so the solved rows, are those of elimination
    over the rationals, which scales each pivot row to coefficient 1.

    Returns (solved, residual): solved rows are (pivot monomial, RHS
    expression, sources) with the pivot coefficient normalized to 1;
    residual rows (:class:`_Row`) could not be pivoted on a rational
    coefficient.  A residual row left with no unknown columns is a
    relation among basic monomials; one that is 0 = c, with c a nonzero
    constant (or a polynomial in the parameters alone), raises
    :class:`InconsistentSystemError`.
    """
    rows = [r for r in system if not r.is_zero()]
    columns = sorted({c for r in rows for c in r.cols}, key=column_order_key)
    pivoted: list[tuple[Monomial, _Row]] = []
    free = list(rows)
    for col in columns:
        # a rational coefficient: one term, the constant one
        candidates = [r for r in free if r.cols.get(col, {}).keys() == {EMPTY_MONOMIAL}]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: (len(r.cols) + len(r.basic)))
        free.remove(pivot_row)
        pivot_row = pivot_row.over_pivot(col)
        for i, r in enumerate(free):
            if col in r.cols:
                free[i] = r.minus(pivot_row, col)
        pivoted = [(c, pr.minus(pivot_row, col) if col in pr.cols else pr)
                   for c, pr in pivoted]
        pivoted.append((col, pivot_row))
    residual = []
    for r in free:
        if r.is_zero():
            continue
        if not r.cols and not any(s.kind == "wp" for m in r.basic for s, _ in factors(m)):
            raise InconsistentSystemError("inconsistent row: 0 = %s" % r.expr().text())
        residual.append(r)
    # each pivot row's coefficient at its column is den/den = 1
    solved = [(col, row.expr(-1, col), row.source) for col, row in pivoted]
    return solved, residual


# ---------------------------------------------------------------------------
# classification and layers


class _Term:
    """What :func:`classify` reads of one monomial, from a single decode."""

    __slots__ = ("pairs", "key", "param", "deg3", "basic", "col", "rank", "col_key")

    def __init__(self, mono: Monomial):
        pairs = self.pairs = factors(mono)
        wp = tuple((s, e) for s, e in pairs if s.kind == "wp")
        self.key = (monomial_weight(mono), tuple((s.name, e) for s, e in pairs))  # monomial_key
        self.param = any(s.kind == "param" for s, _ in pairs)
        self.deg3 = wp_degree(wp, 3)
        # basic: parameters and 2-index p-symbols only
        self.basic = not self.deg3 and all(s.kind in ("param", "wp") for s, _ in pairs)
        # column_of, and column_order_key of the column
        self.col = monomial(wp) if self.deg3 else None
        if self.col is not None:
            self.rank = column_rank(wp)
            self.col_key = (-self.rank, (monomial_weight(self.col),
                                         tuple((s.name, e) for s, e in wp)))


def classify(expr: MultiPoly, weight: int, ctx: AbelianContext,
             source: tuple[Partition, ...] = ()) -> Relation:
    """Normalize a reduced homogeneous relation into solved form.

    Each term is decoded once (:class:`_Term`), and a relation among basic
    symbols once more, for its parity.  The pivot is the first column in
    :func:`column_order_key` order whose coefficient is rational, that is,
    whose only term is the column itself.
    """
    if expr.is_zero():
        raise ValueError("cannot classify the zero relation")
    if not expr.is_homogeneous(weight):
        raise ReductionError("relation is not homogeneous of weight %d: %s"
                             % (weight, expr.text()))
    terms = {m: _Term(m) for m in expr.terms}
    cols: dict[Monomial, list[Monomial]] = {}
    for m, t in terms.items():
        if t.col is not None:
            cols.setdefault(t.col, []).append(m)
    if not cols:
        # no 3-index content at all: an even relation among basic symbols
        order = sorted(terms, key=lambda m: terms[m].key, reverse=True)
        lead = next((m for m in order if not terms[m].param), order[0])
        norm = expr * (Q(1) / expr.terms[lead])
        cls = QUARTIC_EVEN if ctx.parity(norm) == norm else OTHER
        return Relation(norm, weight, cls, lead, source)
    pivot = next((col for col in sorted(cols, key=lambda c: terms[cols[c][0]].col_key)
                  if cols[col] == [col]), None)
    if pivot is None:
        return Relation(expr, weight, OTHER, None, source)
    norm = expr * (Q(1) / expr.terms[pivot])
    p = terms[pivot]
    rest = [t for m, t in terms.items() if m != pivot]
    if p.rank == 0 and len(p.pairs) == 1 and p.pairs[0][1] == 1:  # one 4-index p
        cls = (FOUR_INDEX if all(t.basic for t in rest)
               else QUASILINEAR if all(t.deg3 <= 1 for t in rest)  # quasilinear remainder
               else OTHER)
    elif p.rank == 1:
        cls = QUAD_THREE_INDEX if all(t.basic for t in rest) else OTHER
    else:
        cls = QUASILINEAR if all(t.deg3 <= 1 for t in rest) else OTHER
    return Relation(norm, weight, cls, pivot, source)


def layer_rows(weight: int, db: RelationDB, model: TauModel
               ) -> list[tuple[tuple[Partition, ...], ScaledPoly]]:
    """The nonzero reduced rows of the layer at weight, with their partitions.

    One call (:meth:`RelationDB.layer_reduction`) grows the closure to the
    layer and gives the memoized normal forms of the time-derivatives and
    of their pair products, and the closure's collision rows.  The row of
    a rank-2 lambda, s_lambda(D~) tau/tau less its hook determinant, has
    the normal form

        (1/N!) (sum_mu W_lambda(mu) NF(tau_mu)
                - sum_{mu <= nu} K_lambda(mu, nu) NF(tau_mu tau_nu)),

    one integer character sum (:func:`~kleinian.taucalc.character_sum`)
    over the weights of :func:`~kleinian.schur.schur_weights` and
    :func:`~kleinian.schur.pair_weights`, since the normal form is linear.
    A partition with a row of its own (each one for n = 2, where both
    members of a transpose pair give the same row, and a self-conjugate
    one) gives that row.  A transpose pair gives the sum and the
    difference of its two rows.  As chi^lambda' = eps * chi^lambda, eps(mu)
    = (-1)^(N - len(mu)) (Macdonald, I.7), W_lambda'(mu) = eps(mu)
    W_lambda(mu) and K_lambda'(mu, nu) = eps(mu) eps(nu) K_lambda(mu, nu),
    so the two rows take twice the terms of lambda's row whose classes have
    eps = +1 and eps = -1 respectively.  The collision rows follow, with no
    partition.  Every row is integer numerators over one denominator.
    """
    # tau_mu = 0 whenever mu has a part divisible by n, since R_k = 0 and
    # q_kl = 0 for n | k, which WindingData and OmegaAlgTable certify when the
    # tables are built; for n = 2 only all-odd mu remain, and the sign
    # character is +1 on those, so a transpose pair gives one row
    n = model.curve.n
    tau, collision_rows = db.layer_reduction(weight, model)
    rows: list[tuple[tuple[Partition, ...], ScaledPoly]] = []
    for rep, tr in transpose_classes(enumerate_rank2(weight)):
        # the Schur part first: symbols take their packed slots in order of creation
        terms = {(mu,): w for mu, w in schur_weights(rep, n).items()}
        terms.update((pair, -k) for pair, k in pair_weights(rep, n).items())
        if n == 2 or rep == tr:
            built = [((rep,), terms)]
        else:
            built = [((rep, tr), {c: 2 * w for c, w in terms.items()
                                  if (-1) ** (weight - sum(map(len, c))) == sign})
                     for sign in (1, -1)]
        for src, weights in built:
            row = character_sum(weights, weight, tau)
            if row.nums:
                rows.append((src, row))
    rows.extend(((), row) for row in collision_rows)
    return rows


def derive_at_weight(weight: int, db: RelationDB, model: TauModel) -> list[Relation]:
    """Generate, reduce and solve the rank-2 layer at one weight.

    The database must be complete for all lower weights; the returned
    relations are not yet stored (callers decide, usually via
    :func:`derive_range`).  The rows are those of :func:`layer_rows`.
    """
    if weight < 4:
        raise ValueError("no rank-2 partitions below weight 4")
    expected = set(range(4, weight))
    missing = expected - set(db.layers)
    if missing:
        raise ReductionError("database incomplete below weight %d: missing %s"
                             % (weight, sorted(missing)))
    ctx = db.ctx
    rows = layer_rows(weight, db, model)
    if not rows:
        return []
    # rows with no 3-index content, before the solve or left by it, are
    # relations among basic symbols (the Kummer-variety stratum); each row
    # is split into its columns once, here
    system, basic_rows = [], []
    for src, red in rows:
        row = _split_row(red, src)
        if row.cols:
            system.append(row)
        else:
            basic_rows.append((src, red.poly()))
    solved, residual = linear_solve(system)
    basic_rows.extend((r.source, r.expr()) for r in residual if not r.cols)
    unresolved = [r for r in residual if r.cols]
    out = _basic_relations(basic_rows, weight, ctx)
    for col, rhs, src in solved:
        expr = MultiPoly.monomial(col) - rhs
        out.append(classify(expr, weight, ctx, src))
    if unresolved:
        self_notes = db.notes.setdefault(weight, [])
        for r in unresolved:
            self_notes.append("unresolved row (no rational pivot): %s" % r.expr().text())
    return out


def _basic_relations(rows: list[tuple[tuple[Partition, ...], MultiPoly]], weight: int,
                     ctx: AbelianContext) -> list[Relation]:
    """Independent relations from rows among basic symbols.

    Each row is reduced by the relations taken from the rows before it,
    which one index grows by, so proportional rows give one relation; an
    odd row signals a convention bug.
    """
    out: list[Relation] = []
    index = PivotIndex()
    for src, expr in rows:
        if ctx.parity(expr) != expr:
            raise InconsistentSystemError(
                "odd basic row at weight %d: %s" % (weight, expr.text()))
        expr = index.normal_form(ScaledPoly.of(expr)).poly()
        if expr.is_zero():
            continue
        rel = classify(expr, weight, ctx, src)
        index.add({rel.solved_monomial: ScaledPoly.of(rel.rhs)})
        out.append(rel)
    return out


def derive_range(db: RelationDB, model: TauModel, max_weight: int) -> RelationDB:
    for w in range(4, max_weight + 1):
        db.add_layer(w, derive_at_weight(w, db, model))
    return db

