"""Elimination over the rationals: the oracle for the integer linear_solve.

:func:`linear_solve` eliminates rows held as rational :class:`MultiPoly`
coefficients: a pivot row is scaled so that its pivot coefficient is 1,
and every other row that holds the pivot column subtracts that column's
coefficient times the pivot row.  :func:`kleinian.engine.linear_solve`
makes the same pivot choices on integer numerators over one denominator
per row; both must return the same solved rows, in the same order, and
residual rows with the same expressions.
"""

from dataclasses import dataclass

from kleinian.engine import column_of, column_order_key
from kleinian.errors import InconsistentSystemError
from kleinian.poly import Monomial, MultiPoly, factors, monomial_div
from kleinian.rationals import Q


@dataclass
class Row:
    cols: dict[Monomial, MultiPoly]
    basic: MultiPoly
    source: tuple = ()

    def is_zero(self):
        return not self.cols and self.basic.is_zero()

    def expr(self) -> MultiPoly:
        acc = self.basic
        for col, coeff in self.cols.items():
            acc = acc + coeff * MultiPoly.monomial(col)
        return acc

    def scaled(self, factor) -> "Row":
        return Row({c: v * factor for c, v in self.cols.items()},
                   self.basic * factor, self.source)

    def minus(self, other: "Row", factor: MultiPoly) -> "Row":
        cols = dict(self.cols)
        for c, v in other.cols.items():
            nv = cols.get(c, MultiPoly.zero()) - v * factor
            if nv.is_zero():
                cols.pop(c, None)
            else:
                cols[c] = nv
        return Row(cols, self.basic - other.basic * factor,
                   tuple(dict.fromkeys(self.source + other.source)))


def split_row(expr: MultiPoly, source: tuple) -> Row:
    """The row split into its unknown columns and its basic part."""
    cols: dict[Monomial, MultiPoly] = {}
    basic = {}
    for mono, c in expr.terms.items():
        col = column_of(mono)
        if col is None:
            basic[mono] = c
        else:
            coeff = MultiPoly.monomial(monomial_div(mono, col), c)
            got = cols.get(col)
            cols[col] = coeff if got is None else got + coeff
    cols = {c: v for c, v in cols.items() if not v.is_zero()}
    return Row(cols, MultiPoly(basic), source)


def linear_solve(system: list[MultiPoly], sources: list[tuple] | None = None):
    """(solved, residual) as :func:`kleinian.engine.linear_solve` returns them,
    with residual rows as :class:`Row`."""
    sources = sources or [()] * len(system)
    rows = [split_row(e, src) for e, src in zip(system, sources)]
    rows = [r for r in rows if not r.is_zero()]
    columns = sorted({c for r in rows for c in r.cols}, key=column_order_key)
    pivoted: list[tuple[Monomial, Row]] = []
    free = list(rows)
    for col in columns:
        candidates = [r for r in free
                      if col in r.cols and r.cols[col].is_rational()]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: (len(r.cols) + len(r.basic.terms)))
        free.remove(pivot_row)
        pivot_row = pivot_row.scaled(Q(1) / pivot_row.cols[col].rational_value())
        for i, r in enumerate(free):
            if col in r.cols:
                free[i] = r.minus(pivot_row, r.cols[col])
        pivoted = [(c, pr.minus(pivot_row, pr.cols[col]) if col in pr.cols else pr)
                   for c, pr in pivoted]
        pivoted.append((col, pivot_row))
    residual = []
    for r in free:
        if r.is_zero():
            continue
        if not r.cols and not any(s.kind == "wp" for m in r.basic.terms for s, _ in factors(m)):
            raise InconsistentSystemError("inconsistent row: 0 = %s" % r.basic.text())
        residual.append(r)
    solved = []
    for col, row in pivoted:
        rest = Row({c: v for c, v in row.cols.items() if c != col}, row.basic, row.source)
        solved.append((col, -rest.expr(), row.source))
    return solved, residual
