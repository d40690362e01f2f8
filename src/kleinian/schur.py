"""Schur polynomials in the KP times.

Elementary Schur functions p_m are generated by exp(sum_k t_k z^k); they
satisfy the recursion m p_m = sum_{j<=m} j t_j p_{m-j}, which is how they
are computed here (exact, allocation-light).  Schur polynomials come from
the Jacobi-Trudi determinant det(p_{lambda_i - i + j}); Giambelli expresses
the same polynomial through single-hook determinants.

Under wt(t_k) = -k every s_lambda is homogeneous of weight -|lambda|.
Substituting the scaled derivation symbol D_k = (1/k) d/dt_k for t_k turns
a weight -W polynomial into a weight +W (commuting) operator.
"""

from __future__ import annotations

from .partitions import Partition, hook
from .poly import MultiPoly, time_symbol
from .rationals import Q

_pm_cache: list[MultiPoly] = []
_schur_cache: dict[tuple[int, ...], MultiPoly] = {}


def elementary_schur(m: int) -> MultiPoly:
    """p_m as an explicit polynomial in t_1..t_m (p_m = 0 for m < 0)."""
    if m < 0:
        return MultiPoly.zero()
    while len(_pm_cache) <= m:
        k = len(_pm_cache)
        if k == 0:
            _pm_cache.append(MultiPoly.one())
            continue
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + MultiPoly.sym(time_symbol(j), coeff=j) * _pm_cache[k - j]
        _pm_cache.append(acc * Q(1, k))
    return _pm_cache[m]


def _det(entries: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant by expansion over the first row with minor memoization."""
    n = len(entries)
    cache: dict[tuple[int, tuple[int, ...]], MultiPoly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> MultiPoly:
        if not cols:
            return MultiPoly.one()
        key = (row, cols)
        got = cache.get(key)
        if got is not None:
            return got
        acc = MultiPoly.zero()
        for pos, c in enumerate(cols):
            entry = entries[row][c]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def schur_poly(lam: Partition) -> MultiPoly:
    """Jacobi-Trudi determinant det(p_{lambda_i - i + j})."""
    key = lam.parts
    got = _schur_cache.get(key)
    if got is not None:
        return got
    n = len(lam.parts)
    if n == 0:
        result = MultiPoly.one()
    else:
        rows = [[elementary_schur(lam.parts[i] - (i + 1) + (j + 1)) for j in range(n)]
                for i in range(n)]
        result = _det(rows)
    _schur_cache[key] = result
    return result


def hook_schur(arm: int, leg: int) -> MultiPoly:
    """s_(arm|leg), i.e. the Schur polynomial of (arm+1, 1^leg)."""
    return schur_poly(hook(arm, leg))


def giambelli_det(lam: Partition) -> MultiPoly:
    """Giambelli expansion det(s_(a_i|b_j)) of a Schur polynomial in hooks."""
    arms, legs = lam.frobenius()
    rows = [[hook_schur(a, b) for b in legs] for a in arms]
    return _det(rows)
