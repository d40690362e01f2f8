"""Schur polynomials in the times and symmetric-group characters: the
oracles for the power-sum weights of :mod:`kleinian.schur`.

The complete symmetric functions h_m (here called elementary Schur
functions p_m) are generated by exp(sum_k t_k z^k) and satisfy the
recursion m p_m = sum_{j<=m} j t_j p_{m-j}; the elementary symmetric
functions e_m are generated by exp(sum_k (-1)^(k-1) t_k z^k), so they obey
the same recursion with t_k -> (-1)^(k-1) t_k.  A single hook has the
closed form s_(a|b) = sum_{k=0..b} (-1)^k p_{a+1+k} e_{b-k}, and
Giambelli's formula writes s_lambda as the determinant det(s_(a_i|b_j))
of the hooks on lambda's Frobenius coordinates (Macdonald, *Symmetric
Functions*, I.3).  Jacobi-Trudi, s_lambda = det(p_{lambda_i - i + j}),
checks Giambelli, and Murnaghan-Nakayama's border-strip recursion gives
the characters chi^lambda(mu) independently of both.  Results are
memoized per process, so the test modules that share the oracle expand
each polynomial once.
"""

from functools import cache
from math import factorial

from kleinian.partitions import Partition
from kleinian.poly import MultiPoly, Symbol
from kleinian.rationals import Q

_pm_cache: list[MultiPoly] = []
_em_cache: list[MultiPoly] = []
_hook_cache: dict[tuple[int, int], MultiPoly] = {}
_schur_cache: dict[tuple[int, ...], MultiPoly] = {}
_jt_cache: dict[tuple[int, ...], MultiPoly] = {}


def time_symbol(k: int) -> Symbol:
    """The KP time t_k, of weight -k."""
    return Symbol("t%d" % k, -k, "time", (k,))


def _newton(cache: list[MultiPoly], m: int, sign: int) -> MultiPoly:
    """The m-th term of m x_m = sum_j sign^(j-1) j t_j x_{m-j}, x_0 = 1."""
    if m < 0:
        return MultiPoly.zero()
    while len(cache) <= m:
        k = len(cache)
        if k == 0:
            cache.append(MultiPoly.one())
            continue
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + MultiPoly.sym(time_symbol(j), coeff=j * sign ** (j - 1)) * cache[k - j]
        cache.append(acc * Q(1, k))
    return cache[m]


def elementary_schur(m: int) -> MultiPoly:
    """p_m as an explicit polynomial in t_1..t_m (p_m = 0 for m < 0)."""
    return _newton(_pm_cache, m, 1)


def elementary_symmetric(m: int) -> MultiPoly:
    """e_m, the sign-flipped p_m: t_k -> (-1)^(k-1) t_k (e_m = 0 for m < 0)."""
    return _newton(_em_cache, m, -1)


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


def hook(arm: int, leg: int) -> Partition:
    """Single-hook partition (arm | leg) = (arm+1, 1^leg)."""
    return Partition((arm + 1,) + (1,) * leg)


def hook_schur(arm: int, leg: int) -> MultiPoly:
    """s_(arm|leg) = sum_{k=0..leg} (-1)^k p_{arm+1+k} e_{leg-k}, memoized."""
    key = (arm, leg)
    got = _hook_cache.get(key)
    if got is None:
        got = MultiPoly.zero()
        for k in range(leg + 1):
            term = elementary_schur(arm + 1 + k) * elementary_symmetric(leg - k)
            got = got + (-term if k % 2 else term)
        _hook_cache[key] = got
    return got


def giambelli_det(lam: Partition) -> MultiPoly:
    """Giambelli expansion det(s_(a_i|b_j)) of a Schur polynomial in hooks."""
    arms, legs = lam.frobenius()
    return _det([[hook_schur(a, b) for b in legs] for a in arms])


def schur_poly(lam: Partition) -> MultiPoly:
    """s_lambda in the times, by Giambelli's determinant, memoized."""
    key = lam.parts
    got = _schur_cache.get(key)
    if got is None:
        got = _schur_cache[key] = giambelli_det(lam)
    return got


def jacobi_trudi(lam: Partition) -> MultiPoly:
    """det(p_{lambda_i - i + j}) for the partition lam."""
    parts = lam.parts
    got = _jt_cache.get(parts)
    if got is not None:
        return got
    n = len(parts)
    entries = [[elementary_schur(parts[i] - i + j) for j in range(n)] for i in range(n)]
    minors: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one()}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        # rows n - len(cols) .. n - 1 against the given columns
        got = minors.get(cols)
        if got is None:
            row = entries[n - len(cols)]
            got = MultiPoly.zero()
            for pos, c in enumerate(cols):
                if not row[c].is_zero():
                    term = row[c] * minor(cols[:pos] + cols[pos + 1:])
                    got = got + (-term if pos % 2 else term)
            minors[cols] = got
        return got

    got = _jt_cache[parts] = minor(tuple(range(n)))
    return got


def power_sum_poly(weights: dict[tuple[int, ...], int], n: int) -> MultiPoly:
    """sum_mu W(mu)/n! p_mu in the times, p_k = k t_k."""
    acc = MultiPoly.zero()
    for mu, w in weights.items():
        term = MultiPoly.const(Q(w, factorial(n)))
        for k in mu:
            term = term * MultiPoly.sym(time_symbol(k), coeff=k)
        acc = acc + term
    return acc


@cache
def murnaghan_nakayama(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by removing border strips of length mu[0] from lam.

    On the beta-set of first-column hook lengths lam_i + (l - i), a border
    strip of length k is a move beta -> beta - k onto a free position, of
    height the number of beta-numbers it jumps over.
    """
    if not mu:
        return 1 if not lam else 0
    k, rest, n = mu[0], mu[1:], len(lam)
    beta = [p + n - 1 - i for i, p in enumerate(lam)]
    total = 0
    for b in beta:
        if b - k < 0 or b - k in beta:
            continue
        height = sum(1 for c in beta if b - k < c < b)
        moved = sorted((c if c != b else b - k for c in beta), reverse=True)
        smaller = tuple(c - (n - 1 - i) for i, c in enumerate(moved))
        total += (-1) ** height * murnaghan_nakayama(tuple(p for p in smaller if p), rest)
    return total
