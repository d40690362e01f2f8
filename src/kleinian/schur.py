"""Schur operators in the power-sum basis: integer character weights.

A Schur function is a character sum over the power sums (Macdonald,
*Symmetric Functions*, I.7),

    s_lambda = sum_{mu |- N} chi^lambda(mu) p_mu / z_mu,    N = |lambda|,

and in the KP times p_k = k t_k.  Substituting the scaled derivation
D_k = (1/k) d/dt_k for t_k turns p_mu into d^|mu|/dt_mu, so on the tau
ratio

    s_lambda(D~) tau / tau = (1/N!) sum_mu W_lambda(mu) tau_mu,

where W_lambda(mu) = chi^lambda(mu) N!/z_mu, the character times the size
of the class mu, is an integer.  No Schur polynomial is ever formed.

A single hook (a|b) = (a+1, 1^b) has the character

    chi^(a|b)(mu) = [q^b] prod_i (1 - (-q)^mu_i) / (1 + q),

one integer polynomial per mu (at mu = (N) and (1^N) it gives (-1)^b
and C(N-1, b)).  In these weights a product of symmetric functions is an
integer convolution over the splits mu = alpha u beta,

    W_fg(mu) = sum C(N, |alpha|) W_f(alpha) W_g(beta),

so Giambelli's formula s_lambda = det(s_(a_i|b_j)) over lambda's
Frobenius coordinates (Macdonald, I.3) gives every rank from the hooks.
The hook weights are memoized when first asked for.

The same product, with its classes kept apart, gives a rank-2 lambda's
hook determinant on the tau ratio as one sum over class pairs,

    det(s_(a_i|b_j)(D~) tau / tau) = (1/N!) sum_{mu <= nu} K_lambda(mu, nu) tau_mu tau_nu,

where K_lambda(mu, nu) sums C(N, |mu|) W_(a|b)(mu) W_(c|d)(nu), with the
sign of the determinant, over the diagonal and anti-diagonal hook
products (a|b)(c|d) and both orders of the pair (:func:`pair_weights`).
Merging each pair into mu u nu gives back W_lambda.

The weights are formed only on the classes mu with no part divisible by
the curve's n.  On the curve, tau_mu vanishes on every other class: each
cumulant carrying a time t_k with n | k is zero, because R_k = 0 and
q_{kl} = 0 there, which the curve tables certify when they are built
(:class:`~kleinian.curves.WindingData`,
:class:`~kleinian.curves.OmegaAlgTable`).  The restriction commutes with
the convolution: alpha u beta has no part divisible by n exactly when
neither alpha nor beta has one, so restricting the hooks restricts every
Giambelli determinant exactly.  An n larger than |lambda| keeps every mu.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

from .partitions import Partition, all_partitions

#: class-function weights mu -> W(mu), mu a weakly decreasing tuple
Weights = dict[tuple[int, ...], int]
#: class-pair weights (mu, nu) -> K(mu, nu), mu <= nu
PairWeights = dict[tuple[tuple[int, ...], tuple[int, ...]], int]


def class_size(mu: tuple[int, ...]) -> int:
    """n!/z_mu, the number of permutations of cycle type mu."""
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k ** m * factorial(m)
    return factorial(sum(mu)) // z


def _hook_character(mu: tuple[int, ...], leg: int) -> int:
    """[q^leg] of prod_i (1 - (-q)^mu_i) / (1 + q), truncated past q^leg."""
    # (1 - (-q)^m) / (1 + q) = sum_{j<m} (-q)^j absorbs the division
    coeffs = [(-1) ** j if j < mu[0] else 0 for j in range(leg + 1)]
    for m in mu[1:]:
        sign = (-1) ** (m + 1)
        for j in range(leg, m - 1, -1):
            coeffs[j] += sign * coeffs[j - m]
    return coeffs[leg]


def _product(f: Weights, nf: int, g: Weights, ng: int) -> Weights:
    """Weights of the product of class functions of degrees nf and ng."""
    scale = comb(nf + ng, nf)
    out: Weights = {}
    for alpha, x in f.items():
        for beta, y in g.items():
            mu = tuple(sorted(alpha + beta, reverse=True))
            out[mu] = out.get(mu, 0) + scale * x * y
    return out


@cache
def _hook_weights(arm: int, leg: int, n: int) -> Weights:
    """Weights of the hook (arm|leg) on the mu with no part divisible by n,
    memoized: the Giambelli minors share them."""
    out = {}
    for mu in all_partitions(arm + leg + 1, n):
        chi = _hook_character(mu, leg)
        if chi:
            out[mu] = chi * class_size(mu)
    return out


def _giambelli(arms: tuple[int, ...], legs: tuple[int, ...], n: int) -> Weights:
    """Weights of det(s_(a_i|b_j)), expanded along its first row."""
    if not arms:
        return {(): 1}
    if len(arms) == 1:
        return _hook_weights(arms[0], legs[0], n)
    acc: Weights = {}
    rest = arms[1:]
    for pos, leg in enumerate(legs):
        others = legs[:pos] + legs[pos + 1:]
        sign = -1 if pos % 2 else 1
        term = _product(_hook_weights(arms[0], leg, n), arms[0] + leg + 1,
                        _giambelli(rest, others, n), sum(rest) + sum(others) + len(rest))
        for mu, w in term.items():
            acc[mu] = acc.get(mu, 0) + sign * w
    return {mu: w for mu, w in acc.items() if w}


def pair_weights(lam: Partition, n: int) -> PairWeights:
    """K_lambda(mu, nu) of a rank-2 lambda's hook determinant, over the
    unordered class pairs mu <= nu with no part divisible by n and K != 0:
    Giambelli's product before its classes are merged (see the module).

    Merging each pair into mu u nu gives back :func:`schur_weights`.
    """
    (a1, a2), (b1, b2) = lam.frobenius()
    out: PairWeights = {}
    for sign, (arm, leg), other in ((1, (a1, b1), (a2, b2)), (-1, (a1, b2), (a2, b1))):
        scale = sign * comb(lam.weight, arm + leg + 1)
        for mu, x in _hook_weights(arm, leg, n).items():
            for nu, y in _hook_weights(*other, n).items():
                key = (mu, nu) if mu <= nu else (nu, mu)
                out[key] = out.get(key, 0) + scale * x * y
    return {key: k for key, k in out.items() if k}


def schur_weights(lam: Partition, n: int) -> Weights:
    """W_lambda(mu) = chi^lambda(mu) N!/z_mu over the mu |- N = |lambda|
    with no part divisible by n and W != 0.

    A hook's map is memoized and shared: do not mutate it.
    """
    return _giambelli(*lam.frobenius(), n)
