"""Time-derivatives of the curve's tau model, in the zeta-free gauge.

The tau model of a curve is the ratio

    tau(t; u)/tau(0; u) = sigma(u + sum_k R_k t_k)/sigma(u)
                          * exp(1/2 sum_{k,l>=1} q_{kl} t_k t_l)

where R_k are the winding vectors (expansion coefficients of the
normalized differentials) and q_{kl} is the (k-1, l-1) entry of the
algebraic bi-differential table, so that wt(q_{kl}) = k + l matches
wt(t_k t_l) = -(k + l).  Every Plucker row is a Hirota bilinear identity,
so it is unchanged by the gauge tau -> exp(sum_k c_k t_k) tau, which
shifts each zeta_i by an arbitrary constant; the model computes the
gauged ratio whose first logarithmic derivatives vanish.  Its cumulants
kappa(K) = d^|K|/dt_K log tau at t = 0 are then zeta-free:

    kappa(k) = 0,  kappa(k, l) = q_{kl} - sum_{i,j} (R_k)_i (R_l)_j p_ij,
    kappa(A + k) = sum_i (R_k)_i d_i kappa(A)        (|A| >= 2),

with d_i p_J = p_{J+i}; the modular constant and the overall parity sign
of sigma drop out.  The moments tau_K = d^|K|/dt_K tau/tau at t = 0 follow
by splitting off the block that holds the first entry K[0]:

    tau_K = sum_{B' <= K - K[0], B' != ()} prod_v C(m_v, b_v)
            * kappa(K[0] + B') * tau_{K - K[0] - B'},   tau_() = 1,

with m_v, b_v the multiplicities of v in K - K[0] and B'.  Cumulants and
moments are memoized per sorted multiset, as :class:`ScaledPoly` values
(integer numerators over one denominator): kappa(k, l) is converted once
from the tables, the derivative d_i acts on the integer numerators, and
each further cumulant and moment is an integer sum of products, so no
rational is formed past the tables.  A moment is the time-derivative
itself.

Since R_k = 0 and q_{kl} = 0 whenever n divides k (the curve tables
certify it when built), every cumulant, and so every tau_K, with a part
divisible by the curve's n vanishes.  A Schur operator acts as
s_lambda(D~) tau/tau = (1/N!) sum_mu W_lambda(mu) tau_mu over the
partitions mu of N = |lambda| with no part divisible by n, with the
integer character weights of :mod:`kleinian.schur`, so no vanishing
tau_mu is built.  The model keeps no Schur or hook values: a relation
layer forms each Plucker row as one integer combination
(:func:`character_sum`) of the normal forms of the derivatives tau_mu and
of the products tau_mu tau_nu, with the weights of the Schur part and of
the hook determinant, and needs rationals only once per row.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Hashable
from math import comb, factorial, lcm, prod

from .curves import (CurveSpec, OmegaAlgTable, WindingData, local_expansion, omega_alg,
                     required_expansion_order, winding_vectors)
from .errors import TruncationError
from .poly import (EMPTY_MONOMIAL, MultiPoly, ScaledPoly, Symbol, factors, scaled_products,
                   wp_symbol)


class AbelianContext:
    """Symbol factory and calculus for expressions in p_J and parameters."""

    def __init__(self, gap_weights: tuple[int, ...]):
        self.gaps = tuple(gap_weights)
        self.genus = len(self.gaps)
        # the image of each symbol under d_i, by i
        self._images: dict[int, dict[Symbol, MultiPoly]] = {}

    def wp(self, *indices) -> Symbol:
        if len(indices) == 1 and not isinstance(indices[0], int):
            indices = tuple(indices[0])
        return wp_symbol(indices, self.gaps)

    def wp_poly(self, *indices) -> MultiPoly:
        return MultiPoly.sym(self.wp(*indices))

    def diff(self, expr: MultiPoly, i: int) -> MultiPoly:
        """Derivative along u_i: d p_J = p_{J+i}; parameters are constants.

        The image of each symbol is formed once per context and shared.
        """
        images = self._images.setdefault(i, {})

        def image(s: Symbol) -> MultiPoly:
            got = images.get(s)
            if got is None:
                # the image of p_J has the integer coefficient 1, so integer
                # coefficients stay integers
                got = images[s] = (MultiPoly({self.wp(s.indices + (i,)).unit: 1})
                                   if s.kind == "wp" else MultiPoly.zero())
            return got

        return expr.derive(image)

    def diff_scaled(self, expr: ScaledPoly, i: int) -> ScaledPoly:
        """d_i of expr on its integer numerators, over the same denominator."""
        return ScaledPoly(expr.den, self.diff(MultiPoly(expr.nums), i).terms)

    def parity(self, expr: MultiPoly) -> MultiPoly:
        """Involution u -> -u: p_J -> (-1)^|J| p_J."""
        out = {}
        for m, c in expr.terms.items():
            flips = sum(e * len(s.indices) for s, e in factors(m) if s.kind == "wp")
            out[m] = -c if flips % 2 else c
        return MultiPoly(out)


class TauModel:
    """Winding vectors plus quadratic-form table, ready for time-derivatives."""

    def __init__(self, curve: CurveSpec, winding: WindingData, omega: OmegaAlgTable,
                 max_time_index: int):
        if winding.count < max_time_index or omega.size < max_time_index:
            raise TruncationError("tau model tables shorter than max_time_index")
        self.curve = curve
        self.ctx = AbelianContext(curve.gap_weights)
        self.winding = winding
        self.omega = omega
        self.max_time_index = max_time_index
        self._kappa: dict[tuple[int, ...], ScaledPoly] = {}
        self._moments: dict[tuple[int, ...], ScaledPoly] = {
            (): ScaledPoly(1, {EMPTY_MONOMIAL: 1})}
        self._scaled_winding: dict[int, list[tuple[int, ScaledPoly]]] = {}

    @classmethod
    def build(cls, curve: CurveSpec, max_weight: int) -> "TauModel":
        """Tables sized for deriving relations up to the given weight."""
        k = max_weight + 1
        loc = local_expansion(curve, max(k + curve.n + curve.s + 2,
                                         required_expansion_order(curve, k)))
        return cls(curve, winding_vectors(curve, k, loc), omega_alg(curve, k, loc), k)

    # -- the quadratic form t_k t_l |-> q_{kl} -------------------------------

    def q(self, k: int, l: int) -> MultiPoly:
        if k > self.max_time_index or l > self.max_time_index:
            raise TruncationError("time index beyond model truncation")
        return self.omega.entry(k - 1, l - 1)

    # -- cumulants and moments of the gauged tau ratio ----------------------

    def _cumulant(self, A: tuple[int, ...]) -> ScaledPoly:
        """kappa(A) for a sorted time multiset A, |A| >= 2, built on its sorted prefix."""
        got = self._kappa.get(A)
        if got is not None:
            return got
        k, genus, R = A[-1], self.ctx.genus, self.winding.entry
        if len(A) == 2:
            kappa = self.q(A[0], k)
            for i, j in product(range(1, genus + 1), repeat=2):
                r = R(A[0], i) * R(k, j)
                if not r.is_zero():
                    kappa = kappa - r * self.ctx.wp_poly(i, j)
            got = ScaledPoly.of(kappa)
        else:
            prev = self._cumulant(A[:-1])
            got = scaled_products((1, self.ctx.diff_scaled(prev, i), r)
                                  for i, r in self._winding_row(k)).primitive()
        self._kappa[A] = got
        return got

    def _winding_row(self, k: int) -> list[tuple[int, ScaledPoly]]:
        """The nonzero (R_k)_i as (i, scaled entry) pairs, memoized."""
        got = self._scaled_winding.get(k)
        if got is None:
            got = self._scaled_winding[k] = [
                (i, ScaledPoly.of(r)) for i in range(1, self.ctx.genus + 1)
                if not (r := self.winding.entry(k, i)).is_zero()]
        return got

    def _moment(self, K: tuple[int, ...]) -> ScaledPoly:
        """tau_K for a sorted time multiset K, splitting off the block of K[0]."""
        got = self._moments.get(K)
        if got is not None:
            return got
        head, rest = K[0], K[1:]
        values = sorted(set(rest))
        mults = [rest.count(v) for v in values]
        triples = []
        for split in product(*(range(m + 1) for m in mults)):
            if not any(split):
                continue
            left = self._moment(tuple(v for v, m, b in zip(values, mults, split)
                                      for _ in range(m - b)))
            if not left.nums:
                continue
            kappa = self._cumulant((head,) + tuple(v for v, b in zip(values, split)
                                                   for _ in range(b)))
            if not kappa.nums:
                continue
            triples.append((prod(comb(m, b) for m, b in zip(mults, split)), kappa, left))
        got = self._moments[K] = scaled_products(triples).primitive()
        return got

    def tau_t_derivative(self, times) -> ScaledPoly:
        """d^|K|/dt_K of the gauged tau ratio at t = 0, K a time multiset."""
        key = tuple(sorted(times))
        if key and key[-1] > self.max_time_index:
            raise TruncationError("time index %d beyond model truncation" % key[-1])
        return self._moment(key)


def character_sum(weights: dict[Hashable, int], N: int,
                  tau: Callable[[Hashable], ScaledPoly]) -> ScaledPoly:
    """(1/N!) sum_c weights[c] * tau(c), summed in integers over N! times
    the least common multiple of the tau(c).den, made primitive."""
    pairs = [(w, tau(c)) for c, w in weights.items()]
    den = lcm(*(t.den for _, t in pairs))
    out: dict = {}
    get = out.get
    for w, t in pairs:
        f = w * (den // t.den)
        for m, n in t.nums.items():
            out[m] = get(m, 0) + n * f
    return ScaledPoly(factorial(N) * den, {m: n for m, n in out.items() if n}).primitive()
