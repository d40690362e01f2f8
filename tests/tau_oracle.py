"""The zeta-carrying tau ratio: the oracle for the gauged moment recursion.

tau(t; u)/tau(0; u) = sigma(u + sum_k R_k t_k)/sigma(u)
                      * exp(1/2 sum_{k,l>=1} q_{kl} t_k t_l)

is differentiated by Leibniz: d^|K|/dt_K at t = 0 is the sub-multiset
convolution sum_{A <= K} prod_k C(m_k, a_k) * S(A) * G(K - A).  The sigma
factor S(A) = (prod_{k in A} D_k sigma)/sigma, D_k = sum_i (R_k)_i d/du_i,
obeys the ladder S(A+k) = sum_i (R_k)_i (zeta_i S(A) + d_i S(A)); the
Gaussian factor G(B) is the Wick/Isserlis pairing sum of the q_{kl}.  Its
zeta-free part is what the gauged model computes.
"""

from itertools import product
from math import comb, prod

from kleinian.poly import MultiPoly, ScaledPoly, add_terms


class ZetaTau:
    """The ungauged tau ratio of a model, memoized per sorted time multiset."""

    def __init__(self, model):
        self.model = model
        self._sigma: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one()}
        self._gauss: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one()}
        self._tau: dict[tuple[int, ...], MultiPoly] = {}

    def sigma_ratio(self, A: tuple[int, ...]) -> MultiPoly:
        """S(A) for a sorted time multiset A, built on its sorted prefix."""
        got = self._sigma.get(A)
        if got is not None:
            return got
        prev, k, ctx = self.sigma_ratio(A[:-1]), A[-1], self.model.ctx
        out: dict = {}
        for i in range(1, ctx.genus + 1):
            r = self.model.winding.entry(k, i)
            if not r.is_zero():
                step = MultiPoly.sym(ctx.zeta(i)) * prev + ctx.diff(prev, i)
                add_terms(out, (step * r).terms.items())
        got = self._sigma[A] = MultiPoly(out)
        return got

    def gaussian(self, B: tuple[int, ...]) -> MultiPoly:
        """G(B) for a sorted time multiset B, pairing its first entry."""
        if len(B) % 2:
            return MultiPoly.zero()
        got = self._gauss.get(B)
        if got is not None:
            return got
        head, rest = B[0], B[1:]
        out: dict = {}
        for v in sorted(set(rest)):
            qv = self.model.q(head, v)
            if qv.is_zero():
                continue
            j = rest.index(v)
            g = self.gaussian(rest[:j] + rest[j + 1:])
            add_terms(out, (qv * g * rest.count(v)).terms.items())
        got = self._gauss[B] = MultiPoly(out)
        return got

    def derivative(self, times) -> MultiPoly:
        """d^|K|/dt_K of the ungauged tau ratio at t = 0, a polynomial in zeta and p."""
        key = tuple(sorted(times))
        got = self._tau.get(key)
        if got is not None:
            return got
        values = sorted(set(key))
        mults = [key.count(v) for v in values]
        out: dict = {}
        for split in product(*(range(m + 1) for m in mults)):
            rest = tuple(v for v, m, a in zip(values, mults, split) for _ in range(m - a))
            g = self.gaussian(rest)
            if not g:
                continue
            s = self.sigma_ratio(tuple(v for v, a in zip(values, split) for _ in range(a)))
            if not s:
                continue
            scale = prod(comb(m, a) for m, a in zip(mults, split))
            add_terms(out, (s * (g * scale)).terms.items())
        got = self._tau[key] = MultiPoly(out)
        return got


def zeta_free_part(expr: MultiPoly) -> MultiPoly:
    """The terms of expr with no zeta symbol: its value at zeta = 0."""
    return MultiPoly({m: c for m, c in expr.terms.items()
                      if not any(s.kind == "zeta" for s, _ in m)})


def zeta_model(model):
    """A copy of the model whose tau derivatives are the oracle's (fresh hook memo)."""
    oracle = ZetaTau(model)
    copy = type(model)(model.curve, model.winding, model.omega, model.max_time_index)
    copy.tau_t_derivative = lambda times: ScaledPoly.of(oracle.derivative(times))
    return copy
