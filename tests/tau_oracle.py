"""The zeta-carrying tau ratio: the oracle for the gauged moment recursion.

tau(t; u)/tau(0; u) = sigma(u + sum_k R_k t_k)/sigma(u)
                      * exp(1/2 sum_{k,l>=1} q_{kl} t_k t_l)

is differentiated by Leibniz: d^|K|/dt_K at t = 0 is the sub-multiset
convolution sum_{A <= K} prod_k C(m_k, a_k) * S(A) * G(K - A).  The sigma
factor S(A) = (prod_{k in A} D_k sigma)/sigma, D_k = sum_i (R_k)_i d/du_i,
obeys the ladder S(A+k) = sum_i (R_k)_i (zeta_i S(A) + d_i S(A)); the
Gaussian factor G(B) is the Wick/Isserlis pairing sum of the q_{kl}.  Its
zeta-free part is what the gauged model computes.

The package has no zeta symbol: the module makes its own, with the
derivative d_i zeta_j = -p_ij that the ladder needs.  It also keeps the
Grassmannian normalization A_(m|n) of the model's hooks.
"""

from itertools import product
from math import comb, prod

from kleinian.poly import MultiPoly, ScaledPoly, Symbol, add_terms, factors


def zeta(ctx, i: int) -> MultiPoly:
    """zeta_i = d_i log sigma, of the gap weight w_i."""
    return MultiPoly.sym(Symbol("z%d" % i, ctx.gaps[i - 1], "zeta", (i,)))


def zeta_diff(ctx, expr: MultiPoly, i: int) -> MultiPoly:
    """Derivative along u_i: d zeta_j = -p_ij, d p_J = p_{J+i}."""
    def d(s):
        if s.kind == "zeta":
            return -ctx.wp_poly(s.indices + (i,))
        return ctx.wp_poly(s.indices + (i,)) if s.kind == "wp" else None

    return expr.derive(d)


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
                step = zeta(ctx, i) * prev + zeta_diff(ctx, prev, i)
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
                      if not any(s.kind == "zeta" for s, _ in factors(m))})


def is_zeta_free(expr: MultiPoly) -> bool:
    """Whether expr is a polynomial in the p_J and the curve parameters alone."""
    return all(s.kind in ("wp", "param") for m in expr.terms for s, _ in factors(m))


def a_hook(model, m: int, n: int) -> MultiPoly:
    """Grassmannian basis entry A_(m|n) = (-1)^n s_(m|n)(D~) tau / tau.

    Weight-homogeneous of m+n+1, with the antisymmetry
    A_(m|n)(u) = -A_(n|m)(-u); in the gauged model A_(0|0) = tau_(1) = 0
    (ungauged, it is +zeta_1).
    """
    val = model.hook(m, n).poly()
    return -val if n % 2 else val


def zeta_model(model):
    """A copy of the model whose tau derivatives are the oracle's (fresh hook memo)."""
    oracle = ZetaTau(model)
    copy = type(model)(model.curve, model.winding, model.omega, model.max_time_index)
    copy.tau_t_derivative = lambda times: ScaledPoly.of(oracle.derivative(times))
    return copy
