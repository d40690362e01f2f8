"""Time-derivatives of the curve's tau model and the sigma ladder.

The tau model of a curve is the ratio

    tau(t; u)/tau(0; u) = sigma(u + sum_k R_k t_k)/sigma(u)
                          * exp(1/2 sum_{k,l>=1} q_{kl} t_k t_l)

where R_k are the winding vectors (expansion coefficients of the
normalized differentials) and q_{kl} is the (k-1, l-1) entry of the
algebraic bi-differential table, so that wt(q_{kl}) = k + l matches
wt(t_k t_l) = -(k + l).  A derivative d/dt_k acts on the sigma factor as
the directional derivative sum_i (R_k)_i d/du_i and on the Gaussian
factor by Wick pairing, so a monomial time-derivative at t = 0 is a sum
over partial matchings: matched pairs contribute q factors, unmatched
indices directional sigma-derivatives.

Ratios sigma_J/sigma reduce to polynomials in zeta_i and p_J through the
ladder recursion P_{J+i} = zeta_i P_J + d_i P_J with d_i zeta_j = -p_ij
and d_i p_J = p_{J+i}; only such ratios ever appear, so the modular
constant and the overall parity sign of sigma drop out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curves import CurveSpec, OmegaAlgTable, WindingData, local_expansion, omega_alg, winding_vectors
from .errors import TruncationError
from .poly import MultiPoly, Symbol, wp_symbol, zeta_symbol
from .rationals import Q
from .schur import hook_schur, schur_poly


class AbelianContext:
    """Symbol factory and calculus for expressions in zeta_i, p_J, parameters."""

    def __init__(self, gap_weights: tuple[int, ...], graded: bool = True):
        self.gaps = tuple(gap_weights)
        self.genus = len(self.gaps)
        # specialized curves collapse the parameter grading; weight
        # homogeneity is only asserted when graded is set
        self.graded = graded
        self._ladder: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one()}

    def wp(self, *indices) -> Symbol:
        if len(indices) == 1 and not isinstance(indices[0], int):
            indices = tuple(indices[0])
        return wp_symbol(indices, self.gaps)

    def zeta(self, i: int) -> Symbol:
        return zeta_symbol(i, self.gaps)

    def wp_poly(self, *indices) -> MultiPoly:
        return MultiPoly.sym(self.wp(*indices))

    def _dsym(self, i: int, s: Symbol) -> MultiPoly | None:
        if s.kind == "zeta":
            return -self.wp_poly(s.indices + (i,))
        if s.kind == "wp":
            return self.wp_poly(s.indices + (i,))
        return None

    def diff(self, expr: MultiPoly, i: int) -> MultiPoly:
        """Derivative along u_i: d zeta_j = -p_ij, d p_J = p_{J+i}."""
        return expr.derive(lambda s: self._dsym(i, s))

    def diff_multi(self, expr: MultiPoly, indices) -> MultiPoly:
        for i in indices:
            expr = self.diff(expr, i)
        return expr

    def ladder(self, J) -> MultiPoly:
        """sigma_J / sigma as a polynomial in zeta and p symbols."""
        J = tuple(sorted(J))
        got = self._ladder.get(J)
        if got is not None:
            return got
        head, i = J[:-1], J[-1]
        prev = self.ladder(head)
        out = MultiPoly.sym(self.zeta(i)) * prev + self.diff(prev, i)
        self._ladder[J] = out
        return out

    def parity(self, expr: MultiPoly) -> MultiPoly:
        """Involution u -> -u: zeta_i -> -zeta_i, p_J -> (-1)^|J| p_J."""
        out = {}
        for m, c in expr.terms.items():
            flips = sum(e * len(s.indices) for s, e in m if s.kind in ("zeta", "wp"))
            out[m] = -c if flips % 2 else c
        return MultiPoly(out)

    def is_zeta_free(self, expr: MultiPoly) -> bool:
        return not any(s.kind == "zeta" for m in expr.terms for s, _ in m)


def ladder_reduce(expr: "SigmaDerivExpr") -> MultiPoly:
    """Eliminate all sigma_J/sigma ratios through the ladder recursion."""
    out = MultiPoly.zero()
    for J, coeff in expr.parts.items():
        out = out + coeff * expr.ctx.ladder(J)
    return out


@dataclass
class SigmaDerivExpr:
    """Polynomial over the parameter ring in formal ratios sigma_J/sigma.

    parts maps the sorted index multiset J to its coefficient; J = () is
    the scalar part (sigma itself cancels).
    """

    ctx: AbelianContext
    parts: dict[tuple[int, ...], MultiPoly] = field(default_factory=dict)

    def add(self, J: tuple[int, ...], coeff: MultiPoly):
        J = tuple(sorted(J))
        got = self.parts.get(J)
        total = coeff if got is None else got + coeff
        if total.is_zero():
            self.parts.pop(J, None)
        else:
            self.parts[J] = total

    def __repr__(self):
        bits = []
        for J in sorted(self.parts):
            name = "s[%s]/s" % ",".join(map(str, J)) if J else "1"
            bits.append("(%s)*%s" % (self.parts[J].text(), name))
        return " + ".join(bits) or "0"


class TauModel:
    """Winding vectors plus quadratic-form table, ready for time-derivatives."""

    def __init__(self, curve: CurveSpec, winding: WindingData, omega: OmegaAlgTable,
                 max_time_index: int):
        if winding.count < max_time_index or omega.size < max_time_index:
            raise TruncationError("tau model tables shorter than max_time_index")
        self.curve = curve
        self.ctx = AbelianContext(curve.gap_weights, graded=not curve.values)
        self.winding = winding
        self.omega = omega
        self.max_time_index = max_time_index
        self._deriv_cache: dict[tuple[int, ...], SigmaDerivExpr] = {}
        self._abelian_cache: dict[tuple[int, ...], MultiPoly] = {}

    @classmethod
    def build(cls, curve: CurveSpec, max_weight: int) -> "TauModel":
        """Tables sized for deriving relations up to the given weight."""
        k = max_weight + 1
        loc = local_expansion(curve, max(k + curve.n + curve.s + 2,
                                         2 * k + 2 * curve.n + 4))
        return cls(curve, winding_vectors(curve, k, loc), omega_alg(curve, k, loc), k)

    # -- the quadratic form t_k t_l |-> q_{kl} -------------------------------

    def q(self, k: int, l: int) -> MultiPoly:
        if k > self.max_time_index or l > self.max_time_index:
            raise TruncationError("time index beyond model truncation")
        return self.omega.entry(k - 1, l - 1)

    # -- directional sigma derivatives ---------------------------------------

    def _directional(self, times: tuple[int, ...], out: SigmaDerivExpr, scale: MultiPoly):
        """Expand prod_k (sum_i (R_k)_i d/du_i) sigma / sigma into out."""
        states: dict[tuple[int, ...], MultiPoly] = {(): scale}
        for k in times:
            nxt: dict[tuple[int, ...], MultiPoly] = {}
            for J, coeff in states.items():
                for i in range(1, self.ctx.genus + 1):
                    r = self.winding.entry(k, i)
                    if r.is_zero():
                        continue
                    J2 = tuple(sorted(J + (i,)))
                    c2 = coeff * r
                    got = nxt.get(J2)
                    nxt[J2] = c2 if got is None else got + c2
            states = nxt
            if not states:
                return
        for J, coeff in states.items():
            out.add(J, coeff)

    def tau_t_derivative(self, times) -> SigmaDerivExpr:
        """d^|K|/dt_K of tau(t;u)/tau(0;u) at t = 0, K a time multiset."""
        key = tuple(sorted(times))
        got = self._deriv_cache.get(key)
        if got is not None:
            return got
        for k in key:
            if k > self.max_time_index:
                raise TruncationError("time index %d beyond model truncation" % k)
        out = SigmaDerivExpr(self.ctx)

        # Sum over partial matchings of the index positions: each matched
        # pair (a,b) contributes q_{ab}, unmatched indices act on sigma.
        # Pairing the head with equal values at different positions counts
        # with multiplicity, so positions are kept distinguished.
        def walk(rest: tuple[int, ...], qfactor: MultiPoly, unmatched: tuple[int, ...]):
            if not rest:
                self._directional(unmatched, out, qfactor)
                return
            head, tail = rest[0], rest[1:]
            walk(tail, qfactor, unmatched + (head,))
            for pos, val in enumerate(tail):
                qv = self.q(head, val)
                if qv.is_zero():
                    continue
                walk(tail[:pos] + tail[pos + 1:], qfactor * qv, unmatched)

        walk(key, MultiPoly.one(), ())
        self._deriv_cache[key] = out
        return out

    def tau_t_derivative_abelian(self, times) -> MultiPoly:
        key = tuple(sorted(times))
        got = self._abelian_cache.get(key)
        if got is None:
            got = ladder_reduce(self.tau_t_derivative(key))
            self._abelian_cache[key] = got
        return got

    # -- Schur-operator application ------------------------------------------

    def apply_time_poly(self, poly: MultiPoly) -> MultiPoly:
        """Evaluate s(D~) tau / tau at t = 0 for a polynomial s in the times.

        Each monomial prod t_k^{e_k} acts as prod (1/k d/dt_k)^{e_k}.
        """
        acc = MultiPoly.zero()
        for mono, coeff in poly.terms.items():
            times: list[int] = []
            scale = Q(1)
            for s, e in mono:
                if s.kind != "time":
                    raise ValueError("not a time polynomial: %s" % s)
                k = s.indices[0]
                times.extend([k] * e)
                scale *= Q(1, k) ** e
            acc = acc + self.tau_t_derivative_abelian(tuple(times)) * (coeff * scale)
        return acc

    def hook(self, m: int, n: int) -> MultiPoly:
        """s_(m|n)(D~) tau / tau at t = 0 (no sign factor)."""
        return self.apply_time_poly(hook_schur(m, n))

    def a_hook(self, m: int, n: int) -> MultiPoly:
        """Grassmannian basis entry A_(m|n), weight-homogeneous of m+n+1.

        Normalized as (-1)^n s_{m+1,1^n}(D~) tau / tau, which satisfies the
        antisymmetry A_(m|n)(u) = -A_(n|m)(-u) and makes A_(0|0) = +zeta_1.
        """
        if m + n + 1 > self.max_time_index:
            raise TruncationError("hook (%d|%d) beyond model truncation" % (m, n))
        val = self.hook(m, n)
        return -val if n % 2 else val

    def schur_apply(self, lam) -> MultiPoly:
        return self.apply_time_poly(schur_poly(lam))
