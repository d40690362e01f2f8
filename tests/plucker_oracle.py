"""Unreduced Plucker rows: the oracle for the layer rows of kleinian.engine.

The row of a rank-2 partition lambda is the paper's tau-function identity

    s_lambda(D~) tau / tau - det(s_(a_i|b_j)(D~) tau / tau),

built here as the package built it before its layers summed each row from
class-pair weights: the Schur part and every single-hook value are
character sums over the model's time-derivatives, and the 2x2 hook
determinant is expanded as a product of hook values.  A layer's reduced
rows must be the normal forms of these rows.
"""

from weakref import WeakKeyDictionary

from schur_oracle import hook

from kleinian.poly import ScaledPoly, scaled_products, scaled_sum
from kleinian.schur import schur_weights
from kleinian.taucalc import character_sum

# the hook values of each model, by (arm, leg); a copy of a model has its own
_hooks: WeakKeyDictionary = WeakKeyDictionary()


def schur_apply(model, lam) -> ScaledPoly:
    """s_lambda(D~) tau / tau at t = 0, as (1/N!) sum_mu W_lambda(mu) tau_mu."""
    return character_sum(schur_weights(lam, model.curve.n), lam.weight, model.tau_t_derivative)


def hook_value(model, m: int, n: int) -> ScaledPoly:
    """s_(m|n)(D~) tau / tau at t = 0 (no sign factor), memoized per model."""
    memo = _hooks.setdefault(model, {})
    got = memo.get((m, n))
    if got is None:
        got = memo[m, n] = schur_apply(model, hook(m, n))
    return got


def hook_determinant(lam, model) -> ScaledPoly:
    """The 2x2 determinant det(s_(a_i|b_j)) of a rank-2 partition's
    single-hook values (not primitive)."""
    if lam.rank != 2:
        raise ValueError("partition %r has rank %d, need rank 2" % (lam.parts, lam.rank))
    (a1, a2), (b1, b2) = lam.frobenius()

    def h(a, b):
        return hook_value(model, a, b)

    return scaled_products(((1, h(a1, b1), h(a2, b2)), (-1, h(a1, b2), h(a2, b1))))


def plucker_relation(lam, model) -> ScaledPoly:
    """The unreduced row of lambda: its Schur part less its hook determinant,
    homogeneous of weight |lambda| and vanishing on the Jacobian."""
    return scaled_sum(((1, schur_apply(model, lam)), (-1, hook_determinant(lam, model))))
