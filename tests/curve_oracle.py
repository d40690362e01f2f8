"""y^n - phi(x) evaluated on series: the oracle for the Puiseux certificate.

This is the direct check that kleinian.curves replaced by the linear
two-part certificate: y is raised to the n-th power by repeated squaring
of series whose coefficients are polynomials in the curve parameters, so
its cost grows quadratically in the expansion order.
"""

from kleinian.curves import CurveSpec, LocalExpansion
from kleinian.series import LaurentSeries


def curve_value(curve: CurveSpec, loc: LocalExpansion) -> LaurentSeries:
    """f(x, y) = y^n - phi(x) on the expansion's series x(xi), y(xi)."""
    acc = loc.y ** curve.n
    xpow = {0: LaurentSeries.const(1)}
    rhs = curve.rhs_coeffs()
    for deg in range(1, max(rhs) + 1):
        xpow[deg] = xpow[deg - 1] * loc.x
    for deg, c in rhs.items():
        acc = acc - xpow[deg] * c
    return acc


def defects_below(curve: CurveSpec, loc: LocalExpansion, order: int) -> dict:
    """The nonzero coefficients of y^n - phi(x) below xi^order."""
    value = curve_value(curve, loc)
    assert value.order >= order, "oracle known only to xi^%d" % value.order
    return {k: c for k, c in value.coeffs.items() if k < order}
