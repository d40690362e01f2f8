"""Printed entries of the omega tables of both curves: reference data.

The tests compare the computed tables (:func:`kleinian.curves.omega_alg`)
against these entries; the package itself never reads them.
"""

from kleinian.curves import CYCLIC_TRIGONAL_34, HYPERELLIPTIC_G2, CurveSpec
from kleinian.poly import MultiPoly
from kleinian.rationals import Q
from kleinian.tables import _params


def genus2_omega_values(curve: CurveSpec):
    """Printed entries of the hyperelliptic omega table."""
    a = _params(curve)
    zero = MultiPoly.zero()
    return [
        ((0, 0), a["a4"] * Q(-1, 8)),
        ((0, 1), zero), ((1, 0), zero), ((1, 1), zero),
        ((0, 2), (a["a3"] * 16 - a["a4"] * a["a4"] * 3) * Q(-1, 128)),
        ((2, 0), (a["a3"] * 16 - a["a4"] * a["a4"] * 3) * Q(-1, 128)),
    ]


def trigonal_omega_values(curve: CurveSpec):
    """Printed entries of the trigonal omega table."""
    m = _params(curve)
    zero = MultiPoly.zero()
    return [
        ((0, 0), zero),
        ((0, 1), m["m3"] * Q(-2, 3)), ((1, 0), m["m3"] * Q(-2, 3)),
        ((0, 4), m["m6"] * Q(-2, 3) + m["m3"] * m["m3"] * Q(5, 9)),
        ((4, 0), m["m6"] * Q(-2, 3) + m["m3"] * m["m3"] * Q(5, 9)),
        ((1, 3), m["m6"] * Q(-2, 3) + m["m3"] * m["m3"] * Q(4, 9)),
        ((3, 1), m["m6"] * Q(-2, 3) + m["m3"] * m["m3"] * Q(4, 9)),
        ((2, 2), zero),
    ]


def omega_table_values(curve: CurveSpec):
    return {HYPERELLIPTIC_G2: genus2_omega_values,
            CYCLIC_TRIGONAL_34: trigonal_omega_values}[curve.family](curve)
