"""Built-in verification tables: the known relation sets for both curves.

Each entry is the relation polynomial (left side minus right side of the
solved form), together with its weight and expected class.  The verify
command canonicalizes a derived database against these tables; every
comparison is exact.
"""

from __future__ import annotations

from .curves import CYCLIC_TRIGONAL_34, CurveSpec, HYPERELLIPTIC_G2
from .engine import FOUR_INDEX, QUAD_THREE_INDEX, QUASILINEAR
from .poly import MultiPoly
from .rationals import Q
from .taucalc import AbelianContext


def _params(curve: CurveSpec) -> dict[str, MultiPoly]:
    return {p.name: curve.parameter_poly(p) for p in curve.parameters}


def genus2_relations(curve: CurveSpec, ctx: AbelianContext):
    """The genus-2 hierarchy through weight 10, as printed."""
    a = _params(curve)
    p = ctx.wp_poly
    out = [
        # KdV_4
        (4, FOUR_INDEX,
         p(1, 1, 1, 1) - p(1, 1) * p(1, 1) * 6 - a["a4"] * p(1, 1) - p(1, 2) * 4
         - a["a3"] * Q(1, 2)),
        # KdV_6
        (6, FOUR_INDEX,
         p(1, 1, 1, 2) - p(1, 2) * p(1, 1) * 6 + p(2, 2) * 2 - a["a4"] * p(1, 2)),
        # Jac_6
        (6, QUAD_THREE_INDEX,
         p(1, 1, 1) * p(1, 1, 1) - p(1, 1) ** 3 * 4 - a["a3"] * p(1, 1)
         - a["a4"] * p(1, 1) ** 2 - p(1, 2) * p(1, 1) * 4 - a["a2"] - p(2, 2) * 4),
        # weight-7 quasilinear
        (7, QUASILINEAR,
         p(1, 2) * p(1, 1, 1) - p(1, 2, 2) - p(1, 1, 2) * p(1, 1)),
        # KdV_8
        (8, FOUR_INDEX,
         p(1, 1, 2, 2) - p(1, 1) * p(2, 2) * 2 - p(1, 2) ** 2 * 4
         - a["a3"] * p(1, 2) * Q(1, 2)),
        # weight-9 quasilinear
        (9, QUASILINEAR,
         p(1, 2, 2) * p(1, 1) * 8 - p(1, 2) * p(1, 1, 2) * 4 - p(2, 2, 2) * 4
         + a["a4"] * p(1, 2, 2) * 2 - a["a3"] * p(1, 1, 2) - p(1, 1, 1) * p(2, 2) * 4),
        # KdV_10
        (10, FOUR_INDEX,
         p(1, 2, 2, 2) - p(1, 2) * p(2, 2) * 6 - a["a2"] * p(1, 2)
         + a["a1"] * p(1, 1) * Q(1, 2) + a["a0"]),
        # Jac_10^(1)
        (10, QUAD_THREE_INDEX,
         p(1, 1, 1) * p(1, 2, 2) + a["a1"] * p(1, 1) * Q(1, 2)
         - p(2, 2) * p(1, 1) ** 2 * 2 - p(1, 1) * p(1, 2) ** 2 * 2
         - a["a2"] * p(1, 2) - p(2, 2) * p(1, 2) * 4
         - a["a3"] * p(1, 2) * p(1, 1) * Q(1, 2)),
        # Jac_10^(2)
        (10, QUAD_THREE_INDEX,
         p(1, 1, 2) * p(1, 1, 2) - a["a0"] + p(2, 2) * p(1, 2) * 4
         - a["a4"] * p(1, 2) ** 2 - p(1, 1) * p(1, 2) ** 2 * 4),
    ]
    return out


def trigonal_relations(curve: CurveSpec, ctx: AbelianContext):
    """The strictly trigonal (3,4) relations of weights 4-6, as printed."""
    m = _params(curve)
    p = ctx.wp_poly
    return [
        (4, FOUR_INDEX,
         p(1, 1, 1, 1) - p(1, 1) * p(1, 1) * 6 + p(2, 2) * 3),
        (5, FOUR_INDEX,
         p(1, 1, 1, 2) - p(1, 1) * p(1, 2) * 6 - m["m3"] * p(1, 1) * 3),
        (6, QUAD_THREE_INDEX,
         p(1, 1, 1) * p(1, 1, 1) - p(1, 1) ** 3 * 4 - p(1, 2) ** 2
         - p(1, 3) * 4 + p(1, 1) * p(2, 2) * 4),
        (6, FOUR_INDEX,
         p(1, 1, 2, 2) - p(1, 3) * 4 - m["m6"] * 2 - p(1, 2) ** 2 * 4
         - p(1, 1) * p(2, 2) * 2 - m["m3"] * p(1, 2) * 3),
    ]


def trigonal_weight12_quartic(curve: CurveSpec, ctx: AbelianContext) -> MultiPoly:
    """The printed weight-12 quartic relation of the trigonal Kummer variety."""
    m = _params(curve)
    p = ctx.wp_poly
    return (
        p(1, 2) ** 4 - p(2, 2) ** 3 - p(1, 1) * p(3, 3) * 2 + p(1, 3) ** 2 * 2
        + p(1, 2) ** 2 * p(1, 3) * 4 + p(1, 1, 1, 3) * p(2, 2)
        - p(1, 1) * p(1, 3) * p(2, 2) * 6 + p(1, 1) * p(1, 2) * p(2, 3) * 4
        + p(1, 1) ** 2 * p(2, 2) ** 2 - p(1, 1) * p(1, 2) ** 2 * p(2, 2) * 2
        - p(1, 1, 1, 3) * p(1, 1) ** 2 * Q(4, 3) + p(1, 1) ** 3 * p(1, 3) * 8
        + m["m12"] * 2 + m["m6"] * p(1, 1) ** 3 * 4 - m["m6"] * p(1, 1) * p(2, 2) * 4
        + m["m3"] * p(1, 2) * p(1, 3) * 3 + m["m3"] * p(1, 1) * p(2, 3) * 3
        + m["m3"] * p(1, 2) ** 3 + m["m6"] * p(1, 3) * 2 + m["m6"] * p(1, 2) ** 2
        + m["m9"] * p(1, 2) - m["m3"] * m["m3"] * p(1, 1) ** 3
        - m["m3"] * p(1, 1) * p(1, 2) * p(2, 2) * 3
    )


def relation_table(curve: CurveSpec, ctx: AbelianContext):
    return {HYPERELLIPTIC_G2: genus2_relations,
            CYCLIC_TRIGONAL_34: trigonal_relations}[curve.family](curve, ctx)


def ideal_checks(curve: CurveSpec, ctx: AbelianContext) -> list[tuple[int, str, MultiPoly]]:
    """Printed relations that the derived ideal must contain, as (weight, name, polynomial)."""
    if curve.family == CYCLIC_TRIGONAL_34:
        return [(12, "weight-12 quartic", trigonal_weight12_quartic(curve, ctx))]
    return []
