"""Exact rational arithmetic.

Every numeric coefficient in this package is an arbitrary-precision
rational, always stored in lowest terms with a positive denominator.
gmpy2's ``mpq`` is used when available (it is much faster on the bigger
eliminations); the stdlib ``Fraction`` is a drop-in fallback.  Both
expose ``.numerator``/``.denominator`` and exact field arithmetic, which
is all the rest of the code relies on.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is optional (the mpq extra): fall back to the stdlib
    from fractions import Fraction as Q

#: concrete type of a rational, for isinstance checks
QType = type(Q(0))


def qify(value) -> QType:
    """Coerce ints, strings like ``"3/2"`` and rationals to the Q type."""
    if isinstance(value, QType):
        return value
    if isinstance(value, str):
        return Q(value.strip())
    return Q(value)


def q_str(value) -> str:
    """Render a rational as ``n`` or ``n/d`` (reduced, positive denominator)."""
    value = qify(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%s/%s" % (value.numerator, value.denominator)
