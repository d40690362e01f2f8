"""Reference oracle for packed monomials: the tuple representation they replaced.

A tuple monomial is a tuple of ``(symbol, exponent)`` pairs sorted by
symbol name, the form :func:`kleinian.poly.factors` decodes a packed
monomial into.  Its product merges two such tuples through a dict, its
quotient subtracts exponents, and its order key is
(total weight, ((name, exponent), ...)); the packed int monomials of
:mod:`kleinian.poly` must agree with all of them.
"""


def _by_name(factor):
    return factor[0].name


def tuple_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for s, e in b:
        out[s] = out.get(s, 0) + e
    return tuple(sorted(out.items(), key=_by_name))


def tuple_div(b, a):
    """b / a, or ValueError when a does not divide b."""
    out = dict(b)
    for s, e in a:
        r = out.get(s, 0) - e
        if r < 0:
            raise ValueError("monomial does not divide")
        if r:
            out[s] = r
        else:
            del out[s]
    return tuple(out.items())


def tuple_divides(a, b):
    have = dict(b)
    return all(have.get(s, 0) >= e for s, e in a)


def tuple_weight(m):
    return sum(s.weight * e for s, e in m)


def tuple_key(m):
    """Canonical term-order key: (total weight, lexicographic monomial)."""
    return (tuple_weight(m), tuple((s.name, e) for s, e in m))


def tuple_str(m):
    if not m:
        return "1"
    return "*".join(s.name if e == 1 else "%s^%d" % (s.name, e) for s, e in m)

