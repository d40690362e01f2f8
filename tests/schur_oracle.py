"""Jacobi-Trudi determinants: the oracle for the Giambelli Schur polynomials.

s_lambda = det(p_{lambda_i - i + j}) over the elementary Schur functions
p_m, expanded along the first row with memoized minors.  Results are
memoized per process, so the test modules that share the oracle expand
each determinant once.
"""

from kleinian.partitions import Partition
from kleinian.poly import MultiPoly
from kleinian.schur import elementary_schur

_cache: dict[tuple[int, ...], MultiPoly] = {}


def jacobi_trudi(lam: Partition) -> MultiPoly:
    """det(p_{lambda_i - i + j}) for the partition lam."""
    parts = lam.parts
    got = _cache.get(parts)
    if got is not None:
        return got
    n = len(parts)
    entries = [[elementary_schur(parts[i] - i + j) for j in range(n)] for i in range(n)]
    minors: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one()}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        # rows n - len(cols) .. n - 1 against the given columns
        got = minors.get(cols)
        if got is None:
            row = entries[n - len(cols)]
            got = MultiPoly.zero()
            for pos, c in enumerate(cols):
                if not row[c].is_zero():
                    term = row[c] * minor(cols[:pos] + cols[pos + 1:])
                    got = got + (-term if pos % 2 else term)
            minors[cols] = got
        return got

    got = _cache[parts] = minor(tuple(range(n)))
    return got
