"""Schur layer: printed low-order polynomials, recursion, Giambelli, operators,
and the power-sum character weights of kleinian.schur against
Murnaghan-Nakayama and the character table's own identities."""

from math import factorial, prod

from schur_oracle import (
    elementary_schur, elementary_symmetric, giambelli_det, hook, hook_schur, jacobi_trudi,
    murnaghan_nakayama, schur_poly, time_symbol,
)

from kleinian.partitions import Partition, all_partitions, enumerate_rank2
from kleinian.poly import MultiPoly, Symbol, factors
from kleinian.rationals import Q
from kleinian.schur import class_size, pair_weights, schur_weights

T = [None] + [MultiPoly.sym(time_symbol(k)) for k in range(1, 9)]


def dop_symbol(k: int) -> Symbol:
    """The scaled derivation (1/k) d/dt_k, of weight +k."""
    return Symbol("D%d" % k, k, "dop", (k,))


def as_diff_operator(p: MultiPoly) -> MultiPoly:
    """Substitute the scaled derivation D_k = (1/k) d/dt_k for each t_k.

    The operators commute (they act on smooth functions of t), so the
    result is a plain polynomial in the D_k symbols, homogeneous of weight
    +W when p is a Schur polynomial of weight -W.
    """
    table = {}
    for m in p.terms:
        for s, _ in factors(m):
            if s.kind == "time":
                table[s] = MultiPoly.sym(dop_symbol(s.indices[0]))
    return p.substitute(table)


def apply_operator_to_exponential(op: MultiPoly, velocity: dict[int, object]) -> object:
    """Apply a D-operator polynomial to exp(sum c_k t_k) at t = 0.

    Each D_k acts as multiplication by c_k / k; the result is the rational
    (or polynomial) value of the operator on that exponential eigenfunction.
    """
    acc = MultiPoly.zero()
    for mono, coeff in op.terms.items():
        term = MultiPoly.const(coeff)
        for s, e in factors(mono):
            if s.kind != "dop":
                term = term * MultiPoly.sym(s, e)
                continue
            k = s.indices[0]
            c = velocity.get(k, 0)
            factor = (MultiPoly.const(c) if not isinstance(c, MultiPoly) else c) * Q(1, k)
            term = term * factor ** e
        acc = acc + term
    return acc


def test_elementary_schur_printed_values():
    assert elementary_schur(0) == MultiPoly.one()
    assert elementary_schur(1) == T[1]
    assert elementary_schur(2) == T[2] + T[1] * T[1] * Q(1, 2)
    p4 = T[4] + T[1] * T[3] + T[2] * T[2] * Q(1, 2) \
        + T[1] * T[1] * T[2] * Q(1, 2) + T[1] ** 4 * Q(1, 24)
    assert elementary_schur(4) == p4
    assert elementary_schur(-3).is_zero()


def test_schur_poly_printed_values():
    assert schur_poly(Partition((1, 1))) == -T[2] + T[1] ** 2 * Q(1, 2)
    assert schur_poly(Partition((2, 1))) == -T[3] + T[1] ** 3 * Q(1, 3)
    assert schur_poly(Partition((1, 1, 1))) == T[3] - T[1] * T[2] + T[1] ** 3 * Q(1, 6)
    assert schur_poly(Partition((2, 2))) == T[2] ** 2 - T[1] * T[3] + T[1] ** 4 * Q(1, 12)


def test_generating_recursion():
    # m p_m = sum_{j=1..m} j t_j p_{m-j}
    for m in range(1, 13):
        rhs = MultiPoly.zero()
        for j in range(1, m + 1):
            rhs = rhs + T[j] * j * elementary_schur(m - j) if j < len(T) else rhs + \
                MultiPoly.sym(time_symbol(j), coeff=j) * elementary_schur(m - j)
        assert elementary_schur(m) * m == rhs


def test_weight_homogeneity():
    for w in range(1, 9):
        for lam in map(Partition, all_partitions(w)):
            s = schur_poly(lam)
            assert s.is_homogeneous(-w)


def test_giambelli_equals_jacobi_trudi():
    # every rank, the empty partition included
    for w in range(0, 13):
        for lam in map(Partition, all_partitions(w)):
            assert schur_poly(lam) == jacobi_trudi(lam)


def test_giambelli_single_hook_identity():
    assert giambelli_det(Partition((4, 1, 1))) == hook_schur(3, 2)


def test_closed_form_hooks_equal_jacobi_trudi():
    for a in range(14):
        for b in range(14 - a):
            assert hook_schur(a, b) == jacobi_trudi(hook(a, b))


def test_elementary_symmetric_is_sign_flipped_p():
    # e_m is p_m with t_k -> (-1)^(k-1) t_k
    for m in range(-2, 15):
        flip = {time_symbol(k): MultiPoly.sym(time_symbol(k), coeff=(-1) ** (k - 1))
                for k in range(1, m + 1)}
        assert elementary_symmetric(m) == elementary_schur(m).substitute(flip)


def test_cauchy_littlewood_truncated_degree_6():
    """exp(sum n x_n y_n) = sum_lambda s_lambda(x) s_lambda(y), degree <= 6."""
    D = 6
    xs = {k: Symbol("x%d" % k, -k, "time", (k,)) for k in range(1, D + 1)}
    ys = {k: Symbol("y%d" % k, -k, "aux", (k,)) for k in range(1, D + 1)}

    def graded(expr: MultiPoly) -> MultiPoly:
        """Drop monomials whose x-part or y-part exceeds weighted degree D."""
        keep = {}
        for m, c in expr.terms.items():
            dx = sum(s.indices[0] * e for s, e in factors(m) if s.name.startswith("x"))
            dy = sum(s.indices[0] * e for s, e in factors(m) if s.name.startswith("y"))
            if dx <= D and dy <= D:
                keep[m] = c
        return MultiPoly(keep)

    # left: exp of the pairing, truncated
    pairing = MultiPoly.zero()
    for k in range(1, D + 1):
        pairing = pairing + MultiPoly.sym(xs[k]) * MultiPoly.sym(ys[k]) * k
    left = MultiPoly.zero()
    power = MultiPoly.one()
    fact = Q(1)
    for j in range(0, D + 1):
        if j:
            power = graded(power * pairing)
            fact = fact / j
        left = left + power * fact
    left = graded(left)

    # right: sum over partitions of weight <= D of s_lambda(x) s_lambda(y)
    def schur_in(lam, table):
        sub = {time_symbol(k): MultiPoly.sym(table[k]) for k in range(1, D + 1)}
        return schur_poly(lam).substitute(sub)

    right = MultiPoly.one()
    for w in range(1, D + 1):
        for lam in map(Partition, all_partitions(w)):
            right = right + schur_in(lam, xs) * schur_in(lam, ys)

    assert left == right


def test_as_diff_operator_and_exponential_oracle():
    # t1 -> D1
    op1 = as_diff_operator(T[1])
    assert [s.kind for m in op1.terms for s, _ in factors(m)] == ["dop"]
    # s2 -> D2 + 1/2 D1^2, applied to exp(sum c_k t_k): value s2(c1, c2/2, ...)
    c = {1: Q(3), 2: Q(-2), 3: Q(5), 4: Q(7, 2)}
    for lam in [Partition((2,)), Partition((2, 2)), Partition((3, 1))]:
        op = as_diff_operator(schur_poly(lam))
        val = apply_operator_to_exponential(op, c)
        sub = {time_symbol(k): MultiPoly.const(ck * Q(1, k)) for k, ck in c.items()}
        assert val == schur_poly(lam).substitute(sub)


def test_operator_weight_grading():
    op = as_diff_operator(schur_poly(Partition((2, 2))))
    assert op.is_homogeneous(4)


# -- power-sum character weights: W_lambda(mu) = chi^lambda(mu) n!/z_mu -----------

CHARACTER_DEGREES = range(0, 11)


def characters(lam: Partition) -> dict[tuple[int, ...], int]:
    """chi^lambda(mu) for every mu |- |lambda|, read off the weights."""
    weights = schur_weights(lam, lam.weight + 1)
    return {mu: weights.get(mu, 0) // class_size(mu) for mu in all_partitions(lam.weight)}


def test_weights_are_characters_times_class_sizes():
    # every W_lambda(mu) z_mu / n! is an integer, and n!/z_mu counts S_n
    for n in CHARACTER_DEGREES:
        assert sum(class_size(mu) for mu in all_partitions(n)) == factorial(n)
        for lam in map(Partition, all_partitions(n)):
            for mu, w in schur_weights(lam, n + 1).items():
                assert sum(mu) == n and w != 0
                assert w % class_size(mu) == 0, (lam, mu)


def test_characters_match_murnaghan_nakayama():
    # hooks, rank 2 and (from n = 9) rank 3 against the border-strip recursion
    ranks = set()
    for n in CHARACTER_DEGREES:
        for lam in map(Partition, all_partitions(n)):
            ranks.add(lam.rank)
            for mu, chi in characters(lam).items():
                assert chi == murnaghan_nakayama(lam.parts, mu), (lam, mu)
    assert ranks == {0, 1, 2, 3}


def test_character_rows_are_orthonormal():
    # sum_mu chi^lambda(mu) chi^nu(mu) / z_mu = delta_{lambda nu}
    for n in CHARACTER_DEGREES:
        table = {lam.parts: characters(lam) for lam in map(Partition, all_partitions(n))}
        for lam, row in table.items():
            for nu, other in table.items():
                inner = sum(row[mu] * other[mu] * class_size(mu) for mu in row)
                assert inner == (factorial(n) if lam == nu else 0), (lam, nu)


def test_character_degree_is_hook_length_count():
    # chi^lambda(1^n) = f^lambda = n! / prod of hook lengths
    for n in CHARACTER_DEGREES:
        for lam in map(Partition, all_partitions(n)):
            cols = lam.transpose().parts
            hooks = prod(p - j + cols[j] - i - 1
                         for i, p in enumerate(lam.parts) for j in range(p))
            assert characters(lam)[(1,) * n] == factorial(n) // hooks, lam


def test_trivial_and_sign_characters():
    for n in range(1, CHARACTER_DEGREES[-1] + 1):
        trivial = characters(Partition((n,)))
        sign = characters(Partition((1,) * n))
        for mu in trivial:
            assert trivial[mu] == 1
            assert sign[mu] == (-1) ** (n - len(mu)), mu


def test_weights_modulo_n_are_the_full_weights_restricted():
    # the weights a curve with n = 2 or 3 uses: the Murnaghan-Nakayama weights
    # on exactly the mu with no part divisible by n
    for n in (2, 3):
        for N in CHARACTER_DEGREES:
            for lam in map(Partition, all_partitions(N)):
                want = {}
                for mu in all_partitions(N):
                    w = murnaghan_nakayama(lam.parts, mu) * class_size(mu)
                    if w and all(k % n for k in mu):
                        want[mu] = w
                assert schur_weights(lam, n) == want, (n, lam)


def test_transpose_weights_are_sign_twisted():
    # chi^lambda' = eps * chi^lambda with eps(mu) = (-1)^(N - len(mu)) (the
    # involution omega), on the same classes, and so K_lambda'(mu, nu) =
    # eps(mu) eps(nu) K_lambda(mu, nu): a trigonal layer sums the rows of a
    # transpose pair from lambda's weights alone
    for N in range(4, 15):
        for lam in enumerate_rank2(N):
            for n in (2, 3, 5, 99):
                weights, twisted = schur_weights(lam, n), schur_weights(lam.transpose(), n)
                assert weights.keys() == twisted.keys(), (lam, n)
                for mu, w in weights.items():
                    assert twisted[mu] == (-1) ** (N - len(mu)) * w, (lam, n, mu)
                pairs, twisted = pair_weights(lam, n), pair_weights(lam.transpose(), n)
                assert pairs.keys() == twisted.keys(), (lam, n)
                for (mu, nu), k in pairs.items():
                    assert twisted[mu, nu] == (-1) ** (N - len(mu) - len(nu)) * k, (lam, n, mu)


def test_pair_weights_merge_to_the_schur_weights():
    # the hook determinant's class pairs, merged into mu u nu, are Giambelli's
    # product: every rank-2 weight, on the classes with no part divisible by n
    cases = 0
    for N in range(4, 17):
        for lam in enumerate_rank2(N):
            for n in (2, 3, 5, 99):
                merged = {}
                for (mu, nu), k in pair_weights(lam, n).items():
                    assert k and mu <= nu and all(p % n for p in mu + nu), (lam, n, mu, nu)
                    key = tuple(sorted(mu + nu, reverse=True))
                    merged[key] = merged.get(key, 0) + k
                assert {c: w for c, w in merged.items() if w} == schur_weights(lam, n), (lam, n)
                cases += 1
    assert cases == 2352
