"""Partition combinatorics against brute-force oracles."""

import pytest

from schur_oracle import hook

from kleinian.partitions import Partition, all_partitions, enumerate_rank2, transpose_classes


def test_frobenius_direct_counts():
    assert Partition((2, 2)).frobenius() == ((1, 0), (1, 0))
    # (n, m, 2^k, 1^l) with n > m > 1 -> (n-1, m-2 | k+l+1, k)
    for (n, m, k, l) in [(5, 3, 2, 1), (4, 2, 0, 3), (6, 4, 1, 0)]:
        p = Partition((n, m) + (2,) * k + (1,) * l)
        assert p.frobenius() == ((n - 1, m - 2), (k + l + 1, k))
    # single hooks (alpha+1, 1^beta) -> (alpha | beta)
    assert hook(3, 2).frobenius() == ((3,), (2,))


def from_frobenius(arms, legs):
    """The partition with Frobenius coordinates (arms | legs), row by row."""
    assert len(arms) == len(legs)
    for coords in (arms, legs):
        assert all(a > b for a, b in zip(coords, coords[1:]))
    r = len(arms)
    # rows through the diagonal, then the rows below it from the column lengths
    cols = [legs[i] + i + 1 for i in range(r)]
    below = [sum(1 for c in cols if c > i) for i in range(r, max(cols, default=0))]
    return Partition(tuple(arms[i] + i + 1 for i in range(r)) + tuple(below))


def test_frobenius_roundtrip_up_to_weight_20():
    for w in range(1, 21):
        for p in map(Partition, all_partitions(w)):
            arms, legs = p.frobenius()
            assert from_frobenius(arms, legs) == p


def test_transpose_examples():
    assert Partition((2, 2)).transpose() == Partition((2, 2))
    assert Partition((3, 2)).transpose() == Partition((2, 2, 1))
    assert Partition((4, 2)).transpose() == Partition((2, 2, 1, 1))


def test_transpose_involution_and_invariants():
    for w in range(1, 15):
        for p in map(Partition, all_partitions(w)):
            t = p.transpose()
            assert t.transpose() == p
            assert t.weight == p.weight
            assert t.rank == p.rank
            arms, legs = p.frobenius()
            assert t.frobenius() == (legs, arms)


def test_enumerate_rank2_low_weights():
    assert [p.parts for p in enumerate_rank2(4)] == [(2, 2)]
    assert {p.parts for p in enumerate_rank2(5)} == {(3, 2), (2, 2, 1)}
    assert {p.parts for p in enumerate_rank2(6)} == {
        (4, 2), (3, 3), (3, 2, 1), (2, 2, 2), (2, 2, 1, 1)}


def test_enumerate_rank2_matches_bruteforce():
    for w in range(4, 17):
        brute = {p.parts for p in map(Partition, all_partitions(w)) if p.rank == 2}
        assert {p.parts for p in enumerate_rank2(w)} == brute


def test_transpose_class_counts():
    # three transpose-classes at weight 6, four at weight 7, eight at weight 8
    for w, count in [(6, 3), (7, 4), (8, 8)]:
        assert len(transpose_classes(enumerate_rank2(w))) == count


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
