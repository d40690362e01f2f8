"""Integer partitions, Frobenius hook coordinates and rank-2 enumeration.

A partition of rank r decomposes into r diagonal hooks with strictly
decreasing arm lengths a_i = lambda_i - i and leg lengths b_i = lambda'_i - i.
The derivation pipeline runs on rank-2 partitions (2+m, 2+n, 2^k, 1^l);
the Schur operators of every rank are Giambelli determinants over the
Frobenius coordinates, taken in the power-sum basis, whose classes are
the partitions of the weight with no part divisible by the curve's n
(:mod:`kleinian.schur`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)

    @cached_property
    def rank(self) -> int:
        """Number of diagonal boxes: max i with lambda_i >= i."""
        r = 0
        for i, p in enumerate(self.parts, start=1):
            if p >= i:
                r = i
        return r

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arms and legs (a_1..a_r | b_1..b_r) of the diagonal hooks."""
        t = self.transpose().parts
        r = self.rank
        arms = tuple(self.parts[i] - i - 1 for i in range(r))
        legs = tuple(t[i] - i - 1 for i in range(r))
        return arms, legs


def all_partitions(weight: int, modulus: int = 0,
                   max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """The partitions of weight, as weakly decreasing tuples, that have no
    part divisible by modulus (all of them when modulus is 0): the classes
    mu of :mod:`kleinian.schur`, where modulus is the curve's n."""
    if weight == 0:
        yield ()
        return
    cap = weight if max_part is None else min(max_part, weight)
    for first in range(cap, 0, -1):
        if modulus and not first % modulus:
            continue
        for rest in all_partitions(weight - first, modulus, first):
            yield (first,) + rest


def enumerate_rank2(weight: int) -> list[Partition]:
    """All partitions of the given weight with rank exactly 2.

    Parameterized as (2+m, 2+n, 2^k, 1^l) with m >= n >= 0 and
    m + n + 2k + l + 4 = weight.  Transpose pairs are both returned;
    folding them is the relation engine's decision.
    """
    if weight < 4:
        return []
    out = []
    rem = weight - 4
    for k in range(rem // 2 + 1):
        for l in range(rem - 2 * k + 1):
            s = rem - 2 * k - l
            for n in range(s // 2 + 1):
                m = s - n
                out.append(Partition((2 + m, 2 + n) + (2,) * k + (1,) * l))
    return sorted(out, key=lambda p: p.parts, reverse=True)


def transpose_classes(partitions: list[Partition]) -> list[tuple[Partition, Partition]]:
    """Group a transpose-closed list into (representative, transpose) pairs.

    Self-conjugate partitions appear as (p, p).  The representative is the
    lexicographically larger of the pair, so output is deterministic.
    """
    seen = set()
    out = []
    for p in sorted(partitions, key=lambda q: q.parts, reverse=True):
        if p.parts in seen:
            continue
        t = p.transpose()
        seen.add(p.parts)
        seen.add(t.parts)
        out.append((p, t))
    return out
