"""Many small integer vectors side by side in the lanes of one int.

Vector t owns lane t, the bits t*W .. t*W + W - 1, of one int per position.
Packed so, one integer operation acts on every vector at once; ``finite``
counts Hom into many curve modules this way, and the two Bruhat orders
compare one permutation or permuton against many.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError


def pack(rows: Sequence[Sequence[int]], width: int) -> Sequence[int]:
    """Row t's entry of each column in lane t of one int per column."""
    packed = rows[-1] if rows else []
    for row in reversed(rows[:-1]):
        packed = [m << width | v for m, v in zip(packed, row)]
    return packed


class Lanes:
    """Vectors of nonnegative ints of one length, vector t in lane t.

    A lane is W bits: its entry, below a guard bit at W - 1, where
    W = top.bit_length() + 1 for top a bound on every entry compared, the
    targets' and the other side's.  For such an entry a, lane t of
    (P | G) - a*ONE keeps its guard bit exactly when lane t's entry is at
    least a, and borrows nothing from lane t + 1, where P is a position's
    packed int, G its guard bits and ONE its lanes' bit 0; (a*ONE | G) - P
    keeps it exactly when the entry is at most a.  One AND over the
    positions leaves the guard bits of the lanes that bound a vector
    entrywise; it stops at the first position that leaves none.
    """

    __slots__ = ("size", "length", "width", "cols", "ones", "guard")

    def __init__(self, vectors: Sequence[Sequence[int]], top: int) -> None:
        self.size = len(vectors)
        self.length = len(vectors[0]) if vectors else 0
        if any(len(v) != self.length for v in vectors):
            raise DomainError("vectors of different lengths")
        self.width = width = top.bit_length() + 1
        self.cols = pack(vectors, width)
        self.ones = ((1 << self.size * width) - 1) // ((1 << width) - 1)
        self.guard = self.ones << width - 1

    def _check(self, a: Sequence[int]) -> None:
        if self.size and len(a) != self.length:
            raise DomainError(f"lengths {len(a)} and {self.length} differ")

    def at_least(self, a: Sequence[int]) -> int:
        """The guard bits of the lanes whose vector is >= a entrywise."""
        self._check(a)
        ones, guard, acc = self.ones, self.guard, self.guard
        for v, col in zip(a, self.cols):
            acc &= (col | guard) - v * ones
            if not acc:
                break
        return acc

    def at_most(self, a: Sequence[int]) -> int:
        """The guard bits of the lanes whose vector is <= a entrywise."""
        self._check(a)
        ones, guard, acc = self.ones, self.guard, self.guard
        for v, col in zip(a, self.cols):
            acc &= (v * ones | guard) - col
            if not acc:
                break
        return acc
