"""Permutations of {1..n}: length, reduced words, Bruhat order, coset reps.

Permutations are 1-indexed and multiply as functions: (u*v)(x) = u(v(x)), so
a word of adjacent transpositions evaluates with its leftmost letter applied
last.  Words are plain tuples of letters i denoting the transposition s_i.
"""

from __future__ import annotations

import itertools
from bisect import bisect, insort
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import CertificateFailure, DomainError
from .lanes import Lanes
from .limits import guard

Word = tuple[int, ...]


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation."""

    one_line: tuple[int, ...]

    def __init__(self, one_line: Iterable[int]) -> None:
        ol = tuple(one_line)
        if not {*map(type, ol)} <= {int} or sorted(ol) != list(range(1, len(ol) + 1)):
            raise DomainError(f"not a permutation of 1..{len(ol)}: {ol}")
        object.__setattr__(self, "one_line", ol)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"position {i} outside 1..{self.n}")
        return self.one_line[i - 1]

    @property
    def tableau(self) -> tuple[int, ...]:
        """Ehresmann's tableau, flat: the sorted values u(1..i) for
        i = 1..n - 1, row after row, n(n - 1)/2 entries, built on each read.
        Row n is the same for every permutation of 1..n."""
        prefix: list[int] = []
        flat: list[int] = []
        for v in self.one_line[:-1]:
            insort(prefix, v)
            flat += prefix
        return tuple(flat)

    @property
    def label(self) -> str:
        """Digits for n <= 9, a JSON array otherwise, built on each read."""
        digits = map(str, self.one_line)
        return "".join(digits) if self.n <= 9 else "[" + ",".join(digits) + "]"

    def __str__(self) -> str:
        return self.label


def all_perms(n: int) -> Iterator[Perm]:
    for ol in itertools.permutations(range(1, n + 1)):
        yield Perm(ol)


def perm_at(n: int, rank: int) -> Perm:
    """all_perms(n)'s permutation number rank, from 0, listing none: that
    order is lexicographic, so the digits of rank in the factorial number
    system pick each value among those left."""
    if not 0 <= rank < factorial(n):
        raise DomainError(f"rank {rank} outside 0..{n}! - 1")
    left, ol = list(range(1, n + 1)), []
    for k in range(n - 1, -1, -1):
        digit, rank = divmod(rank, factorial(k))
        ol.append(left.pop(digit))
    return Perm(ol)


def _inversions(one_line: Sequence[int]) -> int:
    """The number of inversions: each value against the larger ones before
    it, by bisection into their sorted list, O(n log n) comparisons."""
    seen: list[int] = []
    count = 0
    for k, v in enumerate(one_line):
        at = bisect(seen, v)
        seen.insert(at, v)
        count += k - at
    return count


def _spell(word: Iterable[int], n: int) -> list[int]:
    """The word's product in one-line notation, letters unchecked: appending
    letter j multiplies on the right, i.e. swaps positions j, j+1."""
    ol = list(range(1, n + 1))
    for j in word:
        ol[j - 1], ol[j] = ol[j], ol[j - 1]
    return ol


def is_reduced(word: Iterable[int], n: int) -> bool:
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise DomainError(f"letter {letter} outside 1..{n - 1}")
    return _inversions(_spell(word, n)) == len(word)


def all_reduced_words(w: Perm) -> frozenset[Word]:
    """Every reduced word for w, by recursion on right descents, each
    permutation on the way once."""
    guard(w.n)

    @lru_cache(maxsize=None)
    def rec(ol: tuple[int, ...]) -> frozenset[Word]:
        descents = [s for s in range(1, len(ol)) if ol[s - 1] > ol[s]]
        if not descents:
            return frozenset({()})
        return frozenset(word + (s,) for s in descents
                         for word in rec((*ol[:s - 1], ol[s], ol[s - 1], *ol[s + 1:])))

    return rec(w.one_line)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Bruhat order by Ehresmann's tableau criterion: u <= v exactly when
    every entry of u's tableau is at most v's (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, Thm 2.6.3); the one-target case of Lanes."""
    if len(u.one_line) != len(v.one_line):
        raise DomainError(f"sizes {u.n} and {v.n} differ")
    return Lanes((v.tableau,), v.n).at_least(u.tableau) != 0


def min_coset_line(one_line: Sequence[int], i: int) -> tuple[int, ...]:
    """The minimal-length representative of the coset of w with respect to
    the subgroup generated by all adjacent transpositions except s_i, in
    one-line notation, from w's: the values 1..i, then i+1..n, each set in
    increasing order within its positions."""
    low, high, line = 0, i, []
    for v in one_line:
        if v <= i:
            line.append(low := low + 1)
        else:
            line.append(high := high + 1)
    return tuple(line)


def canonical_reduced_word_of_rep(u: Perm, i: int) -> Word:
    """The block reduced word (s_i..s_{u^{-1}(i)-1})...(s_1..s_{u^{-1}(1)-1})
    of a minimal coset representative u, read off the positions of 1..i in
    u's one-line notation, which holds them in increasing order."""
    ol = u.one_line
    if not 1 <= i <= len(ol) - 1:
        raise DomainError(f"vertex {i} outside 1..{len(ol) - 1}")
    if min_coset_line(ol, i) != ol:
        raise DomainError(f"{u} is not minimal in its coset for vertex {i}")
    ends = [p for p, v in enumerate(ol, start=1) if v <= i]  # u^{-1}(1..i)
    word = [s for t in range(i, 0, -1) for s in range(t, ends[t - 1])]
    spelled = _spell(word, len(ol))
    if spelled != [*ol] or _inversions(spelled) != len(word):
        raise CertificateFailure(f"the block word of {u} at vertex {i} is not a reduced word of it")
    return tuple(word)
