"""Permutations of {1..n}: length, reduced words, Bruhat order, coset reps.

Permutations are 1-indexed and multiply as functions: (u*v)(x) = u(v(x)), so
a word of adjacent transpositions evaluates with its leftmost letter applied
last.  Words are plain tuples of letters i denoting the transposition s_i.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DomainError,
    IndexOutOfRange,
    LetterOutOfRange,
    NotMinimalRep,
    SizeMismatch,
    TooLarge,
)
from .lanes import Lanes
from .limits import scale_limit

Word = tuple[int, ...]


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation."""

    one_line: tuple[int, ...]

    def __init__(self, one_line: Iterable[int]) -> None:
        ol = tuple(one_line)
        if any(type(v) is not int for v in ol) or sorted(ol) != list(range(1, len(ol) + 1)):
            raise DomainError(f"not a permutation of 1..{len(ol)}: {ol}")
        object.__setattr__(self, "one_line", ol)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"position {i} outside 1..{self.n}")
        return self.one_line[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Perm(inv)

    @cached_property
    def tableau(self) -> tuple[int, ...]:
        """Ehresmann's tableau, flat: the sorted values u(1..i) for
        i = 1..n - 1, row after row, n(n - 1)/2 entries; built once per
        permutation.  Row n is the same for every permutation of 1..n."""
        prefix: list[int] = []
        flat: list[int] = []
        for v in self.one_line[:-1]:
            insort(prefix, v)
            flat += prefix
        return tuple(flat)

    @cached_property
    def label(self) -> str:
        """Digits for n <= 9, a JSON array otherwise; built once per permutation."""
        if self.n <= 9:
            return "".join(str(v) for v in self.one_line)
        return "[" + ",".join(str(v) for v in self.one_line) + "]"

    def __str__(self) -> str:
        return self.label


def all_perms(n: int) -> Iterator[Perm]:
    for ol in itertools.permutations(range(1, n + 1)):
        yield Perm(ol)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions."""
    ol = w.one_line
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if ol[i] > ol[j])


def _check_letters(word: Word, n: int) -> None:
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise LetterOutOfRange(f"letter {letter} outside 1..{n - 1}")


def apply_word(word: Iterable[int], n: int) -> Perm:
    """Product of adjacent transpositions, leftmost letter applied last."""
    word = tuple(word)
    _check_letters(word, n)
    ol = list(range(1, n + 1))
    # appending letter j multiplies on the right, i.e. swaps positions j, j+1
    for j in word:
        ol[j - 1], ol[j] = ol[j], ol[j - 1]
    return Perm(ol)


def is_reduced(word: Iterable[int], n: int) -> bool:
    word = tuple(word)
    return length(apply_word(word, n)) == len(word)


def all_reduced_words(w: Perm) -> frozenset[Word]:
    """Every reduced word for w, by recursion on right descents."""
    if w.n > scale_limit():
        raise TooLarge(f"n={w.n} exceeds the guard ({scale_limit()})")
    memo: dict[tuple[int, ...], frozenset[Word]] = {}

    def rec(ol: tuple[int, ...]) -> frozenset[Word]:
        cached = memo.get(ol)
        if cached is not None:
            return cached
        words: set[Word] = set()
        descent_free = True
        for i in range(len(ol) - 1):
            if ol[i] > ol[i + 1]:
                descent_free = False
                shorter = list(ol)
                shorter[i], shorter[i + 1] = shorter[i + 1], shorter[i]
                for word in rec(tuple(shorter)):
                    words.add(word + (i + 1,))
        result = frozenset(words) if not descent_free else frozenset({()})
        memo[ol] = result
        return result

    return rec(w.one_line)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Bruhat order by Ehresmann's tableau criterion: u <= v exactly when
    every entry of u's tableau is at most v's (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, Thm 2.6.3); the one-target case of Lanes."""
    if len(u.one_line) != len(v.one_line):
        raise SizeMismatch(f"sizes {u.n} and {v.n} differ")
    return Lanes((v.tableau,), v.n).at_least(u.tableau) != 0


def min_coset_rep(w: Perm, i: int) -> Perm:
    """Minimal-length representative of the coset of w w.r.t. the subgroup
    generated by all adjacent transpositions except s_i.

    Obtained by sorting the values 1..i into increasing order within their
    positions, and likewise the values i+1..n.
    """
    if not 1 <= i <= w.n - 1:
        raise IndexOutOfRange(f"vertex {i} outside 1..{w.n - 1}")
    ol = list(w.one_line)
    low_positions = [p for p, v in enumerate(ol) if v <= i]
    high_positions = [p for p, v in enumerate(ol) if v > i]
    for value, p in enumerate(low_positions, start=1):
        ol[p] = value
    for value, p in enumerate(high_positions, start=i + 1):
        ol[p] = value
    return Perm(ol)


def canonical_reduced_word_of_rep(u: Perm, i: int) -> Word:
    """The block reduced word (s_i..s_{u^{-1}(i)-1})...(s_1..s_{u^{-1}(1)-1})
    of a minimal coset representative u."""
    if min_coset_rep(u, i) != u:
        raise NotMinimalRep(f"{u} is not minimal in its coset for vertex {i}")
    inv = u.inverse()
    word: list[int] = []
    for t in range(i, 0, -1):
        word.extend(range(t, inv(t)))
    result = tuple(word)
    assert is_reduced(result, u.n) and apply_word(result, u.n) == u
    return result
