"""Symmetry oracles for the kernels: each relation below follows from the
definitions alone, so it checks a kernel without a second implementation.

On permutons, rot turns the square by a half turn (cells reversed in both
axes) and tr transposes it.  The boundary curve f_a(x) = a + x - 2 mu([0, x] x
[0, a]) is unchanged when the square turns and a, x go to 1 - a, 1 - x, since
the marginals are uniform; transposing swaps the apex with the column.  Both
maps keep the CDF order, so the permuton Bruhat order is unchanged.

On reduced words, reversing a word spells w^-1, whose ideal swaps vertex and
column: c_i(j) = i + j - 2 #{a <= j : w(a) <= i}.  The letters s -> n - s
spell w0 w w0, whose ideal turns the same half turn.
"""

import random

from conftest import random_permuton
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj.finite import word_curves
from preproj.permuton import GridPermuton, boundary_row, from_perm, permuton_bruhat_leq
from preproj.symgroup import Perm, all_perms


def rot(mu: GridPermuton) -> GridPermuton:
    return GridPermuton(mu.m, [row[::-1] for row in mu.mass[::-1]])


def tr(mu: GridPermuton) -> GridPermuton:
    return GridPermuton(mu.m, list(zip(*mu.mass)))


permutons = st.builds(lambda m, rng: random_permuton(rng, m),
                      st.integers(1, 24), st.randoms(use_true_random=False))


def reduced_word(n: int, picks: list[int]) -> tuple[int, ...]:
    """A reduced word at rank n: each letter swaps an ascent of the word's
    permutation so far, so the length rises with every letter."""
    one_line, word = list(range(1, n + 1)), []
    for pick in picks:
        ascents = [s for s in range(1, n) if one_line[s - 1] < one_line[s]]
        if not ascents:
            break
        s = ascents[pick % len(ascents)]
        one_line[s - 1], one_line[s] = one_line[s], one_line[s - 1]
        word.append(s)
    return tuple(word)


words = st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 10 ** 6), max_size=n * (n - 1) // 2)))


class TestBoundaryRowSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(permutons)
    def test_half_turn_reverses_the_row(self, mu):
        m, turned = mu.m, rot(mu)
        for p in range(1, m):
            assert boundary_row(turned, m - p, m) == boundary_row(mu, p, m)[::-1], p

    @settings(max_examples=100, deadline=None)
    @given(permutons)
    def test_transpose_swaps_apex_and_column(self, mu):
        m, flipped = mu.m, tr(mu)
        rows = {p: boundary_row(mu, p, m) for p in range(1, m)}
        cols = {q: boundary_row(flipped, q, m) for q in range(1, m)}
        for p in range(1, m):
            for q in range(1, m):
                assert rows[p][q] == cols[q][p], (p, q)


class TestBruhatSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(permutons, permutons)
    def test_half_turn_and_transpose_keep_the_order(self, mu, nu):
        for a, b in ((mu, nu), (nu, mu), (mu, mu)):
            verdict = permuton_bruhat_leq(a, b)
            assert permuton_bruhat_leq(rot(a), rot(b)) is verdict
            assert permuton_bruhat_leq(tr(a), tr(b)) is verdict

    def test_every_pair_of_s4(self):
        # both verdicts occur, on equal grids, where the packed pass decides
        mus = [from_perm(w) for w in all_perms(4)]
        verdicts = set()
        for a in mus:
            for b in mus:
                verdict = permuton_bruhat_leq(a, b)
                assert permuton_bruhat_leq(rot(a), rot(b)) is verdict
                assert permuton_bruhat_leq(tr(a), tr(b)) is verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_rot_and_tr_of_a_permutation(self):
        # the half turn is conjugation by w0, the transpose inversion
        rng = random.Random(4)
        for _ in range(20):
            w = Perm(rng.sample(range(1, 10), 9))
            inverse = [0] * 9
            for a, v in enumerate(w.one_line, start=1):
                inverse[v - 1] = a
            assert tr(from_perm(w)).cells == from_perm(Perm(inverse)).cells
            assert rot(from_perm(w)).cells == from_perm(
                Perm([10 - v for v in reversed(w.one_line)])).cells


class TestWordCurveSymmetry:
    @settings(max_examples=150, deadline=None)
    @given(words)
    def test_reversed_word_swaps_vertex_and_column(self, drawn):
        n, picks = drawn
        word = reduced_word(n, picks)
        a = word_curves(word, n, range(1, n))
        b = word_curves(word[::-1], n, range(1, n))
        for i in range(1, n):
            for j in range(1, n):
                assert a[i - 1][j] == b[j - 1][i], (word, i, j)

    @settings(max_examples=150, deadline=None)
    @given(words)
    def test_mirrored_letters_turn_the_curves(self, drawn):
        n, picks = drawn
        word = reduced_word(n, picks)
        a = word_curves(word, n, range(1, n))
        c = word_curves([n - s for s in word], n, range(1, n))
        for i in range(1, n):
            for j in range(n + 1):
                assert c[n - i - 1][n - j] == a[i - 1][j], (word, i, j)
