"""Symmetry oracles for the kernels: each relation below follows from the
definitions alone, so it checks a kernel without a second implementation.

On permutons, rot turns the square by a half turn (cells reversed in both
axes) and tr transposes it.  The boundary curve f_a(x) = a + x - 2 mu([0, x] x
[0, a]) is unchanged when the square turns and a, x go to 1 - a, 1 - x, since
the marginals are uniform; transposing swaps the apex with the column.  Both
maps keep the CDF order, so the permuton Bruhat order is unchanged.

On permutations, u -> u^-1 and u -> w0 u w0 keep the Bruhat order and
u -> w0 u reverses it.  On permutons, flipping the rows (flip) turns the CDF
into x - cdf(x, 1 - y), so it reverses the permuton Bruhat order.

On reduced words, reversing a word spells w^-1, whose ideal swaps vertex and
column: c_i(j) = i + j - 2 #{a <= j : w(a) <= i}.  The letters s -> n - s
spell w0 w w0, whose ideal turns the same half turn.
"""

import random
from bisect import insort
from fractions import Fraction

import pytest
from conftest import bruhat_below, inverse, mass, random_permuton, reduced_word
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj.finite import word_curves
from preproj.permuton import GridPermuton, boundary_row, from_perm, permuton_bruhat_leq
from preproj.symgroup import Perm, all_perms, bruhat_leq


def rot(mu: GridPermuton) -> GridPermuton:
    return GridPermuton(mu.m, [row[::-1] for row in mass(mu)[::-1]])


def tr(mu: GridPermuton) -> GridPermuton:
    return GridPermuton(mu.m, list(zip(*mass(mu))))


def flip(mu: GridPermuton) -> GridPermuton:
    return GridPermuton(mu.m, mass(mu)[::-1])


def uncrossed(mu: GridPermuton, rng: random.Random, steps: int) -> GridPermuton:
    """A permuton at or below mu in the permuton Bruhat order: up to steps
    times, move some mass off two cells that cross, (r2, c1) and (r1, c2)
    with r1 < r2 and c1 < c2, onto (r1, c1) and (r2, c2), which raises the
    CDF on the rectangle between them and nowhere lowers it."""
    m, cells = mu.m, [list(row) for row in mu.cells]
    for _ in range(steps):
        crossings = [(r1, r2, c1, c2) for r1 in range(m) for r2 in range(r1 + 1, m)
                     for c1 in range(m) for c2 in range(c1 + 1, m)
                     if cells[r2][c1] and cells[r1][c2]]
        if not crossings:
            break
        r1, r2, c1, c2 = rng.choice(crossings)
        moved = rng.randint(1, min(cells[r2][c1], cells[r1][c2]))
        cells[r2][c1] -= moved
        cells[r1][c2] -= moved
        cells[r1][c1] += moved
        cells[r2][c2] += moved
    return GridPermuton(m, [[Fraction(v, mu.den) for v in row] for row in cells])


def w0_times(u: Perm) -> Perm:
    return Perm([u.n + 1 - v for v in u.one_line])


def w0_conjugate(u: Perm) -> Perm:
    return Perm([u.n + 1 - v for v in reversed(u.one_line)])


def bruhat_symmetry_faults(u: Perm, v: Perm) -> list[str]:
    """The maps whose image of (u, v) bruhat_leq decides otherwise than u <= v
    (w0 u with the pair reversed)."""
    verdict = bruhat_leq(u, v)
    images = {"inverse": bruhat_leq(inverse(u), inverse(v)),
              "w0 u w0": bruhat_leq(w0_conjugate(u), w0_conjugate(v)),
              "w0 u": bruhat_leq(w0_times(v), w0_times(u))}
    return [name for name, image in images.items() if image is not verdict]


def drawn_pairs(rng: random.Random, v: Perm) -> list[tuple[Perm, Perm]]:
    """(u, v) with u below v, the reverse, and pairs with a random w, most
    of them incomparable."""
    u, w = bruhat_below(v, rng, rng.randint(0, 4)), Perm(rng.sample(range(1, v.n + 1), v.n))
    return [(u, v), (v, u), (u, w), (w, v)]


permutons = st.builds(lambda m, rng: random_permuton(rng, m),
                      st.integers(1, 24), st.randoms(use_true_random=False))


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


perms_up_to_30 = st.integers(1, 30).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(Perm)


class TestBruhatOrderSymmetry:
    @settings(max_examples=200, deadline=None)
    @given(perms_up_to_30, st.randoms(use_true_random=False))
    def test_inverse_and_w0_keep_or_reverse_the_order(self, v, rng):
        for a, b in drawn_pairs(rng, v):
            assert bruhat_symmetry_faults(a, b) == [], (a, b)

    def test_both_verdicts_drawn(self):
        rng, verdicts = random.Random(5), []
        for _ in range(150):
            n = rng.randint(1, 12)
            v = Perm(rng.sample(range(1, n + 1), n))
            for a, b in drawn_pairs(rng, v):
                assert bruhat_symmetry_faults(a, b) == []
                verdicts.append(bruhat_leq(a, b))
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8, sum(verdicts)

    def test_a_tableau_without_its_last_row_is_caught(self, monkeypatch):
        def short_tableau(self):  # rows 1..n-2: one row short
            prefix, flat = [], []
            for v in self.one_line[:-2]:
                insort(prefix, v)
                flat += prefix
            return tuple(flat)

        monkeypatch.setattr(Perm, "tableau", property(short_tableau))
        perms = list(all_perms(4))
        assert any(bruhat_symmetry_faults(u, v) for u in perms for v in perms)


class TestPermutonOrderFlip:
    @settings(max_examples=150, deadline=None)
    @given(permutons, st.integers(1, 24), st.randoms(use_true_random=False))
    def test_flipping_the_rows_reverses_the_order(self, mu, m, rng):
        nu, other = uncrossed(mu, rng, rng.randint(0, 3)), random_permuton(rng, m)
        for a, b in ((mu, nu), (nu, mu), (mu, other), (other, nu)):
            assert permuton_bruhat_leq(a, b) is permuton_bruhat_leq(flip(b), flip(a))

    def test_comparable_and_incomparable_pairs_drawn(self):
        rng, seen = random.Random(7), {True: 0, False: 0}
        for _ in range(60):
            mu = random_permuton(rng, rng.randint(1, 12))
            for nu in (uncrossed(mu, rng, rng.randint(1, 3)),
                       random_permuton(rng, rng.choice((mu.m, rng.randint(1, 12))))):
                for a, b in ((mu, nu), (nu, mu)):
                    verdict = permuton_bruhat_leq(a, b)
                    assert permuton_bruhat_leq(flip(b), flip(a)) is verdict
                seen[permuton_bruhat_leq(nu, mu) or permuton_bruhat_leq(mu, nu)] += 1
        assert seen[True] >= 30 and seen[False] >= 10, seen
