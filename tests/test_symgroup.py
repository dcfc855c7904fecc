import itertools
import os
import random
import subprocess
import sys
from functools import partial
from math import factorial
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_word_by_perm, bruhat_below, bruhat_by_covers, bruhat_by_subwords,
                      bruhat_leq_by_dominance, canonical_word_by_inverse, dominance,
                      dominance_by_cells, dominance_table, identity, inverse,
                      is_reduced_by_perm, length, length_by_pairs, min_coset_line_by_counters,
                      mul, perm_refusal_by_any, reduced_word)
from preproj import symgroup
from preproj.cli import main
from preproj.errors import (
    CertificateFailure,
    DomainError,
    PreprojError,
    TooLarge,
)
from preproj.lanes import Lanes
from preproj.symgroup import (
    Perm,
    all_perms,
    all_reduced_words,
    bruhat_leq,
    canonical_reduced_word_of_rep,
    is_reduced,
    min_coset_line,
    perm_at,
)

W = Perm((2, 5, 3, 4, 1))


class TestPerm:
    def test_validates(self):
        with pytest.raises(DomainError):
            Perm((1, 1, 2))

    @pytest.mark.parametrize("one_line", [(1, 2.7, 3), (True, 2), ("1", "2")])
    def test_rejects_non_integer_entries(self, one_line):
        with pytest.raises(DomainError):
            Perm(one_line)

    def test_inverse(self):
        assert mul(W, inverse(W)) == identity(5)

    def test_str(self):
        assert str(W) == "25341"


class TestPermAt:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_ranks_follow_all_perms(self, n):
        assert [perm_at(n, t) for t in range(factorial(n))] == list(all_perms(n))

    @pytest.mark.parametrize("rank", [-1, 24])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(DomainError, match=f"rank {rank} outside 0..4! - 1"):
            perm_at(4, rank)

    def test_large_n_lists_nothing(self):
        assert perm_at(20, 0) == identity(20)
        assert perm_at(20, factorial(20) - 1) == Perm(range(20, 0, -1))


class TestLength:
    def test_identity(self):
        assert length(identity(5)) == 0

    def test_25341(self):
        assert length(W) == 6

    def test_transposition(self):
        assert length(Perm((2, 1))) == 1


class TestWords:
    """The one product of letters, symgroup._spell, on one-line lists."""

    def test_paper_word(self):
        assert symgroup._spell((1, 2, 4, 3, 2, 4), 5) == [*W.one_line]
        assert symgroup._spell((1, 2, 3, 4, 3, 2), 5) == [*W.one_line]

    def test_empty_word(self):
        assert symgroup._spell((), 4) == [1, 2, 3, 4]

    def test_cancellation_not_reduced(self):
        assert not is_reduced((1, 1), 3)
        assert is_reduced((1, 2, 4, 3, 2, 4), 5)

    def test_letter_range(self):
        # is_reduced checks every letter before it spells the word
        for word in ((4,), (0,), (1, 2, 4), (-1, 1)):
            bad = next(letter for letter in word if not 1 <= letter <= 3)
            with pytest.raises(DomainError, match=f"letter {bad} outside 1..3"):
                is_reduced(word, 4)


class TestAllReducedWords:
    def test_identity(self):
        assert all_reduced_words(identity(3)) == frozenset({()})

    def test_braid_pair(self):
        assert all_reduced_words(Perm((3, 2, 1))) == frozenset(
            {(1, 2, 1), (2, 1, 2)}
        )

    def test_contains_both_paper_words(self):
        words = all_reduced_words(W)
        assert (1, 2, 4, 3, 2, 4) in words
        assert (1, 2, 3, 4, 3, 2) in words

    def test_every_word_is_reduced_and_evaluates(self):
        for w in all_perms(4):
            for word in all_reduced_words(w):
                assert is_reduced(word, 4)
                assert apply_word_by_perm(word, 4) == w

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "4")
        with pytest.raises(TooLarge,
                           match=r"n=5 exceeds the guard \(4\); set PREPROJ_MAX_N to override"):
            all_reduced_words(identity(5))

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "7")
        assert all_reduced_words(identity(7)) == frozenset({()})


class TestBruhat:
    def test_identity_below_everything(self):
        e = identity(4)
        assert all(bruhat_leq(e, v) for v in all_perms(4))

    def test_2143_leq_3412(self):
        assert bruhat_leq(Perm((2, 1, 4, 3)), Perm((3, 4, 1, 2)))

    def test_321_not_leq_231(self):
        assert not bruhat_leq(Perm((3, 2, 1)), Perm((2, 3, 1)))

    def test_size_mismatch(self):
        with pytest.raises(DomainError, match="sizes 2 and 3 differ"):
            bruhat_leq(Perm((1, 2)), Perm((1, 2, 3)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_cover_closure_oracle(self, n):
        oracle = bruhat_by_covers(n)
        for u in all_perms(n):
            for v in all_perms(n):
                assert bruhat_leq(u, v) == oracle[(u.one_line, v.one_line)]

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_subword_oracle(self, n):
        oracle = bruhat_by_subwords(n)
        perms = list(all_perms(n))
        assert {(u.one_line, v.one_line): bruhat_leq(u, v)
                for u in perms for v in perms} == oracle
        if n == 4:
            assert oracle == bruhat_by_covers(4)

    def test_length_monotone_on_s4(self):
        for u in all_perms(4):
            for v in all_perms(4):
                if bruhat_leq(u, v):
                    assert length(u) <= length(v)

    def test_partial_order_axioms_s4(self):
        perms = list(all_perms(4))
        leq = {
            (u.one_line, v.one_line): bruhat_leq(u, v) for u in perms for v in perms
        }
        for u in perms:
            assert leq[(u.one_line, u.one_line)]
            for v in perms:
                if leq[(u.one_line, v.one_line)] and leq[(v.one_line, u.one_line)]:
                    assert u == v
                for w in perms:
                    if leq[(u.one_line, v.one_line)] and leq[(v.one_line, w.one_line)]:
                        assert leq[(u.one_line, w.one_line)]


perms_up_to_9 = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(Perm)


class TestDominanceTable:
    def test_25341(self):
        assert dominance_table(W)[3] == [0, 3, 2, 1, 1, 0]

    @given(perms_up_to_9, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_cell_loop(self, u, rng):
        assert dominance_table(u) == dominance_by_cells(u)
        v = Perm(rng.sample(range(1, u.n + 1), u.n))
        tu, tv = dominance_by_cells(u), dominance_by_cells(v)
        assert bruhat_leq(u, v) == all(
            tu[i][j] <= tv[i][j] for i in range(u.n + 1) for j in range(u.n + 1)
        )

    @given(perms_up_to_9)
    @settings(max_examples=100, deadline=None)
    def test_dominance_is_the_table_interior(self, u):
        table = dominance_by_cells(u)
        assert dominance(u) == tuple(table[i][j] for i in range(1, u.n)
                                     for j in range(1, u.n))


perms_up_to_12 = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(Perm)


class TestTableau:
    """Ehresmann's tableau criterion against the dominance criterion."""

    def test_25341(self):
        assert W.tableau == (2, 2, 5, 2, 3, 5, 2, 3, 4, 5)
        assert W.tableau == W.tableau  # a plain property: built again, equal, on each read

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sizes(self, n):
        for u in all_perms(n):
            assert len(u.tableau) == n * (n - 1) // 2
        assert Perm((1,)).tableau == () and Perm((2, 1)).tableau == (2,)

    def test_every_pair_of_s6_matches_dominance(self):
        perms = list(all_perms(6))
        lanes = Lanes([v.tableau for v in perms], 6)
        tables = [dominance(v) for v in perms]
        for u, tu in zip(perms, tables):
            row = lanes.at_least(u.tableau)
            got = [bool(row >> lanes.width * (t + 1) - 1 & 1) for t in range(len(perms))]
            assert got == [all(map(le, tu, tv)) for tv in tables]
        assert sum(bruhat_leq(u, v) for u in perms[::7] for v in perms) == sum(
            bruhat_leq_by_dominance(u, v) for u in perms[::7] for v in perms)

    @given(perms_up_to_12, st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_dominance_up_to_12(self, v, rng):
        u = bruhat_below(v, rng, rng.randint(0, 4))
        other = Perm(rng.sample(range(1, v.n + 1), v.n))
        for a, b in ((u, v), (v, u), (u, other), (other, v)):
            assert bruhat_leq(a, b) == bruhat_leq_by_dominance(a, b)
        assert bruhat_leq(u, v)

    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_packed_rows_match_pairs(self, n, rng):
        targets = [Perm(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(1, 30))]
        sources = [bruhat_below(rng.choice(targets), rng, 2) for _ in range(5)]
        lanes = Lanes([v.tableau for v in targets], n)
        for u in sources:
            row = lanes.at_least(u.tableau)
            assert [bool(row >> lanes.width * (t + 1) - 1 & 1) for t in range(len(targets))] \
                == [bruhat_leq_by_dominance(u, v) for v in targets]


class TestCosetReps:
    def test_paper_examples(self):
        assert min_coset_line(W.one_line, 2) == (1, 3, 4, 5, 2)
        assert min_coset_line(W.one_line, 3) == (1, 4, 2, 5, 3)

    def test_identity_fixed(self):
        e = identity(5)
        for i in range(1, 5):
            assert min_coset_line(e.one_line, i) == e.one_line

    def test_length_additivity_s5(self):
        # length(w) = length(w rep^{-1}) + length(rep) for every vertex
        for w in all_perms(5):
            for i in range(1, 5):
                rep = Perm(min_coset_line(w.one_line, i))
                stabiliser_part = mul(w, inverse(rep))
                assert length(w) == length(stabiliser_part) + length(rep)


class TestCanonicalWord:
    def test_block_word_i2(self):
        assert canonical_reduced_word_of_rep(Perm((1, 3, 4, 5, 2)), 2) == (2, 3, 4)

    def test_block_word_i3(self):
        # the block formula gives (3,4,2); the commuting letters 2 and 4 make
        # it the same permutation as the factorization (3,2,4)
        word = canonical_reduced_word_of_rep(Perm((1, 4, 2, 5, 3)), 3)
        assert word == (3, 4, 2)
        assert symgroup._spell(word, 5) == symgroup._spell((3, 2, 4), 5)

    def test_identity_empty(self):
        assert canonical_reduced_word_of_rep(identity(4), 1) == ()

    def test_rejects_non_rep(self):
        with pytest.raises(DomainError, match="25341 is not minimal in its coset for vertex 2"):
            canonical_reduced_word_of_rep(W, 2)

    def test_reduced_and_evaluates_everywhere(self):
        for w in all_perms(5):
            for i in range(1, 5):
                rep = Perm(min_coset_line(w.one_line, i))
                word = canonical_reduced_word_of_rep(rep, i)
                assert is_reduced(word, 5)
                assert apply_word_by_perm(word, 5) == rep

    def test_a_wrong_inversion_count_fails_the_self_check(self, monkeypatch, capsys):
        monkeypatch.setattr(symgroup, "_inversions", lambda one_line: -1)
        with pytest.raises(CertificateFailure):
            canonical_reduced_word_of_rep(Perm((1, 3, 2)), 2)
        assert main(["check", "bridge", "--perm", "132"]) == 2
        assert capsys.readouterr().err.startswith("error: the block word of ")

    def test_the_self_check_survives_optimised_mode(self):
        # python -O strips assert statements, not this check
        src = Path(symgroup.__file__).parents[1]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [path])])}
        program = ("import sys; from preproj import symgroup; from preproj.cli import main; "
                   "symgroup._inversions = lambda one_line: -1; "
                   "sys.exit(main(['check', 'bridge', '--perm', '132']))")
        proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the block word of ")


def outcome(f, *args):
    """f(*args), or the type and text of the library error it raises."""
    try:
        return f(*args)
    except PreprojError as exc:
        return type(exc), str(exc)


# a rank up to 30 and a word at it: reduced, mostly not reduced, or with
# letters out of range too
drawn_words = st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.lists(st.integers(0, 10 ** 6), max_size=n * (n - 1) // 2).map(
        lambda picks: reduced_word(n, picks)),
    st.lists(st.integers(1, max(n - 1, 1)), max_size=3 * n).map(tuple),
    st.lists(st.integers(-1, n + 1), max_size=2 * n).map(tuple))))


def minimal_rep(n: int, i: int, low) -> Perm:
    """The minimal coset representative for vertex i with the values 1..i,
    increasing, at the positions low (from 0), and i+1..n increasing on the
    rest; every one is such."""
    ones, values = iter(range(1, i + 1)), iter(range(i + 1, n + 1))
    return Perm(next(ones) if p in low else next(values) for p in range(n))


def word_layer_mismatches(word, n: int) -> list[str]:
    """The functions of the word layer whose result or error type differs
    from its former Perm route's on (word, n); _spell, which reads its
    letters unchecked, only on a word whose letters the Perm route takes."""
    spelled = outcome(apply_word_by_perm, word, n)
    pairs = [("is_reduced", outcome(is_reduced, word, n), outcome(is_reduced_by_perm, word, n))]
    if isinstance(spelled, Perm):
        pairs.append(("_spell", symgroup._spell(word, n), [*spelled.one_line]))
        pairs.append(("length", length(spelled), length_by_pairs(spelled)))
    return [name for name, got, expected in pairs if got != expected]


class TestWordLayerOnLists:
    """_spell, is_reduced, the inversion count and the canonical word, on
    one-line lists, against their former routes through Perm."""

    @given(drawn_words)
    @settings(max_examples=400, deadline=None)
    def test_words_match_the_perm_route(self, drawn):
        n, word = drawn
        assert word_layer_mismatches(word, n) == []

    @given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
    @settings(max_examples=200, deadline=None)
    def test_length_matches_all_pairs(self, one_line):
        w = Perm(one_line)
        assert length(w) == length_by_pairs(w)

    @pytest.mark.parametrize("n", range(1, 31, 7))
    def test_reduced_words_are_reduced(self, n):
        rng = random.Random(n)
        word = reduced_word(n, [rng.randrange(n * n) for _ in range(n * (n - 1) // 2)])
        assert is_reduced(word, n) and length(apply_word_by_perm(word, n)) == len(word)
        assert not is_reduced(word + word[-1:], n) if word else is_reduced((), n)

    def test_an_inversion_count_missing_a_pair_is_caught(self, monkeypatch):
        inversions = symgroup._inversions
        monkeypatch.setattr(symgroup, "_inversions",
                            lambda one_line: max(inversions(one_line) - 1, 0))
        assert word_layer_mismatches((1, 2, 4, 3, 2, 4), 5) == ["is_reduced", "length"]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_minimal_rep_up_to_7(self, n):
        for i in range(1, n):
            for rep in map(partial(minimal_rep, n, i), itertools.combinations(range(n), i)):
                assert canonical_reduced_word_of_rep(rep, i) == canonical_word_by_inverse(rep, i)

    @given(st.integers(2, 30), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_random_reps_up_to_30(self, n, rng):
        i = rng.randrange(1, n)
        rep = minimal_rep(n, i, set(rng.sample(range(n), i)))
        word = canonical_reduced_word_of_rep(rep, i)
        assert word == canonical_word_by_inverse(rep, i)
        assert apply_word_by_perm(word, n) == rep and is_reduced(word, n)

    @given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(1, n + 1))),
           st.integers(-1, 31))
    @settings(max_examples=300, deadline=None)
    def test_errors_match_the_perm_route(self, one_line, i):
        # a random u is seldom minimal, and i runs past both ends
        u = Perm(one_line)
        assert outcome(canonical_reduced_word_of_rep, u, i) == outcome(
            canonical_word_by_inverse, u, i)


class TestLoopKernels:
    """min_coset_line's two-counter loop and Perm's one type test per set of
    types, against the routes they replace."""

    @pytest.mark.parametrize("n", range(7))
    def test_min_coset_line_at_every_vertex_of_s_n(self, n):
        for ol in itertools.permutations(range(1, n + 1)):
            for i in range(n + 1):
                assert min_coset_line(ol, i) == min_coset_line_by_counters(ol, i)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        st.permutations(range(1, n + 1)), st.integers(0, n))))
    def test_min_coset_line_up_to_20(self, drawn):
        ol, i = drawn
        assert min_coset_line(ol, i) == min_coset_line_by_counters(ol, i)

    @pytest.mark.parametrize("one_line", [
        (), (1,), (2, 1, 3), (True,), (1, False), (2, True), (1.0,), (2, 1.0), (1, 1),
        (2, 2, 1), (0,), (0, 1), (1, 3), (3, 1, 2, 4, 5, 6, 7, 8, 9, 11), ("1",), (None,),
        (1, 2**70), (-1, 1)])
    def test_perm_refuses_as_before(self, one_line):
        refusal = perm_refusal_by_any(one_line)
        if refusal is None:
            assert Perm(one_line).one_line == tuple(one_line)
        else:
            with pytest.raises(DomainError) as info:
                Perm(one_line)
            assert str(info.value) == refusal

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 12) | st.booleans() | st.floats(0, 12), max_size=10)
           | st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_perm_refuses_as_before_on_any_list(self, one_line):
        self.test_perm_refuses_as_before(one_line)
