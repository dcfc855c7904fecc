import itertools
import random
from fractions import Fraction as F

import pytest
from conftest import (QuiverRep, apply_word_by_perm, bottom_boundary, curve_hom_dim_by_pair,
                      curve_units_by_columns, factor_rep, hom_dim, identity,
                      hom_dim_by_elimination, hom_lengths, ideal_curves_by_accumulate,
                      loop_action, random_curve, rank_curves_by_bits,
                      rep_is_deep, sawtooth_rep, sawtooth_rep_by_midpoints, simple_rep,
                      tau_rigid_witness_by_memo, to_rep, word_curves_by_strip, zero_rep)
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj.errors import (
    DomainError,
    TooLarge,
)
from preproj.finite import (
    CurveModule,
    DiamondCurve,
    HomLanes,
    Kind,
    band,
    factors,
    hom_dims,
    ideal_curves,
    ideal_of,
    ideal_via_word,
    is_tau_rigid_ideal,
    is_zero,
    projective,
    rank_curves,
    strip,
    strip_curves,
    summand_via_word,
    tau_rigid_witness,
    tau_sub,
    top_removable,
    vanishing_rows,
    word_curves,
)
from preproj.sheets import SawtoothDesc, is_deep
from preproj.symgroup import Perm, all_perms, all_reduced_words, bruhat_leq

W = Perm((2, 5, 3, 4, 1))


def descent_walk_word(w: Perm, rng: random.Random) -> tuple[int, ...]:
    """A reduced word for w: swap away a random right descent until none is
    left; the swaps, last first, spell w."""
    ol = list(w.one_line)
    undone = []
    while True:
        descents = [p for p in range(len(ol) - 1) if ol[p] > ol[p + 1]]
        if not descents:
            word = tuple(reversed(undone))
            assert apply_word_by_perm(word, w.n) == w
            return word
        p = rng.choice(descents)
        ol[p], ol[p + 1] = ol[p + 1], ol[p]
        undone.append(p + 1)


# dim Hom(i, j) over the algebra on five vertices
A5_TABLE = [
    [1, 1, 1, 1, 1],
    [1, 2, 2, 2, 1],
    [1, 2, 3, 2, 1],
    [1, 2, 2, 2, 1],
    [1, 1, 1, 1, 1],
]


class TestHomLengths:
    def test_endomorphisms_of_2(self):
        assert hom_lengths(2, 2, 6).lengths == (0, 2)

    def test_2_to_4(self):
        assert hom_lengths(2, 4, 6).lengths == (2, 4)

    def test_middle_vertex(self):
        assert hom_lengths(3, 3, 6).lengths == (0, 2, 4)

    def test_full_table(self):
        for i in range(1, 6):
            for j in range(1, 6):
                assert len(hom_lengths(i, j, 6).lengths) == A5_TABLE[i - 1][j - 1]

    def test_bad_vertex(self):
        with pytest.raises(DomainError, match="vertices 0,2 outside 1..5"):
            hom_lengths(0, 2, 6)


class TestProjective:
    def test_p1_curve(self):
        assert projective(1, 5).curve.values == tuple(
            F(abs(j - 1), 5) for j in range(6)
        )

    def test_p2_curve(self):
        assert projective(2, 5).curve.values == (
            F(2, 5), F(1, 5), F(0), F(1, 5), F(2, 5), F(3, 5),
        )

    def test_p2_factor_multiset(self):
        # P_2 over five vertices has composition factors 1,2,2,3,3,4
        cols = sorted(j for j, _ in factors(projective(2, 5)))
        assert cols == [1, 2, 2, 3, 3, 4]
        depths3 = sorted(d for j, d in factors(projective(2, 5)) if j == 3)
        assert depths3 == [2, 4]

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            DiamondCurve(2, 5, [F(2, 5)] * 6)

    def test_off_grid_values_rejected(self):
        with pytest.raises(DomainError):
            DiamondCurve.from_values(2, 5, ["2/5", "1/3", "2/5", "3/5", "4/5", "3/5"])

    def test_values_round_trip_through_units(self):
        curve = ideal_of(W)[1].curve
        assert curve.units == (2, 1, 2, 3, 4, 3)
        assert DiamondCurve.from_values(2, 5, curve.values) == curve


class TestStripping:
    def test_top_of_projective(self):
        assert top_removable(projective(2, 5)) == {2}

    def test_zero_module_has_empty_top(self):
        z = CurveModule(Kind.SUB, bottom_boundary(2, 5))
        assert top_removable(z) == frozenset()
        assert is_zero(z)

    def test_strip_moves_peaks(self):
        s = strip(projective(2, 5), 2)
        assert s.curve.values == (F(2,5), F(1,5), F(2,5), F(1,5), F(2,5), F(3,5))
        assert top_removable(s) == {1, 3}

    def test_strip_wrong_vertex(self):
        with pytest.raises(DomainError, match="S_3 is not in the top of this module"):
            strip(projective(2, 5), 3)

    def test_strip_p1_to_zero(self):
        m = projective(1, 5)
        for j in (1, 2, 3, 4):
            m = strip(m, j)
        assert is_zero(m)
        assert m.curve == bottom_boundary(1, 5)

    def test_quotients_rejected(self):
        with pytest.raises(DomainError, match="top removal applies to submodules of projectives"):
            top_removable(tau_sub(projective(2, 5)))


class TestIdealViaWord:
    def test_empty_word_is_whole_algebra(self):
        assert ideal_via_word((), 5) == tuple(projective(i, 5) for i in range(1, 5))

    def test_single_letter(self):
        summands = ideal_via_word((2,), 5)
        assert summands[1] == strip(projective(2, 5), 2)
        for i in (1, 3, 4):
            assert summands[i - 1] == projective(i, 5)

    def test_paper_word_kills_first_summand(self):
        summands = ideal_via_word((1, 2, 4, 3, 2, 4), 5)
        assert is_zero(summands[0])
        assert summands[1].curve.values == (
            F(2, 5), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(3, 5),
        )

    def test_rejects_non_reduced(self):
        with pytest.raises(DomainError, match=r"\(1, 1\) is not reduced"):
            ideal_via_word((1, 1), 5)


class TestSummandViaWord:
    """One summand stripped alone, against that summand of the whole ideal."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 14).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.randoms(use_true_random=False),
    )
    def test_matches_the_whole_ideal(self, one_line, rng):
        w = Perm(one_line)
        word = descent_walk_word(w, rng)
        for prefix in (word, word[:rng.randint(0, len(word))]):  # both reduced
            ideal = ideal_via_word(prefix, w.n)
            for i in range(1, w.n):
                assert summand_via_word(prefix, w.n, i) == ideal[i - 1].curve.units

    def test_rejects_non_reduced_words_and_vertices_outside(self):
        with pytest.raises(DomainError, match=r"\(1, 1\) is not reduced"):
            summand_via_word((1, 1), 5, 1)
        for i in (0, 5):
            with pytest.raises(DomainError, match=f"vertex {i} outside 1..4"):
                summand_via_word((), 5, i)


class TestStripLetter:
    """One more letter on the curves of an ideal: strip_curves, the one
    single-letter step, against word_curves along the longer word."""

    def test_extends_every_reduced_word_s4(self):
        # appending an ascent s to a reduced word keeps it reduced
        for w in all_perms(4):
            for word in all_reduced_words(w):
                for s in range(1, 4):
                    if w(s) < w(s + 1):
                        assert strip_curves(word_curves(word, 4, range(1, 4)), s) == \
                            word_curves(word + (s,), 4, range(1, 4))

    def test_leaves_its_argument_alone(self):
        curves = word_curves((2,), 5, range(1, 5))
        assert strip_curves(curves, 1) != curves
        assert curves == word_curves((2,), 5, range(1, 5))

    @pytest.mark.parametrize("n,letter", [(5, 0), (5, 5), (1, 1)])
    def test_rejects_letters_outside_the_range(self, n, letter):
        with pytest.raises(DomainError, match=f"letter {letter} outside 1..{n - 1}"):
            word_curves((letter,), n, range(1, n))


class TestIdealOf:
    def test_identity(self):
        assert ideal_of(identity(5)) == tuple(projective(i, 5) for i in range(1, 5))

    def test_25341_summand_curves(self):
        summands = ideal_of(W)
        # (I_w)^1 is zero; its curve is the lower diamond boundary 1-|x-4/5|
        assert is_zero(summands[0])
        assert summands[0].curve == bottom_boundary(1, 5)
        # (I_w)^2 is the three-piece curve 2/5-x, x, 8/5-x on the grid
        assert summands[1].curve.values == (
            F(2, 5), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(3, 5),
        )

    def test_agrees_with_any_reduced_word_s4(self):
        for w in all_perms(4):
            reference = ideal_of(w)
            for word in all_reduced_words(w):
                assert ideal_via_word(word, 4) == reference

    def test_closed_form_matches_stripping_s3_to_s6(self):
        rng = random.Random(7)
        for n in range(3, 7):
            for w in all_perms(n):
                assert ideal_of(w) == ideal_via_word(descent_walk_word(w, rng), n)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.randoms(use_true_random=False),
    )
    def test_closed_form_matches_stripping_random(self, one_line, rng):
        w = Perm(one_line)
        assert ideal_of(w) == ideal_via_word(descent_walk_word(w, rng), w.n)

    def test_bruhat_monotone_curves_s4(self):
        ideals = {w.one_line: ideal_of(w) for w in all_perms(4)}
        for u in all_perms(4):
            for v in all_perms(4):
                if bruhat_leq(u, v):
                    for mu, mv in zip(ideals[u.one_line], ideals[v.one_line]):
                        assert all(
                            a <= b for a, b in zip(mu.curve.values, mv.curve.values)
                        )


class TestIntegerCore:
    """The integer curves the sweeps compute on: every curve the closed form
    and the strip step make is a valid DiamondCurve, and the closed form is
    stripping along any reduced word."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_and_cover_edges_make_valid_curves(self, n):
        made = set()
        for ol in itertools.permutations(range(1, n + 1)):
            curves = ideal_curves(ol)
            made.update(curves)
            # each cover edge ol -> ol s up the right weak order
            for s in range(1, n):
                if ol[s - 1] < ol[s]:
                    made.update(strip_curves(curves, s))
        assert len(made) == 2 ** n - 2  # one curve per (vertex, set w^-1{1..i})
        for units in made:
            assert DiamondCurve(units[0], n, units).units == units

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 20).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_curves_stay_valid_at_any_letter(self, one_line):
        n = len(one_line)
        curves = ideal_curves(one_line)
        for s in range(1, n):
            for units in (*curves, *strip_curves(curves, s)):
                DiamondCurve(units[0], n, units)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.randoms(use_true_random=False),
    )
    def test_closed_form_is_stripping_along_a_drawn_word(self, one_line, rng):
        w = Perm(one_line)
        word = descent_walk_word(w, rng)
        assert ideal_curves(one_line) == word_curves(word, w.n, range(1, w.n)) == tuple(
            m.curve.units for m in ideal_via_word(word, w.n))

    def test_strip_step_leaves_curves_without_a_peak_alone(self):
        curves = ideal_curves((2, 5, 3, 4, 1))
        stripped = strip_curves(curves, 3)
        assert [a is b for a, b in zip(curves, stripped)] == [
            not (a[2] == a[3] + 1 == a[4]) for a in curves]


def outcome(read, *args):
    """What read(*args) returns, or the type and text of the DomainError it raises."""
    try:
        return read(*args)
    except DomainError as exc:
        return DomainError, str(exc)


class TestWholeTupleRoutes:
    """The whole-tuple curve checks and the in-place strip against the
    element-by-element routes they replaced."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 16), st.randoms(use_true_random=False))
    def test_curve_checks_match_the_column_loop(self, n, rng):
        i = rng.randint(1, n - 1)
        units = list(random_curve(i, n, rng).units)
        for _ in range(rng.choice([0, 1, 1, 2])):  # planted bad steps and columns
            j = rng.randrange(n + 1)
            units[j] += rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.2:  # the whole curve shifted: good steps, off the diamond
            shift = rng.choice([-2, 2])
            units = [u + shift for u in units]
        if rng.random() < 0.1:
            units = units[:-1] if rng.random() < 0.5 else units + [units[-1] + 1]
        i = i if rng.random() < 0.9 else rng.choice([0, n, -1])
        assert outcome(lambda: DiamondCurve(i, n, units).units) == outcome(
            curve_units_by_columns, i, n, units)

    def test_every_column_of_every_curve_at_4(self):
        # every +-1 walk of five values from each start 0..4, at every vertex
        seen = set()
        for i in range(1, 4):
            for start in range(5):
                for steps in itertools.product((1, -1), repeat=4):
                    units = tuple(itertools.accumulate(steps, initial=start))
                    got = outcome(lambda: DiamondCurve(i, 4, units).units)
                    assert got == outcome(curve_units_by_columns, i, 4, units)
                    seen.add(got[1] if got[0] is DomainError else "valid")
        # one step from its vertex a curve is still inside: column 1 never fails first
        assert seen == {"valid", *(f"curve leaves the diamond at column {j}"
                                   for j in (0, 2, 3, 4))}

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 16).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.randoms(use_true_random=False),
    )
    def test_word_curves_match_the_strip_fold(self, one_line, rng):
        w = Perm(one_line)
        word = descent_walk_word(w, rng)
        word = word[:rng.randint(0, len(word))]  # reduced too
        for vertices in (range(1, w.n), *((i,) for i in range(1, w.n))):
            assert word_curves(word, w.n, vertices) == word_curves_by_strip(
                word, w.n, vertices)

    def test_non_reduced_words_match_the_strip_fold(self):
        for word in ((1, 1), (2, 1, 2, 1), (3, 1, 3)):
            assert outcome(word_curves, word, 5, range(1, 5)) == outcome(
                word_curves_by_strip, word, 5, range(1, 5)) == (
                DomainError, f"{word} is not reduced")


class TestTau:
    def test_tau_of_projective_is_zero(self):
        assert is_zero(tau_sub(projective(2, 5)))

    def test_tau_of_zero_is_full_quotient(self):
        z = CurveModule(Kind.SUB, bottom_boundary(2, 5))
        t = tau_sub(z)
        assert sorted(factors(t)) == sorted(factors(projective(2, 5)))

    def test_tau_complements_factors(self):
        m = ideal_of(W)[1]
        sub = set(factors(m))
        quot = set(factors(tau_sub(m)))
        full = set(factors(projective(2, 5)))
        assert sub | quot == full and not (sub & quot)


class TestToRep:
    def test_p1_dims(self):
        assert to_rep(projective(1, 5)).dims == (1, 1, 1, 1)

    def test_p2_dims(self):
        assert to_rep(projective(2, 5)).dims == (1, 2, 2, 1)

    def test_zero_dims(self):
        z = CurveModule(Kind.SUB, bottom_boundary(2, 5))
        assert to_rep(z).dims == (0, 0, 0, 0)

    def test_p2_basis_maps(self):
        # factors (1,2); (2,1), (2,3); (3,2) of P_2 at n = 4
        rep = to_rep(projective(2, 4))
        assert rep.alpha == ((1,), (0, -1))
        assert rep.alpha_star == ((0, -1), (1,))
        assert loop_action(rep, 2) == (1, -1)
        assert loop_action(rep, 1) == loop_action(rep, 3) == (-1,)

    def test_random_curve_reps_satisfy_relations(self):
        # QuiverRep raises on construction if the relation fails
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 8)
            i = rng.randint(1, n - 1)
            curve = random_curve(i, n, rng)
            for kind in (Kind.SUB, Kind.QUOT):
                to_rep(CurveModule(kind, curve))


class TestFactorRep:
    def test_simple_and_zero_are_one_factor_and_none(self):
        for n in range(2, 10):
            assert zero_rep(n) == factor_rep(n, ())
            assert zero_rep(n) == QuiverRep(n, (0,) * (n - 1), ((),) * (n - 2),
                                            ((),) * (n - 2))
            for i in range(1, n):
                dims = tuple(int(j == i) for j in range(1, n))
                assert simple_rep(i, n) == factor_rep(n, [(i, 0)])
                assert simple_rep(i, n) == QuiverRep(
                    n, dims,
                    tuple((-1,) * dims[e] for e in range(n - 2)),
                    tuple((-1,) * dims[e + 1] for e in range(n - 2)),
                )

    def test_factor_order_does_not_matter(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 9)
            m = CurveModule(rng.choice(list(Kind)), random_curve(rng.randint(1, n - 1), n, rng))
            shuffled = list(factors(m))
            rng.shuffle(shuffled)
            assert factor_rep(n, shuffled) == to_rep(m)

    @pytest.mark.parametrize("column", [0, 5, -1])
    def test_column_outside_the_quiver(self, column):
        with pytest.raises(DomainError, match=f"vertex {column} outside 1..4"):
            factor_rep(5, [(2, 1), (column, 1)])

    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True),
                                       (False, False)])
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.randoms(use_true_random=False))
    def test_sawtooth_matches_midpoint_builder(self, flags, n, rng):
        teeth = random_sawtooth(n, rng).teeth
        # depths are relative to the first tooth: values off the grid too
        shift = F(rng.randint(-3, 3), rng.randint(1, 7))
        desc = SawtoothDesc(teeth[0][0], teeth[-1][0],
                            [(x, v + shift) for x, v in teeth], flags)
        for m in (n, n + 1, 2 * n):
            outcomes = []
            for build in (sawtooth_rep, sawtooth_rep_by_midpoints):
                try:
                    outcomes.append(build(desc, m))
                except DomainError as exc:
                    assert "off the 1/" in str(exc)
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


class TestQuiverRep:
    """Hand-built basis maps: (dims, alpha, alpha_star) at n = 4 unless noted."""

    def test_valid_reps_construct(self):
        QuiverRep(3, (1, 1), ((0,),), ((-1,),))
        QuiverRep(4, (0, 1, 1), ((), (0,)), ((-1,), (-1,)))
        QuiverRep(2, (3,), (), ())

    def test_wrong_vertex_count(self):
        with pytest.raises(DomainError, match="vertex dimensions"):
            QuiverRep(4, (1, 1), ((0,),), ((-1,),))

    def test_wrong_arrow_count(self):
        with pytest.raises(DomainError, match="arrow maps"):
            QuiverRep(3, (1, 1), (), ())

    def test_map_of_wrong_length(self):
        with pytest.raises(DomainError, match="must have 1 entries"):
            QuiverRep(3, (1, 1), ((0, 0),), ((-1,),))

    @pytest.mark.parametrize("entry", [1, -2, 5, "0", True])
    def test_index_out_of_range(self, entry):
        with pytest.raises(DomainError, match="entries must lie in"):
            QuiverRep(3, (1, 1), ((entry,),), ((-1,),))

    def test_non_injective_map(self):
        # alpha_1 sends both basis vectors of V_1 to the one of V_2; the
        # relation holds, since alpha* is zero
        with pytest.raises(DomainError, match="two basis vectors to one"):
            QuiverRep(3, (2, 1), ((0, 0),), ((-1,),))

    def test_relation_fails_at_interior_vertex(self):
        # at vertex 2, alpha*_2 alpha_2 sends v -> w -> v but alpha*_1 is zero
        with pytest.raises(DomainError, match="fails at vertex 2$"):
            QuiverRep(4, (0, 1, 1), ((), (0,)), ((-1,), (0,)))

    def test_relation_fails_at_end_vertex(self):
        with pytest.raises(DomainError, match="fails at vertex 1$"):
            QuiverRep(3, (1, 1), ((0,),), ((0,),))


# Representation kinds the library builds, for the elimination oracle.
REP_KINDS = ("sub", "quot", "simple", "sawtooth", "zero")


def random_sawtooth(n: int, rng: random.Random) -> SawtoothDesc:
    """Random +-1 steps across a random grid interval; the teeth are the
    interval's ends and the points where the slope turns."""
    lo = rng.randint(0, n - 1)
    hi = rng.randint(lo + 1, n)
    teeth = [(F(lo, n), F(rng.randint(0, n), n))]
    last = 0
    for x in range(lo + 1, hi + 1):
        slope = rng.choice((1, -1))
        point = (F(x, n), teeth[-1][1] + F(slope, n))
        if slope == last:
            teeth[-1] = point
        else:
            teeth.append(point)
        last = slope
    flags = (rng.random() < 0.5, rng.random() < 0.5)
    return SawtoothDesc(teeth[0][0], teeth[-1][0], teeth, flags)


def random_rep(kind: str, n: int, rng: random.Random) -> QuiverRep:
    if kind in ("sub", "quot"):
        curve = random_curve(rng.randint(1, n - 1), n, rng)
        return to_rep(CurveModule(Kind(kind), curve))
    if kind == "simple":
        return simple_rep(rng.randint(1, n - 1), n)
    if kind == "sawtooth":
        return sawtooth_rep(random_sawtooth(n, rng), n)
    return zero_rep(n)


class TestHomDim:
    def test_simple_endos(self):
        for i in range(1, 5):
            assert hom_dim(simple_rep(i, 5), simple_rep(i, 5)) == 1

    def test_disjoint_simples(self):
        assert hom_dim(simple_rep(1, 5), simple_rep(2, 5)) == 0

    def test_projective_endos_match_length_count(self):
        assert hom_dim(to_rep(projective(2, 5)), to_rep(projective(2, 5))) == 2

    def test_matches_length_table(self):
        for n in range(2, 11):
            reps = {i: to_rep(projective(i, n)) for i in range(1, n)}
            for i in range(1, n):
                for j in range(1, n):
                    expected = len(hom_lengths(j, i, n).lengths)
                    assert hom_dim(reps[i], reps[j]) == expected

    def test_nonzero_self_hom(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 6)
            i = rng.randint(1, n - 1)
            m = CurveModule(Kind.SUB, random_curve(i, n, rng))
            rep = to_rep(m)
            if any(rep.dims):
                assert hom_dim(rep, rep) >= 1

    def test_zero_rep(self):
        assert hom_dim(zero_rep(5), to_rep(projective(1, 5))) == 0

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(2, 14),
        st.sampled_from(REP_KINDS),
        st.sampled_from(REP_KINDS),
        st.randoms(use_true_random=False),
    )
    def test_matches_elimination(self, n, kind_a, kind_b, rng):
        a, b = random_rep(kind_a, n, rng), random_rep(kind_b, n, rng)
        for x, y in ((a, b), (b, a), (a, a)):
            assert hom_dim(x, y) == hom_dim_by_elimination(x, y)

    def test_simples_match_elimination(self):
        for n in range(2, 9):
            simples = [simple_rep(i, n) for i in range(1, n)]
            for i, a in enumerate(simples):
                for j, b in enumerate(simples):
                    assert hom_dim(a, b) == hom_dim_by_elimination(a, b) == (i == j)

    def test_size_mismatch(self):
        with pytest.raises(DomainError, match="ranks 4 and 5 differ"):
            hom_dim(simple_rep(1, 4), simple_rep(1, 5))


def all_curve_modules(n: int) -> list[CurveModule]:
    """Every curve module of both kinds at every vertex of rank n."""
    out = []
    for i in range(1, n):
        paths = [[i]]
        for j in range(1, n + 1):
            top, bottom = abs(j - i), n - abs(n - i - j)
            paths = [p + [u] for p in paths for u in (p[-1] - 1, p[-1] + 1)
                     if top <= u <= bottom]
        out += [CurveModule(kind, DiamondCurve(i, n, tuple(p)))
                for p in paths for kind in Kind]
    return out


class TestCurveHomDim:
    """hom_dims with one target (the route of sheets.end_dim), counted on
    the curves, against hom_dim on to_rep."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_pair_matches_hom_dim(self, n):
        modules = all_curve_modules(n)
        reps = {m: to_rep(m) for m in modules}
        assert len(modules) == 2 * (2 ** n - 2)  # C(n, i) curves at vertex i
        for a in modules:
            for b in modules:
                assert hom_dims(a, [b]) == [hom_dim(reps[a], reps[b])], (a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 20), st.sampled_from(Kind), st.sampled_from(Kind),
           st.randoms(use_true_random=False))
    def test_random_pairs_match_hom_dim(self, n, kind_a, kind_b, rng):
        a = CurveModule(kind_a, random_curve(rng.randint(1, n - 1), n, rng))
        b = CurveModule(kind_b, random_curve(rng.randint(1, n - 1), n, rng))
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert hom_dims(x, [y]) == [hom_dim(to_rep(x), to_rep(y))]

    @pytest.mark.parametrize("n", [10, 14, 18])
    def test_ideal_summand_pairs_match_hom_dim(self, n):
        rng = random.Random(n)
        for _ in range(3):
            summands = ideal_of(Perm(rng.sample(range(1, n + 1), n)))
            modules = [*summands, *map(tau_sub, summands)]
            reps = {m: to_rep(m) for m in modules}
            for a in modules:
                for b in modules:
                    assert hom_dims(a, [b]) == [hom_dim(reps[a], reps[b])]

    def test_projective_endomorphisms(self):
        for n in range(2, 12):
            for i in range(1, n):
                assert hom_dims(projective(i, n), [projective(i, n)]) == [min(i, n - i)]

    def test_size_mismatch(self):
        for a, b in ((projective(1, 4), projective(1, 5)),
                     (tau_sub(projective(2, 6)), projective(2, 5))):
            with pytest.raises(DomainError, match=f"ranks {a.n} and {b.n} differ"):
                hom_dims(a, [b])


class TestHomLanes:
    """One HomLanes pass, every target in its own lane of one int, against
    hom_dim on to_rep and against the one-pair walk on the curves."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_pass_matches_hom_dim(self, n):
        # every curve module at n, of both kinds, at every vertex, the zero
        # modules (a curve on the diamond's far boundary) included
        modules = all_curve_modules(n)
        assert sum(map(is_zero, modules)) == 2 * (n - 1)
        reps = [to_rep(m) for m in modules]
        lanes = HomLanes(map(band, modules))
        for a, rep in zip(modules, reps):
            assert lanes.dims(band(a)) == [hom_dim(rep, b) for b in reps], a

    def test_sampled_pairs_match_hom_dim_at_8(self):
        modules = all_curve_modules(8)
        rng = random.Random(8)
        targets = rng.sample(modules, 40)
        lanes = HomLanes(map(band, targets))
        reps = [to_rep(b) for b in targets]
        for a in rng.sample(modules, 40):
            assert lanes.dims(band(a)) == [hom_dim(to_rep(a), b) for b in reps], a

    def test_one_pass_matches_pair_walk_at_7(self):
        modules = all_curve_modules(7)
        lanes = HomLanes(map(band, modules))
        for a in modules:
            assert lanes.dims(band(a)) == [curve_hom_dim_by_pair(a, b) for b in modules], a

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 20), st.data())
    def test_random_passes_match_pair_walk(self, n, data):
        rng = data.draw(st.randoms(use_true_random=False))

        def module():
            kind = data.draw(st.sampled_from(Kind))
            return CurveModule(kind, random_curve(rng.randint(1, n - 1), n, rng))

        a = module()
        targets = [module() for _ in range(data.draw(st.integers(1, max(1, n - 1))))]
        lanes = HomLanes(map(band, targets))
        expected = [curve_hom_dim_by_pair(a, b) for b in targets]
        assert lanes.dims(band(a)) == expected == hom_dims(a, targets)
        # each lane as its target alone: no lane reads its neighbours
        assert [HomLanes([band(b)]).dims(band(a)) for b in targets] == [[d] for d in expected]

    def test_every_lane_is_counted(self):
        # a pass counts every lane; there is no option to pick some of them
        for n in range(2, 12):
            for i in range(1, n):
                p = band(projective(i, n))
                lanes = HomLanes([p, band(tau_sub(projective(i, n))), p, p])
                ends = min(i, n - i)
                assert lanes.dims(p) == [ends, 0, ends, ends]
        with pytest.raises(TypeError):
            lanes.dims(p, [2])

    def test_lanes_of_empty_columns(self):
        # a target empty at a column where the source holds two or more
        # factors: the empty band there must give no unknowns
        n = 6
        a = projective(3, n)
        for b in all_curve_modules(n):
            assert HomLanes(map(band, [b, a, b])).dims(band(a)) == [
                curve_hom_dim_by_pair(a, b), min(3, n - 3), curve_hom_dim_by_pair(a, b)]

    def test_no_targets(self):
        assert hom_dims(projective(1, 3), []) == []

    def test_size_mismatch(self):
        with pytest.raises(DomainError, match="targets of different ranks"):
            HomLanes(map(band, [projective(1, 4), projective(1, 5)]))
        with pytest.raises(DomainError, match="ranks 5 and 4 differ"):
            HomLanes([band(projective(1, 4))]).dims(band(projective(1, 5)))
        with pytest.raises(DomainError, match="ranks 6 and 5 differ"):
            hom_dims(projective(2, 6), [projective(2, 5)])


class TestTauRigidWitness:
    """tau_rigid_witness over the summands' integer curves, read off the
    complete rows of vanishing_rows."""

    @staticmethod
    def count_lanes(monkeypatch) -> tuple[list, list]:
        """Record each HomLanes packing's targets and each pass's source."""
        packed, passes = [], []
        init, dims = HomLanes.__init__, HomLanes.dims
        monkeypatch.setattr(HomLanes, "__init__",
                            lambda self, targets: init(self, targets) or packed.append(self.targets))
        monkeypatch.setattr(HomLanes, "dims", lambda self, a: passes.append(a) or dims(self, a))
        return packed, passes

    def test_rows_hold_each_pair_by_units(self, monkeypatch):
        # one packing of the four quotients, one pass per sub, complete rows
        curves = ideal_curves(W.one_line)
        packed, passes = self.count_lanes(monkeypatch)
        rows = vanishing_rows(curves)
        assert rows == {a: {b: True for b in curves} for a in curves}
        assert [len(p) for p in packed] == [4]
        assert passes == [band(m) for m in ideal_of(W)]

    def test_given_rows_pack_nothing(self, monkeypatch):
        curves = ideal_curves(W.one_line)
        rows = vanishing_rows(curves)
        packed, passes = self.count_lanes(monkeypatch)
        assert tau_rigid_witness(curves, rows) is None and packed == passes == []
        assert tau_rigid_witness(curves[1:3], rows) is None and packed == passes == []
        # no curves: no rows and no packing, with or without given rows
        assert vanishing_rows([]) == {} and tau_rigid_witness(()) is None
        assert tau_rigid_witness((), rows) is None and packed == passes == []
        # rows of its own: one packing, one pass over every lane per sub
        assert tau_rigid_witness(curves) is None
        assert [len(p) for p in packed] == [4] and len(passes) == 4

    def test_first_failing_pair(self):
        keys = ideal_curves(W.one_line)
        memo = {a: {b: True for b in keys} for a in keys}
        memo[keys[3]][keys[1]] = memo[keys[2]][keys[3]] = False
        assert tau_rigid_witness(keys, memo) == (3, 4)

    def test_matches_hom_dim_on_random_summands(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(40):
            n = rng.randint(2, 8)
            subs = [CurveModule(Kind.SUB, random_curve(rng.randint(1, n - 1), n, rng))
                    for _ in range(rng.randint(1, 4))]
            bad = [(a.i, b.i) for a in subs for b in subs
                   if hom_dim(to_rep(a), to_rep(tau_sub(b)))]
            assert tau_rigid_witness([a.curve.units for a in subs]) == (
                bad[0] if bad else None)
            seen.add(bool(bad))
        assert seen == {True, False}


class TestVanishingRows:
    """vanishing_rows and rank_curves, tau-rigidity's one Hom route, against
    hom_dims on the modules and against the routes they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_rows_match_hom_dims(self, n, size, rng):
        # curves at a few vertices, so vertices and whole curves repeat
        vertices = [rng.randint(1, n - 1) for _ in range(2)]
        curves = [random_curve(rng.choice(vertices), n, rng).units for _ in range(size)]
        curves += rng.sample(curves, min(size, 2))
        rows = vanishing_rows(curves)
        assert rows.keys() == set(curves) and all(row.keys() == set(curves) for row in rows.values())
        for c in curves:
            sub = CurveModule(Kind.SUB, DiamondCurve(c[0], n, c))
            for d in curves:
                [dim] = hom_dims(sub, [CurveModule(Kind.QUOT, DiamondCurve(d[0], n, d))])
                assert rows[c][d] is (dim == 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rank_rows_give_each_case_its_witness(self, monkeypatch, n):
        # a planted fault in HomLanes.dims gives some pairs a Hom of
        # dimension 1 or 2, so that cases fail with different witnesses
        dims = HomLanes.dims

        def planted(self, a):
            return [1 + sum(b[1]) % 2 if (sum(a[0]) * 3 + sum(b[1])) % 11 == 0 else d
                    for b, d in zip(self.targets, dims(self, a))]

        monkeypatch.setattr(HomLanes, "dims", planted)
        table, memo, seen = vanishing_rows(rank_curves(n)), {}, set()
        for w in all_perms(n):
            curves = ideal_curves(w.one_line)
            witness = tau_rigid_witness_by_memo(curves, memo)
            assert tau_rigid_witness(curves, table) == tau_rigid_witness(curves) == witness
            seen.add(witness)
        assert None in seen and (len(seen) > 2) is (n >= 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 8), st.integers(0, 8),
           st.randoms(use_true_random=False))
    def test_rows_of_a_superset_give_the_witness(self, n, size, extra, rng):
        def curve():
            return random_curve(rng.randint(1, n - 1), n, rng).units

        curves = tuple(curve() for _ in range(size))
        superset = [*curves, *(curve() for _ in range(extra))]
        rng.shuffle(superset)
        witness = tau_rigid_witness_by_memo(curves)
        assert tau_rigid_witness(curves, vanishing_rows(superset)) == witness
        assert tau_rigid_witness(curves) == witness

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rank_curves_are_every_curve_once(self, n):
        # 2^n - 2 distinct valid curves: as many as the +-1 curves at rank n
        curves = rank_curves(n)
        assert curves == rank_curves_by_bits(n)
        assert len(set(curves)) == len(curves) == 2 ** n - 2
        assert all(DiamondCurve(c[0], n, c).units == c for c in curves)


class TestTauRigidity:
    def test_identity(self):
        assert is_tau_rigid_ideal(identity(4))

    def test_longest_element(self):
        assert is_tau_rigid_ideal(Perm((5, 4, 3, 2, 1)))

    def test_25341(self):
        assert is_tau_rigid_ideal(W)

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "4")
        with pytest.raises(TooLarge,
                           match=r"n=5 exceeds the guard \(4\); set PREPROJ_MAX_N to override"):
            is_tau_rigid_ideal(identity(5))


class TestBandDeepness:
    """sheets.is_deep of a curve module, read off its band, against the loop
    action on its representation."""

    def test_every_curve_module_matches_its_rep(self):
        modules = [m for n in range(2, 9) for m in all_curve_modules(n)]
        verdicts = [is_deep(m) for m in modules]
        assert len(modules) == 988
        assert verdicts == [rep_is_deep(to_rep(m)) for m in modules]
        assert 0 < sum(verdicts) < len(modules)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 20), st.sampled_from(Kind), st.randoms(use_true_random=False))
    def test_random_modules_match_their_reps(self, n, kind, rng):
        m = CurveModule(kind, random_curve(rng.randint(1, n - 1), n, rng))
        assert is_deep(m) == rep_is_deep(to_rep(m))


class TestIdealCurvesBySteps:
    """ideal_curves adds a row of the per-rank step table per vertex, against
    the former accumulation of each curve from its vertex."""

    @pytest.mark.parametrize("n", range(8))
    def test_all_of_s_n(self, n):
        for ol in itertools.permutations(range(1, n + 1)):
            assert ideal_curves(ol) == ideal_curves_by_accumulate(ol)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 20).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_up_to_20(self, ol):
        assert ideal_curves(ol) == ideal_curves_by_accumulate(ol)
        assert ideal_curves(tuple(ol)) == ideal_curves_by_accumulate(tuple(ol))
