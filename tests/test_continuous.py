import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (as_plfunc, bottom_at, bridge_by_plfuncs, bridge_column_by_zip, discretize,
                      hom_dim, mass,
                      hom_vanishing_cert, identity, is_full, is_zero_sub, member, member_quot, random_bfunc, random_permuton, refine,
                      staircase_by_at, to_rep, top_at, twosided_by_plfuncs, twosided_pair_by_plfuncs)
from preproj import permuton
from preproj.continuous import (
    bridge_mismatch,
    ideal_leq,
    left_act,
    staircase,
    stripped_summand,
    tau_rigidity_cert,
    twosided_witness,
    uncertified_apexes,
)
from preproj.errors import DomainError
from preproj.finite import hom_dims, ideal_of, projective, tau_sub
from preproj.permuton import (GridPermuton, boundary_function, from_perm, permuton_bruhat_leq,
                              uniform)
from preproj.plfunc import (
    BFunc,
    MonotoneClass,
    PLFunc,
    bottom_curve,
    pointwise_leq,
    top_curve,
)
from preproj.symgroup import Perm, all_perms, bruhat_leq, min_coset_line
from test_cli import perturbed_rows

W = Perm((2, 5, 3, 4, 1))
HALF = F(1, 2)
TOP_HALF = BFunc(HALF, top_curve(HALF))
BOTTOM_HALF = BFunc(HALF, bottom_curve(HALF))
CHORD_HALF = BFunc(HALF, PLFunc.constant(HALF))


class TestMembership:
    def test_full_projective_contains_generator(self):
        assert is_full(TOP_HALF)
        assert member(TOP_HALF, HALF, 0)

    def test_lengths_stop_at_bottom(self):
        assert bottom_at(HALF, HALF) == 1
        assert not member(TOP_HALF, HALF, 1)

    def test_bottom_half_membership(self):
        assert not member(CHORD_HALF, HALF, F(1, 4))
        assert member(CHORD_HALF, HALF, HALF)

    def test_zero_submodule(self):
        assert is_zero_sub(BOTTOM_HALF)
        assert not member(BOTTOM_HALF, HALF, F(3, 4))

    def test_quotient_membership(self):
        assert member_quot(CHORD_HALF, HALF, F(1, 4))
        assert not member_quot(CHORD_HALF, HALF, HALF)

    def test_domain(self):
        with pytest.raises(DomainError):
            member(TOP_HALF, F(0), F(1, 2))

    def test_ses_complementarity(self):
        rng = random.Random(21)
        for _ in range(300):
            b = random_bfunc(rng)
            x = F(rng.randint(1, 23), 24)
            lo, hi = top_at(b.k, x), bottom_at(b.k, x)
            span = hi - lo
            length = lo + span * F(rng.randint(0, 11), 12)
            assert member(b, x, length) != member_quot(b, x, length)

    def test_downward_closure(self):
        rng = random.Random(22)
        for _ in range(300):
            b = random_bfunc(rng)
            x = F(rng.randint(1, 23), 24)
            length = b.f.at(x)
            if member(b, x, length):
                deeper = length + (bottom_at(b.k, x) - length) * F(1, 3)
                if deeper < bottom_at(b.k, x):
                    assert member(b, x, deeper)


class TestIdealSummands:
    def test_identity_permuton_gives_whole_algebra(self):
        # grid apexes of the grid identity permuton; an arbitrary rational
        # apex is covered by choosing a grid that contains it
        ideal = from_perm(identity(5))
        for a in (F(1, 5), F(2, 5), F(4, 5)):
            assert is_full(boundary_function(ideal, a))
        assert is_full(boundary_function(from_perm(identity(4)), F(3, 4)))

    def test_reversal_gives_zero_ideal(self):
        ideal = from_perm(Perm((5, 4, 3, 2, 1)))
        for a in (F(1, 5), F(3, 5), F(4, 5)):
            assert is_zero_sub(boundary_function(ideal, a))
        rev3 = from_perm(Perm((3, 2, 1)))
        assert is_zero_sub(boundary_function(rev3, F(1, 3)))

    def test_uniform_gives_corner_chords(self):
        ideal = uniform(4)
        for a in (F(1, 4), F(1, 2), F(3, 4)):
            assert boundary_function(ideal, a).f == PLFunc([(0, a), (1, 1 - a)])

    def test_25341_summand_at_three_fifths(self):
        # the drawn path (0,2/5)..(1,3/5) read in y-down coordinates
        d = boundary_function(from_perm(W), F(3, 5))
        assert d.f == PLFunc(
            [
                (0, F(3, 5)),
                (F(1, 5), F(2, 5)),
                (F(2, 5), F(3, 5)),
                (F(3, 5), F(2, 5)),
                (F(4, 5), F(3, 5)),
                (1, F(2, 5)),
            ]
        )

    def test_apex_domain(self):
        with pytest.raises(DomainError):
            boundary_function(uniform(2), F(0))


class TestLeftAct:
    def test_push_top_down(self):
        g = left_act(TOP_HALF, F(1, 4))
        assert g.k == F(1, 4)
        assert g.f.at(F(1, 4)) == F(1, 2)

    def test_zero_stays_zero(self):
        g = left_act(BOTTOM_HALF, F(1, 4))
        assert g.f == bottom_curve(F(1, 4))

    def test_same_apex_rejected(self):
        with pytest.raises(DomainError):
            left_act(TOP_HALF, HALF)

    def test_two_sided_witness_25341(self):
        mu = from_perm(W)
        pushed = left_act(boundary_function(mu, F(3, 5)), F(2, 5))
        assert pointwise_leq(boundary_function(mu, F(2, 5)).f, pushed.f)

    def test_two_sided_on_s4_and_uniforms(self):
        mus = [from_perm(w) for w in all_perms(4)] + [uniform(2), uniform(4)]
        for mu in mus:
            apexes = [F(r, mu.m) for r in range(1, mu.m)]
            for q in apexes:
                f_q = boundary_function(mu, q)
                for p in apexes:
                    if p == q:
                        continue
                    assert pointwise_leq(
                        boundary_function(mu, p).f, left_act(f_q, p).f
                    )


class TestIdealOrder:
    def test_everything_inside_identity_ideal(self):
        gid = from_perm(identity(3))
        for v in all_perms(3):
            assert ideal_leq(from_perm(v), gid)

    def test_321_vs_231(self):
        i321 = from_perm(Perm((3, 2, 1)))
        i231 = from_perm(Perm((2, 3, 1)))
        assert ideal_leq(i321, i231)
        assert not ideal_leq(i231, i321)

    def test_matches_reversed_bruhat_on_s4(self):
        perms = list(all_perms(4))
        ideals = {w.one_line: from_perm(w) for w in perms}
        for u in perms:
            for v in perms:
                assert ideal_leq(ideals[u.one_line], ideals[v.one_line]) == bruhat_leq(
                    v, u
                )

    def test_matches_reversed_permuton_order_on_random_grids(self):
        # ideal_leq raises CertificateFailure if its two routes disagree
        rng = random.Random(12)
        sizes = [(11, 12), (12, 7), (5, 12), (12, 12), (1, 11)]
        sizes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(30)]
        for m, k in sizes:
            mu, nu = random_permuton(rng, m), random_permuton(rng, k)
            for x, y in ((mu, nu), (nu, mu), (mu, from_perm(identity(k)))):
                assert ideal_leq(x, y) == (
                    permuton_bruhat_leq(y, x)
                )


class TestBridge:
    def test_25341(self):
        assert bridge_mismatch(W, 2) is None
        assert bridge_mismatch(W, 1) is None

    def test_identity(self):
        for i in range(1, 5):
            assert bridge_mismatch(identity(5), i) is None

    def test_exhaustive_s4(self):
        for w in all_perms(4):
            for i in range(1, 4):
                assert bridge_mismatch(w, i) is None

    def test_permuton_off_the_grid_of_w(self):
        for mu in (uniform(4), from_perm(identity(6))):
            with pytest.raises(DomainError, match=f"permuton on the 1/{mu.m} grid, not w's 1/5 grid"):
                bridge_mismatch(W, 2, mu)


def perturbed_row(seed: int, share: F):
    """A boundary_row that moves one sample, at any column c = 0..m, of a
    seeded share of the curves: by one unit or by one or two steps of 1/m."""
    true_row = permuton.boundary_row

    def row(mu, p, q):
        out = true_row(mu, p, q)
        rng = random.Random(f"{seed}:{p}/{q}:{mu.cum}")
        if rng.random() < share:
            step = q * q * mu.den
            out[rng.randrange(mu.m + 1)] += rng.choice([-2 * step, -step, -1, 1, step, 2 * step])
        return out

    return row


def moved_sample(true_row, c: int, delta: int):
    """true_row with sample c moved by delta units."""

    def row(mu, p, q):
        out = true_row(mu, p, q)
        out[c] += delta
        return out

    return row


class TestBridgeOnRows:
    """The bridge verdict on integer rows against the former PLFunc route."""

    def test_all_of_s2_to_s6(self):
        for n in range(2, 7):
            for w in all_perms(n):
                mu = from_perm(w)
                for i in range(1, n):
                    verdict = bridge_mismatch(w, i, mu) is None
                    assert verdict is bridge_by_plfuncs(w, i, mu) is True

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_random_permutations(self, one_line):
        w = Perm(one_line)
        mu = from_perm(w)
        for i in range(1, w.n):
            assert (bridge_mismatch(w, i, mu) is None) is bridge_by_plfuncs(w, i, mu) is True

    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed_rows(self, monkeypatch, seed):
        monkeypatch.setattr(permuton, "boundary_row", perturbed_row(seed, F(1, 3)))
        rng = random.Random(seed)
        seen = set()
        for n in range(2, 8):
            perms = list(all_perms(n))
            for w in rng.sample(perms, min(30, len(perms))):
                mu = from_perm(w)
                for i in range(1, n):
                    verdict = bridge_mismatch(w, i, mu) is None
                    assert verdict is bridge_by_plfuncs(w, i, mu), (w, i)
                    seen.add(verdict)
        assert seen == {True, False}

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_moved_sample_at_any_column_fails(self, monkeypatch, delta):
        w = Perm((2, 5, 3, 4, 1))
        mu = from_perm(w)
        true_row = permuton.boundary_row
        for c in range(6):
            monkeypatch.setattr(permuton, "boundary_row", moved_sample(true_row, c, delta))
            for i in range(1, 5):
                assert (bridge_mismatch(w, i, mu) is None) is bridge_by_plfuncs(w, i, mu) is False


class TestCertificates:
    def test_equal_curves_constant(self):
        assert hom_vanishing_cert(TOP_HALF, TOP_HALF) is MonotoneClass.CONSTANT

    def test_permuton_pair_increasing(self):
        mu = from_perm(W)
        cert = hom_vanishing_cert(
            boundary_function(mu, F(1, 5)), boundary_function(mu, F(3, 5))
        )
        assert cert is MonotoneClass.WEAKLY_INCREASING

    def test_tent_vs_constant_no_certificate(self):
        assert hom_vanishing_cert(TOP_HALF, CHORD_HALF) is MonotoneClass.NEITHER

    def test_rigidity_cert_uniform(self):
        assert tau_rigidity_cert(uniform(2), F(1, 4), F(3, 4)) is MonotoneClass.WEAKLY_INCREASING

    def test_rigidity_cert_equal_apexes(self):
        assert tau_rigidity_cert(from_perm(W), F(2, 5), F(2, 5)) is MonotoneClass.CONSTANT

    def test_rigidity_cert_decreasing(self):
        assert tau_rigidity_cert(from_perm(W), F(4, 5), F(1, 5)) is MonotoneClass.WEAKLY_DECREASING

    def test_grid_sweep_never_fails(self):
        mus = [from_perm(W), uniform(2), uniform(4), from_perm(Perm((2, 4, 1, 3)))]
        grid = [F(t, 21) for t in range(1, 21)]
        for mu in mus:
            for a in grid:
                for b in grid:
                    cert = tau_rigidity_cert(mu, a, b)
                    if a < b:
                        assert cert is MonotoneClass.WEAKLY_INCREASING
                    elif a > b:
                        assert cert is MonotoneClass.WEAKLY_DECREASING
                    else:
                        assert cert is MonotoneClass.CONSTANT


def uncertified_by_certs(mu) -> list | None:
    """The first ordered apex pair [s, t] of all 400 among the t/21 where
    hom_vanishing_cert finds no certificate for the boundary functions."""
    curves = [boundary_function(mu, F(t, 21)) for t in range(1, 21)]
    return next(([s, t] for s, f in enumerate(curves, 1) for t, g in enumerate(curves, 1)
                 if hom_vanishing_cert(f, g) is MonotoneClass.NEITHER), None)


def rotated(mu: GridPermuton) -> GridPermuton:
    """mu turned by a half turn: (x, y) -> (1 - x, 1 - y)."""
    return GridPermuton(mu.m, [row[::-1] for row in reversed(mass(mu))])


class TestDecidersOnLargerGrids:
    """twosided_witness and uncertified_apexes against their PLFunc routes
    on random grid permutons up to m = 24, under planted rows too, and
    tau_rigidity_cert against the rotated permuton, whose summand at apex y
    is x -> f_{1-y}(1 - x)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_twosided_witness_matches_left_act(self, seed):
        rng = random.Random(seed)
        seen = set()
        for t in range(6):
            mu = random_permuton(rng, rng.randint(10, 24), rng.choice([4, 10**6]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(permuton, "boundary_row", perturbed_rows(t, F(t % 3, 20)))
                witness = twosided_witness(mu)
                assert (witness is None) is twosided_by_plfuncs(mu), (seed, t)
                assert witness == twosided_pair_by_plfuncs(mu), (seed, t)
            seen.add(witness is None)
        assert seen == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_uncertified_apexes_match_hom_vanishing_cert(self, seed):
        rng = random.Random(seed)
        seen = set()
        for t in range(6):
            mu = random_permuton(rng, rng.randint(10, 24), rng.choice([4, 10**6]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(permuton, "boundary_row", perturbed_rows(t, F(t % 3, 20)))
                apexes = uncertified_apexes(mu)
                assert apexes == uncertified_by_certs(mu), (seed, t)
            seen.add(apexes is None)
        assert seen == {True, False}

    def test_rotation_swaps_the_direction(self):
        rng = random.Random(25)
        swap = {MonotoneClass.WEAKLY_INCREASING: MonotoneClass.WEAKLY_DECREASING,
                MonotoneClass.WEAKLY_DECREASING: MonotoneClass.WEAKLY_INCREASING,
                MonotoneClass.CONSTANT: MonotoneClass.CONSTANT}
        for _ in range(250):
            mu = random_permuton(rng, rng.randint(1, 24), rng.choice([4, 10**6]))
            turned = rotated(mu)
            for _ in range(3):
                a, b = (F(rng.randint(1, d - 1), d) for d in rng.choices(range(2, 60), k=2))
                cert = tau_rigidity_cert(mu, a, b)
                assert cert is hom_vanishing_cert(boundary_function(mu, a),
                                                  boundary_function(mu, b))
                assert cert is (MonotoneClass.CONSTANT if a == b else
                                MonotoneClass.WEAKLY_INCREASING if a < b else
                                MonotoneClass.WEAKLY_DECREASING)
                assert tau_rigidity_cert(turned, 1 - a, 1 - b) is swap[cert]


class TestRefinement:
    """Splitting every cell of mu into k x k uniform subcells keeps the
    measure, so nothing read off the ideal may change."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_refine_changes_no_verdict(self, m, k, rng):
        mu = random_permuton(rng, m, rng.choice([4, 10**6]))
        fine = refine(mu, k)
        for p in range(1, m):
            assert boundary_function(fine, F(p, m)) == boundary_function(mu, F(p, m))
        assert ideal_leq(fine, mu) and ideal_leq(mu, fine)
        assert (twosided_witness(fine) is None) is (twosided_witness(mu) is None)
        assert uncertified_apexes(fine) == uncertified_apexes(mu)


class TestDiscretize:
    def test_full_projective(self):
        d = BFunc(F(2, 5), top_curve(F(2, 5)))
        assert discretize(d, 5) == projective(2, 5)

    def test_ideal_summand_matches_discrete_ideal(self):
        d = boundary_function(from_perm(W), F(2, 5))
        assert discretize(d, 5) == ideal_of(W)[1]

    def test_flat_curve_needs_refinement(self):
        with pytest.raises(DomainError, match=r"boundary is not a \+-1 staircase on the 1/4 grid"):
            discretize(CHORD_HALF, 4)

    def test_off_grid_apex(self):
        with pytest.raises(DomainError, match="apex 1/3 not on the 1/4 grid"):
            discretize(BFunc(F(1, 3), top_curve(F(1, 3))), 4)

    def test_staircase_of_flat_chord(self):
        cm = staircase(CHORD_HALF, 8)
        assert cm.curve.units == (4, 3, 4, 3, 4, 3, 4, 3, 4)

    def test_staircase_fixes_grid_curves(self):
        d = boundary_function(from_perm(W), F(2, 5))
        assert staircase(d, 5) == discretize(d, 5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_discretize_is_staircase_on_ideal_curves(self, n):
        modules = {m for w in all_perms(n) for m in ideal_of(w)}
        for m in modules:
            d = BFunc(F(m.i, n), as_plfunc(m.curve))
            assert discretize(d, n) == staircase(d, n) == m

    def test_off_grid_breakpoints(self):
        # +-1 slopes throughout, turning at 3/8 and 5/8, off the 1/4 grid
        d = BFunc(F(1, 2), PLFunc([(0, F(1, 2)), (F(3, 8), F(1, 8)),
                                    (F(5, 8), F(3, 8)), (F(3, 4), F(1, 4)),
                                    (1, F(1, 2))]))
        with pytest.raises(DomainError, match=r"boundary is not a \+-1 staircase on the 1/4 grid"):
            discretize(d, 4)
        assert discretize(d, 8) == staircase(d, 8)

    @pytest.mark.parametrize("n", [8.9, "8", True, 0])
    def test_staircase_needs_a_positive_int_grid(self, n):
        with pytest.raises(DomainError):
            staircase(CHORD_HALF, n)

    def test_staircase_sits_weakly_above(self):
        for a in (F(1, 4), F(1, 2), F(3, 4)):
            d = boundary_function(uniform(4), a)
            cm = staircase(d, 8)
            for j, v in enumerate(cm.curve.values):
                assert 0 <= d.f.at(F(j, 8)) - v < F(2, 8)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 24), st.randoms(use_true_random=False))
    def test_staircase_matches_the_at_route(self, m, n, rng):
        # the integer walk over b.f's segments against PLFunc.at per column,
        # on apexes of the 1/n grid and off it
        mu = random_permuton(rng, m)
        q = rng.choice([n, 2 * n, m * n, rng.randint(2, 30)])
        if q < 2:
            return
        b = boundary_function(mu, F(rng.randint(1, q - 1), q))
        outcomes = []
        for route in (staircase, staircase_by_at):
            try:
                outcomes.append(route(b, n).curve.units)
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestDiscreteCorroboration:
    def test_staircase_hom_vanishing(self):
        cases = [(uniform(2), 8), (uniform(4), 8)]
        cases += [(from_perm(w), 8) for w in all_perms(4)]
        for mu, n in cases:
            apexes = [
                F(r, mu.m)
                for r in range(1, mu.m)
                if (F(r, mu.m) * n).denominator == 1
            ]
            subs = {a: staircase(boundary_function(mu, a), n) for a in apexes}
            for a in apexes:
                rep = to_rep(subs[a])
                for b in apexes:
                    quot = to_rep(tau_sub(subs[b]))
                    assert hom_dim(rep, quot) == 0
                assert hom_dims(subs[a], [tau_sub(subs[b]) for b in apexes]) == [0] * len(
                    apexes)


class TestBridgeWholeRow:
    """bridge_mismatch compares the whole scaled row first and looks up the
    failing column only on a mismatch, against the former pair-by-pair read."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 14).flatmap(lambda n: st.tuples(
        st.permutations(range(1, n + 1)), st.integers(1, n - 1),
        st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))))
    def test_any_moved_summand(self, drawn):
        ol, i, moves = drawn
        w, n = Perm(ol), len(ol)
        mu = from_perm(w)
        summand = stripped_summand(min_coset_line(ol, i), i)
        moved = tuple(u + d for u, d in zip(summand, moves))
        got = bridge_mismatch(w, i, mu, lambda rep, vertex: moved)
        q = n // gcd(i, n)
        row = permuton.boundary_row(mu, i // gcd(i, n), q)
        assert bridge_column_by_zip(summand, row, q * q * n) is None
        assert got == bridge_column_by_zip(moved, row, q * q * n)
        assert (got is None) is (not any(moves))
