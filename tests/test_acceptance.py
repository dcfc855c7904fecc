"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is an exact equality or an exact property; there are no
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from conftest import (as_plfunc, hom_dim, hom_lengths, identity, is_full, is_zero_sub,
                      random_curve, rep_is_deep, sawtooth_rep, to_rep)
from preproj.continuous import ideal_leq, left_act, staircase, tau_rigidity_cert
from preproj.finite import (
    CurveModule,
    Kind,
    hom_dims,
    ideal_of,
    ideal_via_word,
    projective,
    tau_sub,
)
from preproj.permuton import boundary_function, from_perm, permuton_bruhat_leq, uniform
from preproj.plfunc import MonotoneClass, PLFunc, pointwise_leq
from preproj.sheets import SawtoothDesc, end_dim, is_deep
from preproj.symgroup import Perm, all_perms, all_reduced_words, bruhat_leq

import test_properties

W = Perm((2, 5, 3, 4, 1))


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_reduced_word_independence():
    with criterion(1, "reduced-word-independence", 5.0):
        for w in all_perms(4):
            reference = ideal_of(w)
            for word in all_reduced_words(w):
                assert ideal_via_word(word, 4) == reference
        reference = ideal_of(W)
        for word in ((1, 2, 4, 3, 2, 4), (1, 2, 3, 4, 3, 2)):
            assert ideal_via_word(word, 5) == reference


def test_criterion_2_tau_rigidity():
    with criterion(2, "tau-rigidity", 120.0):
        for w in all_perms(4):
            summands = ideal_of(w)
            subs = [to_rep(m) for m in summands]
            quots = [to_rep(tau_sub(m)) for m in summands]
            for s in subs:
                for q in quots:
                    assert hom_dim(s, q) == 0
            taus = [tau_sub(m) for m in summands]
            assert all(hom_dims(m, taus) == [0] * len(taus) for m in summands)
        rng = random.Random(0)
        sampled = rng.sample(list(all_perms(5)), 20)
        for w in sampled + [W]:
            summands = ideal_of(w)
            subs = [to_rep(m) for m in summands]
            quots = [to_rep(tau_sub(m)) for m in summands]
            for s in subs:
                for q in quots:
                    assert hom_dim(s, q) == 0
            taus = [tau_sub(m) for m in summands]
            assert all(hom_dims(m, taus) == [0] * len(taus) for m in summands)


def test_criterion_3_discrete_continuous_bridge():
    with criterion(3, "discrete-continuous-bridge", 30.0):
        # stripped summands, not ideal_of: its closed form is the permuton
        # formula itself, which would make the bridge a tautology
        cases = 0
        for w in all_perms(5):
            mu = from_perm(w)
            summands = ideal_via_word(min(all_reduced_words(w)), 5)
            for i in range(1, 5):
                discrete = as_plfunc(summands[i - 1].curve)
                assert discrete == boundary_function(mu, F(i, 5)).f
                cases += 1
        assert cases == 480
        # the closed forms for w = 25341: f_1 = 1 - |x - 4/5| and the
        # three-piece f_2 (2/5 - x, then x, then 8/5 - x)
        f1 = PLFunc([(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
        f2 = PLFunc([(0, F(2, 5)), (F(1, 5), F(1, 5)), (F(4, 5), F(4, 5)), (1, F(3, 5))])
        stripped = ideal_via_word((1, 2, 4, 3, 2, 4), 5)
        assert as_plfunc(stripped[0].curve) == f1
        assert as_plfunc(stripped[1].curve) == f2


def test_criterion_4_bruhat_equivalence():
    with criterion(4, "permuton-bruhat-equivalence", 10.0):
        perms = list(all_perms(4))
        permutons = {w.one_line: from_perm(w) for w in perms}
        leq = {}
        pairs = 0
        for u in perms:
            for v in perms:
                got = permuton_bruhat_leq(permutons[u.one_line], permutons[v.one_line])
                assert got == bruhat_leq(u, v)
                leq[(u.one_line, v.one_line)] = got
                pairs += 1
        assert pairs == 576
        for u in perms:
            assert leq[(u.one_line, u.one_line)]
            for v in perms:
                if leq[(u.one_line, v.one_line)] and leq[(v.one_line, u.one_line)]:
                    assert u == v
                for x in perms:
                    if leq[(u.one_line, v.one_line)] and leq[(v.one_line, x.one_line)]:
                        assert leq[(u.one_line, x.one_line)]


def test_criterion_5_ideal_inclusion_routes():
    with criterion(5, "ideal-inclusion-vs-order", 60.0):
        perms = list(all_perms(4))
        ideals = {w.one_line: from_perm(w) for w in perms}
        curves = {w.one_line: ideal_of(w) for w in perms}
        for u in perms:
            for v in perms:
                # ideal_leq itself cross-checks its curve and CDF routes
                via_ideal = ideal_leq(ideals[u.one_line], ideals[v.one_line])
                via_curves = all(
                    all(a >= b for a, b in zip(mu.curve.values, mv.curve.values))
                    for mu, mv in zip(curves[u.one_line], curves[v.one_line])
                )
                assert via_ideal == via_curves == bruhat_leq(v, u)


def test_criterion_6_worked_permuton_examples():
    with criterion(6, "worked-permuton-examples", 30.0):
        gid = from_perm(identity(5))
        for a in (F(1, 5), F(2, 5), F(3, 5), F(4, 5)):
            assert is_full(boundary_function(gid, a))
        reversal = from_perm(Perm((5, 4, 3, 2, 1)))
        for a in (F(1, 5), F(2, 5), F(3, 5), F(4, 5)):
            assert is_zero_sub(boundary_function(reversal, a))
        flat = uniform(4)
        for a in (F(1, 4), F(1, 2), F(3, 4)):
            assert boundary_function(flat, a).f == PLFunc([(0, a), (1, 1 - a)])

        # the four drawn summand paths for w = 25341, as printed (y upward);
        # our curves use y increasing downwards, so flip y -> 1 - y, and the
        # fourth panel is also mirrored in x
        drawn = {
            1: [(0, F(4, 5)), (F(4, 5), 0), (1, F(1, 5))],
            2: [(0, F(3, 5)), (F(1, 5), F(4, 5)), (F(4, 5), F(1, 5)), (1, F(2, 5))],
            3: [(0, F(2, 5)), (F(1, 5), F(3, 5)), (F(2, 5), F(2, 5)),
                (F(3, 5), F(3, 5)), (F(4, 5), F(2, 5)), (1, F(3, 5))],
            4: [(0, F(4, 5)), (F(3, 5), F(1, 5)), (F(4, 5), F(2, 5)), (1, F(1, 5))],
        }
        mu = from_perm(W)
        for i, path in drawn.items():
            pts = [(x, 1 - y) for x, y in path]
            if i == 4:
                pts = sorted((1 - x, y) for x, y in pts)
            expected = PLFunc(pts)
            assert boundary_function(mu, F(i, 5)).f == expected
            assert as_plfunc(ideal_of(W)[i - 1].curve) == expected


def test_criterion_7_two_sidedness():
    with criterion(7, "two-sidedness", 60.0):
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


def test_criterion_8_continuous_tau_rigidity():
    with criterion(8, "continuous-tau-rigidity", 120.0):
        grid = [F(t, 21) for t in range(1, 21)]
        test_permutons = [from_perm(W), from_perm(Perm((2, 4, 1, 3))),
                          uniform(2), uniform(4)]
        for mu in test_permutons:
            for a in grid:
                for b in grid:
                    cert = tau_rigidity_cert(mu, a, b)
                    assert cert is not MonotoneClass.NEITHER
        # discrete corroboration: staircase discretisations at n = 8
        n = 8
        for mu in [uniform(2), uniform(4)] + [from_perm(w) for w in all_perms(4)]:
            apexes = [
                F(r, mu.m) for r in range(1, mu.m)
                if (F(r, mu.m) * n).denominator == 1
            ]
            subs = {a: staircase(boundary_function(mu, a), n) for a in apexes}
            for a in apexes:
                rep = to_rep(subs[a])
                for b in apexes:
                    assert hom_dim(rep, to_rep(tau_sub(subs[b]))) == 0
                assert hom_dims(subs[a], [tau_sub(subs[b]) for b in apexes]) == [0] * len(
                    apexes)


def test_criterion_9_hom_length_table():
    with criterion(9, "hom-length-table", 30.0):
        table = [
            [1, 1, 1, 1, 1],
            [1, 2, 2, 2, 1],
            [1, 2, 3, 2, 1],
            [1, 2, 2, 2, 1],
            [1, 1, 1, 1, 1],
        ]
        for i in range(1, 6):
            for j in range(1, 6):
                lengths = hom_lengths(i, j, 6).lengths
                assert len(lengths) == table[i - 1][j - 1]
                assert lengths[0] == abs(i - j) if lengths else True
        assert hom_lengths(2, 2, 6).lengths == (0, 2)
        assert hom_lengths(2, 4, 6).lengths == (2, 4)
        for n in range(2, 7):
            reps = {i: to_rep(projective(i, n)) for i in range(1, n)}
            for i in range(1, n):
                lengths = [len(hom_lengths(j, i, n).lengths) for j in range(1, n)]
                for j in range(1, n):
                    assert hom_dim(reps[i], reps[j]) == lengths[j - 1]
                assert hom_dims(projective(i, n),
                                [projective(j, n) for j in range(1, n)]) == lengths


def _random_grid_sawtooth(rng: random.Random, n: int) -> SawtoothDesc:
    lo = rng.randint(0, n - 2)
    teeth_count = rng.randint(2, min(5, n - lo + 1))
    xs = sorted(rng.sample(range(lo, n + 1), teeth_count))
    value = F(rng.randint(n, 3 * n), n)
    slope = rng.choice([1, -1])
    teeth = [(F(xs[0], n), value)]
    for x0, x1 in zip(xs, xs[1:]):
        value = value + slope * (F(x1, n) - F(x0, n))
        slope = -slope
        teeth.append((F(x1, n), value))
    return SawtoothDesc(F(xs[0], n), F(xs[-1], n), teeth)


def test_criterion_10_brick_and_deep_suite():
    with criterion(10, "brick-and-deep-suite", 60.0):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(3, 6)
            st = _random_grid_sawtooth(rng, n)
            rep = sawtooth_rep(st, n)
            assert is_deep(st) is rep_is_deep(rep) is False
            assert end_dim(st) == hom_dim(rep, rep) == 1
        found = 0
        while found < 50:
            n = rng.randint(4, 6)
            i = rng.randint(1, n - 1)
            m = CurveModule(Kind.SUB, random_curve(i, n, rng))
            units = m.curve.units
            if max(n - abs(n - i - j) - units[j] for j in range(n + 1)) < 4:
                continue  # no column holds two factors
            found += 1
            rep = to_rep(m)
            assert is_deep(m) is rep_is_deep(rep) is True
            assert end_dim(m) == hom_dim(rep, rep) >= 2


def test_criterion_11_property_suites():
    with criterion(11, "randomized-property-suites", 120.0):
        test_properties.test_bfunc_diamond_containment()
        test_properties.test_decorous_ses_complementarity()
        test_properties.test_submodule_downward_closure()
        test_properties.test_generator_scan_matches_definition_on_grids()
