import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    at_by_fractions,
    bottom_at,
    leq_by_at,
    leq_by_fractions,
    min_by_at,
    min_by_fractions,
    monotone_class,
    pointwise_sub,
    random_bfunc,
    random_lipschitz_plfunc,
    random_mixed_pair,
    rises_class_by_all,
    slopes_by_fractions,
    sub_by_at,
    sub_by_fractions,
    top_at,
    xs_with_crossings,
)
from preproj.errors import DomainError
from preproj.plfunc import (
    BFunc,
    MonotoneClass,
    PLFunc,
    bottom_curve,
    is_lipschitz1,
    pointwise_leq,
    pointwise_min,
    rises_class,
    to_bfunc,
    top_curve,
    vshift,
)

F2 = PLFunc([(0, F(2, 5)), (F(1, 5), F(1, 5)), (F(4, 5), F(4, 5)), (1, F(3, 5))])
TENT = PLFunc([(0, F(1, 2)), (F(1, 2), 0), (1, F(1, 2))])


class TestConstruction:
    def test_collinear_points_merge(self):
        f = PLFunc([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
        assert f == PLFunc([(0, 0), (1, 1)])

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            PLFunc([(0, 0), (F(1, 2), 1), (F(1, 4), 0), (1, 0)])

    def test_rejects_partial_domain(self):
        with pytest.raises(DomainError):
            PLFunc([(F(1, 4), 0), (1, 0)])

    def test_rejects_floats(self):
        with pytest.raises(Exception):
            PLFunc([(0, 0.5), (1, 0.5)])


class TestEval:
    def test_three_piece_value(self):
        # 2/5 - x, then x, then 8/5 - x
        assert F2.at(F(1, 2)) == F(1, 2)
        assert F2.at(0) == F(2, 5)
        assert F2.at(F(9, 10)) == F(8, 5) - F(9, 10)

    def test_constant(self):
        assert PLFunc.constant(F(1, 2)).at(F(1, 3)) == F(1, 2)

    def test_single_peak(self):
        f = PLFunc([(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
        assert f.at(F(4, 5)) == 1

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            F2.at(F(6, 5))


class TestLipschitz:
    def test_unit_slopes(self):
        f = PLFunc([(0, F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (1, 0)])
        assert is_lipschitz1(f)

    def test_steep_segment(self):
        assert not is_lipschitz1(PLFunc([(0, 0), (F(1, 2), 1), (1, 1)]))

    def test_constant(self):
        assert is_lipschitz1(PLFunc.constant(F(1, 3)))


class TestToBFunc:
    def test_already_canonical(self):
        b = to_bfunc(TENT)
        assert b.k == F(1, 2)
        assert b.f == TENT

    def test_constant_zero_lifts_to_half(self):
        # k = (1 + 0 - 0)/2 = 1/2, then shift by k - f(0) = 1/2
        b = to_bfunc(PLFunc.constant(0))
        assert b.k == F(1, 2)
        assert b.f == PLFunc.constant(F(1, 2))

    def test_degenerate_identity(self):
        with pytest.raises(DomainError, match=r"f\(1\) = f\(0\) \+- 1 is excluded"):
            to_bfunc(PLFunc([(0, 0), (1, 1)]))

    def test_not_lipschitz(self):
        with pytest.raises(DomainError, match="only 1-Lipschitz curves determine a boundary class"):
            to_bfunc(PLFunc([(0, 0), (F(1, 4), 1), (1, 1)]))

    def test_idempotent_on_canonical(self):
        rng = random.Random(7)
        for _ in range(50):
            b = random_bfunc(rng)
            again = to_bfunc(b.f)
            assert again == b


class TestMinMaxLeq:
    def test_min_of_crossing_lines(self):
        up = PLFunc([(0, 0), (1, 1)])
        down = PLFunc([(0, 1), (1, 0)])
        assert pointwise_min(up, down) == PLFunc(
            [(0, 0), (F(1, 2), F(1, 2)), (1, 0)]
        )

    def test_leq_with_offset(self):
        assert pointwise_leq(TENT, vshift(TENT, F(1, 2)))
        assert not pointwise_leq(vshift(TENT, F(1, 2)), TENT)

    def test_min_against_constant(self):
        g = pointwise_min(F2, PLFunc.constant(F(2, 5)))
        assert g.at(F(1, 2)) == F(2, 5)

    def test_mutual_leq_is_equality(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_lipschitz_plfunc(rng)
            g = random_lipschitz_plfunc(rng)
            if pointwise_leq(f, g) and pointwise_leq(g, f):
                assert f == g


@st.composite
def plfuncs(draw):
    den = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=4))
    inner = sorted(
        set(
            draw(
                st.lists(
                    st.fractions(min_value=0, max_value=1, max_denominator=12),
                    max_size=count,
                )
            )
        )
        - {F(0), F(1)}
    )
    xs = [F(0)] + inner + [F(1)]
    ys = [
        draw(st.fractions(min_value=-2, max_value=2, max_denominator=den))
        for _ in xs
    ]
    return PLFunc(zip(xs, ys))


@given(plfuncs(), plfuncs(), st.fractions(min_value=0, max_value=1, max_denominator=40))
@settings(max_examples=150, deadline=None)
def test_min_agrees_pointwise(f, g, x):
    assert pointwise_min(f, g).at(x) == min(f.at(x), g.at(x))


@given(plfuncs(), plfuncs(), plfuncs())
@settings(max_examples=60, deadline=None)
def test_min_assoc_comm(f, g, h):
    assert pointwise_min(f, g) == pointwise_min(g, f)
    assert pointwise_min(pointwise_min(f, g), h) == pointwise_min(
        f, pointwise_min(g, h)
    )


@given(plfuncs(), plfuncs())
@settings(max_examples=80, deadline=None)
def test_leq_iff_min_is_left(f, g):
    assert pointwise_leq(f, g) == (pointwise_min(f, g) == f)


@st.composite
def wide_plfuncs(draw):
    """Up to 20 breakpoints with values in [-1, 1], so that two draws cross
    many times."""
    den = draw(st.integers(min_value=2, max_value=30))
    inner = draw(st.sets(st.integers(min_value=1, max_value=den - 1), max_size=18))
    xs = [F(0)] + [F(k, den) for k in sorted(inner)] + [F(1)]
    ys = st.integers(min_value=-7, max_value=7).map(lambda k: F(k, 7))
    return PLFunc((x, draw(ys)) for x in xs)


@given(wide_plfuncs(), wide_plfuncs())
@settings(max_examples=200, deadline=None)
def test_one_pass_ops_match_at_route(f, g):
    """The forward walk gives the same functions and verdicts as evaluating
    both functions with ``at`` at the union breakpoints and crossings."""
    for a, b in ((f, g), (g, f), (f, f)):
        assert pointwise_min(a, b) == min_by_at(a, b)
        assert pointwise_sub(a, b) == sub_by_at(a, b)
        assert pointwise_leq(a, b) == leq_by_at(a, b)
        assert pointwise_leq(pointwise_min(a, b), a)


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_fraction_oracles(rng):
    """Mixed, large and pairwise-coprime denominators; zeros of f - g at
    breakpoints, tangent, in flat runs and off every grid."""
    f, g = random_mixed_pair(rng)
    for a, b in ((f, g), (g, f), (f, f)):
        assert pointwise_min(a, b).breakpoints == tuple(min_by_fractions(a, b))
        assert pointwise_sub(a, b).breakpoints == tuple(sub_by_fractions(a, b))
        assert pointwise_leq(a, b) == leq_by_fractions(a, b)
    slopes = slopes_by_fractions(f)
    assert is_lipschitz1(f) == all(-1 <= s <= 1 for s in slopes)
    inc, dec = all(s >= 0 for s in slopes), all(s <= 0 for s in slopes)
    expected = {(True, True): MonotoneClass.CONSTANT,
                (True, False): MonotoneClass.WEAKLY_INCREASING,
                (False, True): MonotoneClass.WEAKLY_DECREASING,
                (False, False): MonotoneClass.NEITHER}[inc, dec]
    assert monotone_class(f) == expected
    c = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
    assert vshift(f, c).breakpoints == tuple((x, y + c) for x, y in f.breakpoints)
    for x in [F(rng.randint(0, q), q) for q in (1, 7, 10**30 + 57, 2 * 3 * 5 * 7)]:
        assert f.at(x) == at_by_fractions(f, x)


class TestIntegerStorage:
    POINTS = [(0, F(2, 5)), (F(1, 3), F(1, 7)), (F(5, 11), F(3, 4)), (1, F(-1, 9))]

    def test_differently_scaled_inputs_are_equal(self):
        f = PLFunc(self.POINTS)
        zero = PLFunc.constant(0)
        padded = PLFunc([self.POINTS[0], (F(1, 6), F(19, 70)), *self.POINTS[1:]])
        same = [padded, vshift(vshift(f, F(3, 10**20 + 39)), F(-3, 10**20 + 39)),
                pointwise_sub(f, zero), pointwise_min(f, f)]
        for g in same:
            assert g == f and hash(g) == hash(f)

    def test_lattice_and_fraction_samples_agree(self):
        values = [F(1, 2), F(1, 3), F(1, 6), F(1, 3), F(1, 2)]
        f = PLFunc((F(j, 4), v) for j, v in enumerate(values))
        for den in (6, 12, 6 * 10**25):
            g = PLFunc.from_lattice(4, [int(v * den) for v in values], den)
            assert g == f and hash(g) == hash(f)

    def test_each_triple_holds_only_its_own_denominators(self):
        f = PLFunc(self.POINTS)
        huge = F(1, 10**40 + 1)
        g = PLFunc([*self.POINTS[:2], (F(2, 5), huge), *self.POINTS[2:]])
        for pts in (f, g):
            for (x, y), (big_x, big_y, w) in zip(pts.breakpoints, pts._pts):
                assert w == x.denominator * y.denominator // gcd(x.denominator,
                                                                 y.denominator)
                assert (big_x, big_y) == (x * w, y * w)
        assert g._pts[:2] == f._pts[:2] and g._pts[3:] == f._pts[2:]


def test_crossings_inserted():
    f = PLFunc([(0, 0), (F(1, 3), 1), (F(2, 3), -1), (1, 1)])
    g = PLFunc([(0, F(1, 2)), (F(1, 2), 0), (1, F(1, 2))])
    xs = xs_with_crossings(f, g)
    assert len(xs) > len({x for x, _ in f.breakpoints + g.breakpoints})
    assert pointwise_min(f, g) == min_by_at(f, g)


class TestMonotoneClass:
    """rises_class on the rises of a function's segments (_steps), the
    library's one classifier, through the test helper monotone_class."""

    def test_increasing(self):
        f = PLFunc([(0, 0), (F(1, 3), 0), (F(2, 3), F(1, 6)), (1, F(1, 2))])
        assert monotone_class(f) is MonotoneClass.WEAKLY_INCREASING

    def test_tent_is_neither(self):
        assert monotone_class(TENT) is MonotoneClass.NEITHER

    def test_constant(self):
        assert monotone_class(PLFunc.constant(F(1, 5))) is MonotoneClass.CONSTANT

    def test_decreasing_difference(self):
        f = PLFunc([(0, 1), (F(1, 2), F(1, 2)), (1, F(1, 2))])
        assert monotone_class(pointwise_sub(f, PLFunc.constant(0))) is (
            MonotoneClass.WEAKLY_DECREASING
        )


class TestRisesClass:
    """rises_class, read from the least and the greatest rise, against the
    two-``all`` classifier it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30),
                              st.sampled_from([-10**30, 10**30, 0])), max_size=12))
    def test_matches_two_alls(self, rises):
        assert rises_class(rises) is rises_class_by_all(rises)

    @pytest.mark.parametrize("rises,cls", [
        ([], MonotoneClass.CONSTANT), ([0], MonotoneClass.CONSTANT),
        ([0] * 7, MonotoneClass.CONSTANT), ([5], MonotoneClass.WEAKLY_INCREASING),
        ([-5], MonotoneClass.WEAKLY_DECREASING), ([0, 10**30, 0], MonotoneClass.WEAKLY_INCREASING),
        ([-10**30, 0], MonotoneClass.WEAKLY_DECREASING), ([10**30, -1], MonotoneClass.NEITHER),
        ([-1, 0, 10**30 + 1], MonotoneClass.NEITHER)])
    def test_edge_lists(self, rises, cls):
        assert rises_class(rises) is rises_class_by_all(rises) is cls

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(plfuncs(), wide_plfuncs()))
    def test_monotone_class_unchanged(self, f):
        assert monotone_class(f) is rises_class_by_all(slopes_by_fractions(f))


class TestBFunc:
    def test_validates_endpoints(self):
        with pytest.raises(DomainError):
            BFunc(F(1, 3), TENT)

    @pytest.mark.parametrize("start,end,ok", [
        (F(2, 7), F(5, 7), True), (F(3, 7), F(5, 7), False), (F(2, 7), F(4, 7), False),
        (F(2, 7), F(2, 7), False), (F(5, 7), F(2, 7), False)])
    def test_each_bad_endpoint_raises(self, start, end, ok):
        f = PLFunc([(0, start), (F(1, 11), start + F(1, 13)), (F(10, 11), end - F(1, 13)),
                    (1, end)])
        if ok:
            assert BFunc(F(2, 7), f).f is f
        else:
            with pytest.raises(DomainError, match="endpoints"):
                BFunc(F(2, 7), f)

    def test_validates_lipschitz(self):
        steep = PLFunc([(0, F(1, 2)), (F(1, 8), F(7, 8)), (1, F(1, 2))])
        with pytest.raises(DomainError, match="boundary curve must be 1-Lipschitz"):
            BFunc(F(1, 2), steep)

    def test_diamond_curves(self):
        k = F(2, 5)
        assert top_curve(k).at(F(1, 5)) == top_at(k, F(1, 5)) == F(1, 5)
        assert bottom_curve(k).at(F(1, 5)) == bottom_at(k, F(1, 5)) == F(3, 5)
        assert bottom_at(k, F(3, 5)) == 1
        BFunc(k, top_curve(k))
        BFunc(k, bottom_curve(k))
