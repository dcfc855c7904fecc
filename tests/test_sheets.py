import random
from fractions import Fraction as F

import pytest
from conftest import (
    QuiverRep,
    cone_contains,
    delta_fn,
    elementary_exists_by_at,
    generators_by_slopes,
    hom_dim,
    leq_on_by_at,
    pointwise_sub,
    positive_intervals_by_at,
    random_bfunc,
    random_curve,
    random_signed_plfunc,
    rep_is_deep,
    sawtooth_rep,
    simple_rep,
    to_rep,
    union_xs,
)

from preproj.errors import (
    DomainError,
)
from preproj.finite import CurveModule, Kind, projective
from preproj import sheets
from preproj.plfunc import BFunc, PLFunc, bottom_curve, positive_intervals, top_curve
from preproj.sheets import (
    SawtoothDesc,
    Sheet,
    SimpleModule,
    _leq_on,
    b_interval,
    codependence_class,
    decorous_cover,
    elementary_exists,
    in_range_of_codependence,
    end_dim,
    is_brick,
    is_deep,
    is_sawtooth,
)

H = F(1, 2)
TOP = BFunc(H, top_curve(H))
BOTTOM = BFunc(H, bottom_curve(H))
FULL = Sheet(H, TOP, BOTTOM)
ZERO = Sheet(H, TOP, TOP)
# upper boundary flat at 1/2, lower boundary dipping back to 1/2 at the middle
TWO_BUBBLE = Sheet(
    H,
    BFunc(H, PLFunc.constant(H)),
    BFunc(H, PLFunc([(0, H), (F(1, 4), F(3, 4)), (H, H), (F(3, 4), F(3, 4)), (1, H)])),
)
# upper boundary with valleys at 2/5 and 3/5
W_UP = BFunc(
    H, PLFunc([(0, H), (F(2, 5), F(1, 10)), (H, F(1, 5)), (F(3, 5), F(1, 10)), (1, H)])
)
W_SHEET = Sheet(H, W_UP, BOTTOM)
# same upper boundary, lower boundary dipping between the two generators
M_ROOF = BFunc(
    H,
    PLFunc([(0, H), (F(2, 5), F(9, 10)), (H, F(4, 5)), (F(3, 5), F(9, 10)), (1, H)]),
)
M_SHEET = Sheet(H, W_UP, M_ROOF)


class TestSheetBasics:
    def test_apex_mismatch(self):
        with pytest.raises(DomainError, match="boundary curves must live at apex 1/3"):
            Sheet(F(1, 3), TOP, BOTTOM)

    def test_each_boundary_must_live_at_the_apex(self):
        third = F(1, 3)
        for up, down in ((BFunc(third, top_curve(third)), BOTTOM),
                         (TOP, BFunc(third, bottom_curve(third)))):
            with pytest.raises(DomainError, match="boundary curves must live at apex 1/2"):
                Sheet(H, up, down)

    def test_apex_is_read_as_a_rational(self):
        sheet = Sheet("1/2", TOP, BOTTOM)
        assert sheet.k == F(1, 2) and type(sheet.k) is F
        assert sheet == FULL

    def test_full_support(self):
        assert FULL.support == ((F(0), F(1)),)

    def test_zero_sheet(self):
        assert ZERO.support == ()
        assert is_deep(ZERO) is False

    def test_two_bubbles(self):
        assert TWO_BUBBLE.support == ((F(0), H), (H, F(1)))
        assert is_deep(TWO_BUBBLE) is True

    def test_boundaries_agreeing_on_a_segment(self):
        # up = down on [2/5, 3/5]: the whole flat stretch leaves the support
        down = BFunc(
            H,
            PLFunc([(0, H), (F(1, 5), F(7, 10)), (F(2, 5), H),
                    (F(3, 5), H), (F(4, 5), F(7, 10)), (1, H)]),
        )
        sheet = Sheet(H, BFunc(H, PLFunc.constant(H)), down)
        assert sheet.support == ((F(0), F(2, 5)), (F(3, 5), F(1)))


def meeting_kinds(d: PLFunc) -> set[str]:
    """How the two curves with difference d meet, read off d's breakpoints."""
    ys = [y for _, y in d.breakpoints]
    kinds = {"cross" for y0, y1 in zip(ys, ys[1:]) if y0 * y1 < 0}
    kinds |= {"segment" for y0, y1 in zip(ys, ys[1:]) if y0 == y1 == 0}
    kinds |= {"touch" for y in ys if y == 0}
    return kinds or {"apart"}


def lattice_bfunc(rng: random.Random, i: int, n: int) -> BFunc:
    return BFunc(F(i, n), PLFunc.from_lattice(n, random_curve(i, n, rng).units, n))


def random_sheet(rng: random.Random, i: int, n: int) -> sheets.Sheet:
    """A sheet at apex i/n on two random lattice curves, which may cross."""
    up = lattice_bfunc(rng, i, n)
    return Sheet(F(i, n), up, lattice_bfunc(rng, i, n))


def random_mean_sheet(rng: random.Random, i: int, n: int) -> sheets.Sheet:
    """A sheet at apex i/n whose boundaries are each the mean of two random
    lattice curves, one on the 1/n grid and one on a 1-3x finer grid: flat
    segments as well as +-1 ones, and breakpoints off the 1/n grid."""
    def mean() -> BFunc:
        scale = rng.randint(1, 3)
        f, g = lattice_bfunc(rng, i, n).f, lattice_bfunc(rng, i * scale, n * scale).f
        return BFunc(F(i, n), PLFunc((x, (f.at(x) + g.at(x)) / 2) for x in union_xs(f, g)))

    return Sheet(F(i, n), mean(), mean())


class TestSignRoutes:
    """plfunc.positive_intervals, the one reader of every sign question of a
    sheet, against the at-based routes it replaced."""

    def test_positive_intervals_match_oracle(self):
        rng = random.Random(8)
        kinds = set()
        for t in range(5000):
            d = random_signed_plfunc(rng)
            f = random_signed_plfunc(rng, 4)
            g = pointwise_sub(f, d)  # f - g = d
            if t % 2:  # two curves on unrelated grids
                g = random_signed_plfunc(rng)
                d = pointwise_sub(f, g)
            assert positive_intervals(f, g) == positive_intervals_by_at(d), (f, g)
            kinds |= meeting_kinds(d)
        assert kinds == {"cross", "touch", "segment", "apart"}

    def test_b_interval_matches_oracle(self):
        rng = random.Random(10)
        found = set()
        for _ in range(400):
            n = rng.randint(2, 8)
            i = rng.randint(1, n - 1)
            s = random_sheet(rng, i, n)
            scale = rng.randint(1, 3)
            target = random_sheet(rng, i * scale, n * scale)
            ys = [y for y in (F(t, 4 * n) for t in range(1, 4 * n))
                  if any(lo < y < hi for lo, hi in s.support)]
            if not ys:
                continue
            y, a = rng.choice(ys), F(rng.randint(-2, 2 * n), 2 * n)
            expected = next((iv for iv in positive_intervals_by_at(delta_fn(s, target, a))
                             if iv[0] < y < iv[1]), None)
            assert b_interval(s, target, y, a) == expected, (s, target, y, a)
            found.add(expected is None)
        assert found == {True, False}

    def test_leq_on_matches_oracle(self):
        rng = random.Random(9)
        outcomes = set()
        for _ in range(5000):
            d = random_signed_plfunc(rng)
            f = random_signed_plfunc(rng, 4)
            g = pointwise_sub(f, d)  # f - g = d
            grid = [x for x, _ in d.breakpoints]
            ends = [F(0), F(1), *grid, F(rng.randint(0, 12), 12), F(rng.randint(0, 7), 7)]
            lo, hi = sorted(rng.sample(ends, 2))
            if lo == hi:
                continue
            verdict = _leq_on(f, g, lo, hi)
            assert verdict == leq_on_by_at(f, g, lo, hi), (d, lo, hi)
            outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_support_found_once(self, monkeypatch):
        sheet = Sheet(H, W_UP, M_ROOF)

        def refuse(f, g):
            raise AssertionError("support recomputed")

        monkeypatch.setattr(sheets, "positive_intervals", refuse)
        assert sheet.support == ((F(0), F(1)),)
        assert is_deep(sheet)
        assert sheet.generators == (F(2, 5), F(3, 5))


class TestGenerators:
    def test_projective_generated_at_apex(self):
        assert FULL.generators == (H,)

    def test_two_valleys(self):
        assert W_SHEET.generators == (F(2, 5), F(3, 5))

    def test_unit_slope_peak_excluded(self):
        # valleys generate; the interior peak fails the strict slope test
        up = BFunc(
            H,
            PLFunc([(0, H), (F(1, 4), F(1, 4)), (H, H), (F(3, 4), F(1, 4)), (1, H)]),
        )
        sheet = Sheet(H, up, BOTTOM)
        assert sheet.generators == (F(1, 4), F(3, 4))

    def test_scanned_once_per_sheet(self, monkeypatch):
        sheet = Sheet(H, W_SHEET.up, W_SHEET.down)
        scans = []
        true_steps = sheets._steps

        def counting(f):
            scans.append(f)
            return true_steps(f)

        monkeypatch.setattr(sheets, "_steps", counting)
        y = sheet.generators[0]
        codependence_class(sheet, sheet, y, 0)
        elementary_exists(sheet, sheet, y, 0)
        assert sheet.generators == (F(2, 5), F(3, 5)) and len(scans) == 1

    def test_integer_scan_matches_fraction_scan(self):
        rng = random.Random(14)
        sizes = set()
        for t in range(3000):
            n = rng.randint(2, 8)
            i = rng.randint(1, n - 1)
            if t % 3 == 0:
                sheet = random_sheet(rng, i, n)
            elif t % 3 == 1:
                sheet = random_mean_sheet(rng, i, n)
            else:  # slopes strictly inside (-1, 1) too, on an apex off the grids above
                up = random_bfunc(rng)
                sheet = Sheet(up.k, up, BFunc(up.k, bottom_curve(up.k)))
            found = sheet.generators
            assert found == generators_by_slopes(sheet), sheet
            sizes.add(min(len(found), 2))
        assert sizes == {0, 1, 2}

    def test_quantified_definition_on_grid(self):
        # brute force |y - z| > up(y) - up(z) over the support for the W sheet
        up = W_SHEET.up.f
        (lo0, hi0), = W_SHEET.support
        grid = [F(t, 40) for t in range(1, 40)]
        zs = [z for z in grid if lo0 < z < hi0]
        brute = []
        for y in [x for x, _ in up.breakpoints if lo0 < x < hi0]:
            if all(abs(y - z) > up.at(y) - up.at(z) for z in zs if z != y):
                brute.append(y)
        assert tuple(brute) == W_SHEET.generators


class TestCones:
    def test_apex_point_in_cone(self):
        # (y, a + up(y)) lies in the cone when the target holds that length
        assert cone_contains(FULL, FULL, H, F(1, 4), H, F(1, 4))

    def test_below_apex_excluded(self):
        assert not cone_contains(FULL, FULL, H, F(1, 4), H, F(1, 8))

    def test_outside_target_excluded(self):
        assert not cone_contains(FULL, FULL, H, F(1, 4), H, F(3, 2))

    def test_cone_monotone_in_length(self):
        # once (z, b) is in the cone, so is every deeper (z, b') below the
        # target's lower boundary
        rng = random.Random(13)
        for _ in range(200):
            y = F(rng.randint(1, 19), 20)
            z = F(rng.randint(1, 19), 20)
            a = F(rng.randint(0, 10), 10)
            b = F(rng.randint(0, 30), 20)
            if not cone_contains(W_SHEET, M_SHEET, y, a, z, b):
                continue
            hi = M_SHEET.down.f.at(z)
            deeper = b + (hi - b) / 2
            if deeper < hi:
                assert cone_contains(W_SHEET, M_SHEET, y, a, z, deeper)

    def test_delta_of_self_at_zero_shift(self):
        delta = delta_fn(FULL, FULL, 0)
        assert delta.at(H) == 1  # bottom - top at the apex column

    def test_b_interval_full(self):
        assert b_interval(FULL, FULL, H, 0) == (F(0), F(1))

    def test_b_interval_empty_when_shift_too_large(self):
        assert b_interval(FULL, FULL, H, 2) is None

    def test_b_interval_roots(self):
        # Delta = bottom - top - 1/2 vanishes at 1/4 and 3/4
        assert b_interval(FULL, FULL, H, H) == (F(1, 4), F(3, 4))

    def test_not_in_support(self):
        with pytest.raises(DomainError, match="1/2 is outside the support of the source sheet"):
            b_interval(TWO_BUBBLE, TWO_BUBBLE, H, 0)


class TestCodependence:
    def test_single_generator_class(self):
        assert codependence_class(FULL, FULL, H, 0) == (H,)

    def test_small_shift_joins_generators(self):
        cls = codependence_class(W_SHEET, M_SHEET, F(2, 5), 0)
        assert cls == (F(2, 5), F(3, 5))

    def test_large_shift_splits_generators(self):
        # the target roof dips between the generators, so at shift 7/10 the
        # headroom interval around 2/5 no longer reaches 3/5
        cls = codependence_class(W_SHEET, M_SHEET, F(2, 5), F(7, 10))
        assert cls == (F(2, 5),)
        assert codependence_class(W_SHEET, M_SHEET, F(3, 5), F(7, 10)) == (F(3, 5),)

    def test_class_constant_on_members(self):
        for z in codependence_class(W_SHEET, M_SHEET, F(2, 5), 0):
            assert codependence_class(W_SHEET, M_SHEET, z, 0) == (F(2, 5), F(3, 5))

    def test_range_of_codependence_includes_base(self):
        assert in_range_of_codependence(W_SHEET, M_SHEET, F(2, 5), 0, 0)

    def test_singleton_class_never_splits(self):
        for b in (F(0), F(1, 4), F(1, 2), F(9, 10)):
            assert in_range_of_codependence(FULL, FULL, H, 0, b)

    def test_range_excludes_splitting_shift(self):
        assert not in_range_of_codependence(W_SHEET, M_SHEET, F(2, 5), 0, F(7, 10))

    def test_bad_shift(self):
        with pytest.raises(DomainError, match="shift 0 below the base shift 1/4"):
            in_range_of_codependence(FULL, FULL, H, F(1, 4), 0)


class TestElementary:
    def test_identity_like(self):
        assert elementary_exists(FULL, FULL, H, 0)

    def test_too_deep(self):
        assert not elementary_exists(FULL, FULL, H, 2)

    def test_nested_sheets(self):
        inner = Sheet(H, BFunc(H, PLFunc.constant(H)), BOTTOM)
        assert elementary_exists(FULL, inner, H, H)

    def test_requires_generator(self):
        with pytest.raises(DomainError, match="1/4 is not a generator of the source sheet"):
            elementary_exists(FULL, FULL, F(1, 4), 0)

    def test_self_maps_at_each_generator(self):
        for y in W_SHEET.generators:
            assert elementary_exists(W_SHEET, W_SHEET, y, 0)

    def test_matches_the_pointwise_precheck_route(self):
        # targets on 1-3x finer grids; the shifts run from below zero to
        # past the depth of the diamond
        rng = random.Random(15)
        verdicts = []
        for t in range(3000):
            n = rng.randint(2, 8)
            i = rng.randint(1, n - 1)
            source = (random_sheet if t % 2 else random_mean_sheet)(rng, i, n)
            if not source.generators:
                continue
            scale = rng.randint(1, 3)
            target = random_sheet(rng, i * scale, n * scale)
            y = rng.choice(source.generators)
            a = F(rng.randint(-2, 2 * n * scale), 2 * n * scale)
            verdict = elementary_exists(source, target, y, a)
            assert verdict == elementary_exists_by_at(source, target, y, a), (source, target, y, a)
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}


class TestDeep:
    def test_simple_not_deep(self):
        assert not is_deep(SimpleModule(F(2, 5)))
        assert not rep_is_deep(simple_rep(2, 5))

    def test_projective_deep(self):
        assert is_deep(projective(2, 5))
        assert rep_is_deep(to_rep(projective(2, 5)))

    def test_hand_built_deep(self):
        # P_2 at n = 4 in its factor basis: V_1 = <a>, V_2 = <b, c>, V_3 = <d>,
        # a -> c, b -> d forward; b -> a, d -> c backward; both loops at
        # vertex 2 send b to c
        rep = QuiverRep(4, (1, 2, 1), ((1,), (0, -1)), ((0, -1), (1,)))
        assert rep == to_rep(projective(2, 4))
        assert rep_is_deep(rep) and is_deep(projective(2, 4))
        assert not rep_is_deep(QuiverRep(4, (1, 2, 1), ((1,), (-1, -1)), ((-1, -1), (1,))))

    def test_thin_descriptors_are_not_deep(self):
        # one factor per column, as end_dim answers 1 by type
        st = SawtoothDesc(0, 1, [(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
        for module in (SimpleModule(F(1, 3)), st):
            assert is_deep(module) is False and end_dim(module) == 1

    @pytest.mark.parametrize("module", [QuiverRep(2, (1,), (), ()), "P_2", None, 3])
    def test_other_arguments_are_not_modules(self, module):
        for measure in (is_deep, end_dim):
            with pytest.raises(DomainError, match="not a module descriptor"):
                measure(module)

    def test_nonzero_sheets_deep(self):
        assert is_deep(FULL) is True
        assert is_deep(W_SHEET) is True
        assert is_deep(ZERO) is False


class TestSawtooth:
    def test_single_peak(self):
        f = PLFunc([(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
        st = is_sawtooth(f, 0, 1)
        assert st is not None
        assert st.teeth == ((F(0), F(1, 5)), (F(4, 5), F(1)), (F(1), F(4, 5)))
        # it rises out of 0 and falls into 1: no covering projective
        with pytest.raises(DomainError, match="starts at 0"):
            decorous_cover(st)
        with pytest.raises(DomainError, match="ends at 1"):
            decorous_cover(SawtoothDesc(F(4, 5), 1, st.teeth[1:]))

    def test_w_shape(self):
        f = PLFunc(
            [(0, F(2, 5)), (F(1, 5), F(3, 5)), (F(2, 5), F(2, 5)),
             (F(3, 5), F(3, 5)), (F(4, 5), F(2, 5)), (1, F(3, 5))]
        )
        st = is_sawtooth(f, 0, 1)
        assert st is not None and len(st.teeth) == 6
        with pytest.raises(DomainError, match="starts at 0"):  # the first segment rises
            decorous_cover(st)
        # without its first tooth it falls out of 1/5 and rises into 1
        assert decorous_cover(SawtoothDesc(F(1, 5), 1, st.teeth[1:])).k == H

    def test_constant_rejected(self):
        assert is_sawtooth(PLFunc.constant(H), 0, 1) is None

    def test_restriction(self):
        f = PLFunc([(0, H), (F(1, 4), F(1, 4)), (H, H), (1, H)])
        assert is_sawtooth(f, 0, 1) is None
        st = is_sawtooth(f, 0, H)
        assert st is not None and st.teeth[0] == (F(0), H)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            is_sawtooth(PLFunc.constant(H), F(1, 2), F(1, 2))

    def test_alternation_enforced(self):
        with pytest.raises(DomainError):
            SawtoothDesc(0, 1, [(0, 0), (H, H), (1, 1)])

    @pytest.mark.parametrize(
        "flags", [("false", "no"), (1, 0), (True, None), (True,), (True, False, True)]
    )
    def test_endpoint_flags_must_be_two_bools(self, flags):
        with pytest.raises(DomainError):
            SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))], flags)

    def test_endpoint_flags_kept(self):
        st = SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))], [False, True])
        assert st.endpoint_flags == (False, True)


class TestDecorousCover:
    def test_interior_peak(self):
        st = SawtoothDesc(
            F(1, 4), F(3, 4), [(F(1, 4), F(1, 4)), (H, H), (F(3, 4), F(1, 4))]
        )
        cover = decorous_cover(st)
        assert cover.k == H
        assert cover.f == PLFunc(
            [(0, H), (F(1, 4), H), (H, F(3, 4)), (F(3, 4), H), (1, H)]
        )

    def test_full_tent_covers_itself(self):
        st = SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))])
        cover = decorous_cover(st)
        assert cover.k == F(2, 5)
        assert cover.f == top_curve(F(2, 5))

    def test_odd_start_at_zero_fails(self):
        st = SawtoothDesc(0, H, [(0, 0), (F(1, 4), F(1, 4)), (H, 0)])
        with pytest.raises(DomainError, match="sawtooth starts at 0 on an odd tooth"):
            decorous_cover(st)

    def test_odd_end_at_one_fails(self):
        # falls out of 0, so only the last tooth breaks the hypothesis
        st = SawtoothDesc(0, 1, [(0, F(2, 5)), (F(1, 5), F(1, 5)), (F(4, 5), F(4, 5)),
                                 (1, F(3, 5))])
        with pytest.raises(DomainError, match="sawtooth ends at 1 on an odd tooth"):
            decorous_cover(st)

    @pytest.mark.parametrize("values", [(2, 3, 2, 3, 2, 3), (3, 2, 3, 2, 3, 2)], ids=["W", "M"])
    def test_fails_exactly_on_an_odd_tooth_at_0_or_1(self, values):
        # every run of the teeth of one W (M) across [0, 1].  A tooth is odd
        # when a rising segment leaves it; parity alternates tooth by tooth,
        # so the last of r teeth is odd exactly when the first is and r is
        # odd, or the first is not and r is even
        teeth = [(F(t, 5), F(v, 5)) for t, v in enumerate(values)]
        verdicts = set()
        for lo in range(6):
            for hi in range(lo + 1, 6):
                run = teeth[lo:hi + 1]
                st = SawtoothDesc(run[0][0], run[-1][0], run)
                first_odd = run[1][1] > run[0][1]
                last_odd = first_odd ^ (len(run) % 2 == 0)
                fails = (lo == 0 and first_odd) or (hi == 5 and last_odd)
                if fails:
                    end = "starts at 0" if lo == 0 and first_odd else "ends at 1"
                    with pytest.raises(DomainError, match=f"sawtooth {end} on an odd tooth"):
                        decorous_cover(st)
                else:  # the cover runs through the teeth, shifted
                    cover = decorous_cover(st).f
                    assert len({cover.at(x) - v for x, v in run}) == 1
                verdicts.add(fails)
        assert verdicts == {True, False}


class TestBricks:
    def test_simple_is_brick(self):
        assert is_brick(SimpleModule(F(1, 3)))

    def test_sawtooth_is_brick(self):
        st = SawtoothDesc(0, 1, [(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
        assert is_brick(st)

    def test_projective_not_brick(self):
        assert not is_brick(projective(2, 5))

    def test_thin_sawtooth_rep_has_scalar_endos(self):
        st = SawtoothDesc(
            0, 1,
            [(0, F(2, 5)), (F(1, 5), F(3, 5)), (F(2, 5), F(2, 5)),
             (F(3, 5), F(3, 5)), (F(4, 5), F(2, 5)), (1, F(3, 5))],
        )
        rep = sawtooth_rep(st, 5)
        assert rep.dims == (1, 1, 1, 1)
        assert hom_dim(rep, rep) == end_dim(st) == 1
        assert not rep_is_deep(rep) and not is_deep(st)

    def test_sawtooth_rep_needs_grid(self):
        st = SawtoothDesc(0, 1, [(0, F(1, 3)), (F(1, 3), 0), (1, F(2, 3))])
        with pytest.raises(DomainError, match="tooth at 1/3 off the 1/5 grid"):
            sawtooth_rep(st, 5)

    def test_deep_discretised_sheets_are_not_bricks(self):
        # a submodule whose diamond has a two-step gap somewhere is deep
        rng = random.Random(31)
        found = 0
        while found < 10:
            n = rng.randint(4, 6)
            i = rng.randint(1, n - 1)
            m = CurveModule(Kind.SUB, random_curve(i, n, rng))
            units = m.curve.units
            gap = max(
                n - abs(n - i - j) - units[j] for j in range(n + 1)
            )
            if gap < 4:
                continue
            found += 1
            rep = to_rep(m)
            assert rep_is_deep(rep) and is_deep(m)
            assert not is_brick(m)
            assert hom_dim(rep, rep) == end_dim(m) >= 2
