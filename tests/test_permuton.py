import random
from fractions import Fraction as F
from math import gcd, lcm
from operator import lt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (boundary_points_by_fractions, bruhat_leq_by_rows,
                      bruhat_leq_on_union_grid, cdf, cdf_grid_by_fractions, cell_sum_cdf,
                      count_cdf_oracle, cum_by_row_and_column_loops, fraction_cum,
                      from_perm_by_cells, identity,
                      mass, merge_by_fractions,
                      permuton_by_literals,
                      permuton_equal, permuton_to_json, random_permuton, refine,
                      uniform_by_literals)
from preproj import jsonio, permuton
from preproj.errors import DomainError, ParseError
from preproj.lanes import Lanes
from preproj.permuton import (
    GridPermuton,
    _union_coords,
    boundary_function,
    corners,
    from_perm,
    permuton_bruhat_leq,
    uniform,
    union_ticks,
)
from preproj.plfunc import PLFunc, bottom_curve, top_curve
from preproj.rat import num_den, rat_str
from preproj.symgroup import Perm, all_perms, bruhat_leq

W = Perm((2, 5, 3, 4, 1))


class TestGridPermuton:
    def test_from_perm_cells(self):
        mu = from_perm(W)
        fifth = F(1, 5)
        cells = mass(mu)
        assert cells[1][0] == fifth  # w(1)=2: row 2, column 1
        assert cells[4][1] == fifth
        assert cells[2][2] == fifth
        assert cells[3][3] == fifth
        assert cells[0][4] == fifth
        assert sum(v for row in cells for v in row) == 1

    def test_identity_and_reversal(self):
        assert mass(from_perm(Perm((1, 2)))) == ((F(1, 2), 0), (0, F(1, 2)))
        assert mass(from_perm(Perm((2, 1)))) == ((0, F(1, 2)), (F(1, 2), 0))

    def test_uniform(self):
        assert mass(uniform(1)) == ((F(1),),)
        assert mass(uniform(2)) == ((F(1, 4),) * 2,) * 2

    def test_marginals_validated(self):
        with pytest.raises(DomainError):
            GridPermuton(2, [[F(1, 2), 0], [F(1, 2), 0]])
        with pytest.raises(DomainError):
            GridPermuton(2, [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 8)]])


def assert_same_permuton(mu: GridPermuton, reference: GridPermuton) -> None:
    assert (mu.m, mu.den, mu.cells, mu.cum) == (reference.m, reference.den,
                                                reference.cells, reference.cum)
    assert mu == reference and hash(mu) == hash(reference)


def from_perm_matches_literals(max_n: int) -> None:
    for n in range(1, max_n + 1):
        for w in all_perms(n):
            assert_same_permuton(permuton.from_perm(w), permuton_by_literals(w))


class TestIntegerCells:
    """from_perm and uniform hand integer cells to the validating path; the
    same permutons from wire literals are the oracle."""

    def test_from_perm_on_all_of_s6(self):
        from_perm_matches_literals(6)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_from_perm_up_to_12(self, one_line):
        w = Perm(one_line)
        assert_same_permuton(from_perm(w), permuton_by_literals(w))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_uniform(self, m):
        assert_same_permuton(uniform(m), uniform_by_literals(m))

    def test_planted_wrong_cells_fail(self, monkeypatch):
        true = permuton.from_perm
        # the cells of w's first two columns trade rows: still a permuton
        monkeypatch.setattr(permuton, "from_perm", lambda w: true(
            Perm(w.one_line[1::-1] + w.one_line[2:])) if w.n > 1 else true(w))
        with pytest.raises(AssertionError):
            from_perm_matches_literals(4)

    def test_moved_cell_is_refused(self):
        # one cell of 2413 moved down a row: the private path still checks sums
        cells = [list(row) for row in from_perm(Perm((2, 4, 1, 3))).cells]
        cells[1][0], cells[2][0] = 0, 1
        with pytest.raises(DomainError, match="row 1 does not sum"):
            GridPermuton.__new__(GridPermuton)._fill(4, 4, tuple(map(tuple, cells)))
        with pytest.raises(DomainError, match="grid size must be positive"):
            from_perm(Perm(()))


class TestFillChecks:
    """_fill's whole-row checks of the sums against the row-by-row and
    column-by-column loops they replaced."""

    @staticmethod
    def outcome(m: int, den: int, cells):
        try:
            return GridPermuton.__new__(GridPermuton)._fill(m, den, cells).cum
        except DomainError as exc:
            return DomainError, str(exc)

    @staticmethod
    def expected(m: int, den: int, cells):
        try:
            return cum_by_row_and_column_loops(m, den, cells)
        except DomainError as exc:
            return DomainError, str(exc)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    def test_planted_rows_columns_and_cells(self, m, rng):
        mu = random_permuton(rng, m, rng.choice([1, 4, 12]))
        cells = [list(row) for row in mu.cells]
        for _ in range(rng.choice([0, 1, 1, 2])):
            r, c, r2, c2 = (rng.randrange(m) for _ in range(4))
            plant = rng.choice(["row", "column", "cell", "negative"])
            if plant == "row":  # mass moved along a column: two rows off
                cells[r][c] += 1
                cells[r2][c] -= 1
            elif plant == "column":  # mass moved along a row: two columns off
                cells[r][c] += 1
                cells[r][c2] -= 1
            elif plant == "cell":
                cells[r][c] += rng.choice([-1, 1])
            else:
                cells[r][c] = -cells[r][c] or -1
        cells = tuple(map(tuple, cells))
        assert self.outcome(m, mu.den, cells) == self.expected(m, mu.den, cells)

    def test_each_message_is_met(self):
        cells = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        cases = {((1, 0, 0), (0, 1, 0), (0, 1, 0)): "column 1 does not sum to 1/3",
                 ((1, 0, 0), (0, 0, 0), (0, 1, 1)): "row 1 does not sum to 1/3",
                 ((1, 0, 0), (0, 2, -1), (0, -1, 2)): "cell masses must be nonnegative",
                 ((0, 1, 0), (1, 0, 0), (0, 0, 2)): "row 2 does not sum to 1/3",
                 cells: None}
        for planted, message in cases.items():
            got = self.outcome(3, 3, planted)
            assert got == self.expected(3, 3, planted)
            assert got == (DomainError, message) if message else got[-1] == (0, 1, 2, 3)


class TestCellReading:
    """Every input form of a cell gives the same permuton; each distinct
    literal is read once per constructor call."""

    @pytest.mark.parametrize("m", [2.9, 2.0, True, "2", F(2), None])
    def test_grid_size_must_be_an_int(self, m):
        with pytest.raises(DomainError, match="grid size must be an int"):
            GridPermuton(m, [[F(1, 4)] * 2] * 2)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 9), st.integers(2, 6), st.randoms(use_true_random=False))
    def test_input_forms_agree(self, m, scale, rng):
        values = mass(random_permuton(rng, m, 6))
        forms = [
            [[rat_str(v) for v in row] for row in values],
            [[f"{v.numerator * scale}/{v.denominator * scale}" for v in row]
             for row in values],
            [[rng.choice([f" +{v.numerator}/{v.denominator} ",
                          f"{v.numerator * scale}/{v.denominator * scale}", v,
                          int(v) if v.denominator == 1 else v, "-0" if v == 0 else v])
              for v in row] for row in values],
            [[int(v) if v.denominator == 1 else v for v in row] for row in values],
        ]
        reference = GridPermuton(m, values)
        for cells in forms:
            mu = GridPermuton(m, cells)
            assert mu == reference and hash(mu) == hash(reference)
            assert (mu.den, mu.cells, mu.cum) == (reference.den, reference.cells,
                                                 reference.cum)
            assert mass(mu) == mass(reference) == values
            assert mu.den == lcm(m, *(v.denominator for row in values for v in row))

    def test_each_distinct_literal_read_once(self, monkeypatch):
        rng = random.Random(13)
        wire = permuton_to_json(random_permuton(rng, 13))
        wire["mass"][0][wire["mass"][0].index("0")] = "0/26"  # same value, new literal
        wire["mass"][5] = [f"{2 * F(v).numerator}/{2 * F(v).denominator}"
                           for v in wire["mass"][5]]
        calls = []
        monkeypatch.setattr(permuton, "num_den",
                            lambda v: calls.append(v) or num_den(v))
        mu = jsonio.permuton_from_json(wire)
        distinct = {v for row in wire["mass"] for v in row}
        assert sorted(calls) == sorted(distinct) and len(distinct) < 13 * 13
        monkeypatch.undo()
        assert mu == jsonio.permuton_from_json(permuton_to_json(mu))

    def test_literals_parsed_before_the_shape(self):
        with pytest.raises(ParseError, match="bad rational literal '1/0'"):
            GridPermuton(2, [["1/4", "1/4"], ["1/4", "1/0", "1/4"]])
        with pytest.raises(DomainError, match="2x2"):
            GridPermuton(2, [["1/4", "1/4"], ["1/4", "1/4", "1/4"]])


class TestCdf:
    def test_corner_inside_cell(self):
        assert cdf(from_perm(W), F(1, 5), F(2, 5)) == F(1, 5)

    def test_marginal(self):
        for b in (F(1, 5), F(2, 5), F(4, 5)):
            assert cdf(from_perm(W), 1, b) == b
            assert cdf(from_perm(W), b, 1) == b

    def test_marginal_at_arbitrary_rationals(self):
        # within-cell uniformity extends the marginal identity off the grid
        rng = random.Random(6)
        for mu in (from_perm(W), uniform(3)):
            for _ in range(50):
                a = F(rng.randint(0, 84), 84)
                assert cdf(mu, a, 1) == a
                assert cdf(mu, 1, a) == a

    def test_uniform_is_product(self):
        assert cdf(uniform(4), F(1, 2), F(1, 2)) == F(1, 4)
        assert cdf(uniform(3), F(2, 7), F(3, 5)) == F(2, 7) * F(3, 5)

    def test_matches_counting_oracle_on_grid(self):
        for w in all_perms(4):
            mu = from_perm(w)
            for i in range(5):
                for j in range(5):
                    a, b = F(i, 4), F(j, 4)
                    assert cdf(mu, a, b) == count_cdf_oracle(w, a, b)

    def test_matches_cell_sum_oracle_off_grid(self):
        rng = random.Random(8)
        for m in [11, 12, 7] + [rng.randint(1, 12) for _ in range(30)]:
            mu = random_permuton(rng, m)
            for _ in range(10):
                a, b = F(rng.randint(0, 97), 97), F(rng.randint(0, 89), 89)
                assert cdf(mu, a, b) == cell_sum_cdf(mu, a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            cdf(uniform(2), F(3, 2), F(1, 2))


class TestBoundaryFunction:
    def test_identity_permuton_gives_top_curves(self):
        mu = from_perm(identity(5))
        for j in range(1, 5):
            y = F(j, 5)
            assert boundary_function(mu, y).f == top_curve(y)

    def test_reversal_gives_bottom_curves(self):
        mu = from_perm(Perm((5, 4, 3, 2, 1)))
        for j in range(1, 5):
            y = F(j, 5)
            assert boundary_function(mu, y).f == bottom_curve(y)

    def test_uniform_halfway_chord(self):
        assert boundary_function(uniform(4), F(1, 2)).f == PLFunc.constant(F(1, 2))

    def test_uniform_chord_joins_corners(self):
        b = boundary_function(uniform(4), F(1, 4))
        assert b.f == PLFunc([(0, F(1, 4)), (1, F(3, 4))])

    def test_25341_three_piece(self):
        b = boundary_function(from_perm(W), F(2, 5))
        assert b.f == PLFunc(
            [(0, F(2, 5)), (F(1, 5), F(1, 5)), (F(4, 5), F(4, 5)), (1, F(3, 5))]
        )

    def test_off_grid_apex_is_fine(self):
        b = boundary_function(from_perm(W), F(1, 3))
        assert b.k == F(1, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            boundary_function(uniform(2), F(1))


class TestRefine:
    def test_refine_uniform(self):
        assert refine(uniform(1), 3) == uniform(3)

    def test_identity_factor(self):
        mu = from_perm(W)
        assert refine(mu, 1) is mu

    def test_cdf_invariant(self):
        rng = random.Random(2)
        mu = from_perm(W)
        fine = refine(mu, 3)
        for _ in range(100):
            a = F(rng.randint(0, 30), 30)
            b = F(rng.randint(0, 30), 30)
            assert cdf(mu, a, b) == cdf(fine, a, b)


class TestPermutonBruhat:
    def test_identity_is_minimum(self):
        gid = from_perm(identity(4))
        for v in all_perms(4):
            assert permuton_bruhat_leq(gid, from_perm(v))

    def test_identity_below_uniform(self):
        assert permuton_bruhat_leq(from_perm(identity(2)), uniform(2))
        assert not permuton_bruhat_leq(uniform(2), from_perm(identity(2)))

    def test_321_vs_231(self):
        assert not permuton_bruhat_leq(
            from_perm(Perm((3, 2, 1))), from_perm(Perm((2, 3, 1)))
        )
        assert permuton_bruhat_leq(
            from_perm(Perm((2, 3, 1))), from_perm(Perm((3, 2, 1)))
        )

    def test_matches_bruhat_on_s4(self):
        perms = list(all_perms(4))
        permutons = {w.one_line: from_perm(w) for w in perms}
        for u in perms:
            for v in perms:
                assert permuton_bruhat_leq(
                    permutons[u.one_line], permutons[v.one_line]
                ) == bruhat_leq(u, v)

    def test_order_axioms_with_uniform(self):
        # reflexive/antisymmetric/transitive on the S_3 permutons + uniforms
        items = [from_perm(w) for w in all_perms(3)]
        items += [uniform(1), uniform(2), uniform(3)]
        for a in items:
            assert permuton_bruhat_leq(a, a)
            for b in items:
                if permuton_bruhat_leq(a, b) and permuton_bruhat_leq(b, a):
                    assert permuton_equal(a, b)
                for c in items:
                    if permuton_bruhat_leq(a, b) and permuton_bruhat_leq(b, c):
                        assert permuton_bruhat_leq(a, c)

    def test_mixed_grids(self):
        assert permuton_bruhat_leq(from_perm(identity(3)), uniform(2))

    def test_orders_and_equality_match_lcm_reference(self):
        rng = random.Random(11)
        sizes = [(11, 12), (12, 7), (5, 12), (9, 10), (12, 12), (1, 12)]
        sizes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(24)]
        pairs = [(random_permuton(rng, m), random_permuton(rng, k)) for m, k in sizes]
        mixed = random_permuton(rng, 6)
        pairs += [(uniform(4), uniform(9)), (mixed, refine(mixed, 2))]
        pairs += [(from_perm(identity(7)), random_permuton(rng, 12))]
        for mu, nu in pairs:
            common = lcm(mu.m, nu.m)
            a, b = (refine(p, common // p.m) for p in (mu, nu))
            ta, tb = _prefix_sums(a), _prefix_sums(b)
            inner = [(r, c) for r in range(1, common) for c in range(1, common)]
            assert permuton_bruhat_leq(mu, nu) == all(
                ta[r][c] >= tb[r][c] for r, c in inner
            )
            assert permuton_bruhat_leq(nu, mu) == all(
                ta[r][c] <= tb[r][c] for r, c in inner
            )
            assert permuton_equal(mu, nu) == (mass(a) == mass(b))
        assert permuton_equal(*pairs[-3]) and permuton_equal(*pairs[-2])


    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.randoms(use_true_random=False))
    def test_equal_sizes_match_union_grid_oracle(self, m, rng):
        # mixtures of permutation matrices and uniform measures, not only
        # permutation permutons, on one common grid
        mu, nu = random_permuton(rng, m), random_permuton(rng, m)
        assert permuton_bruhat_leq(mu, nu) == bruhat_leq_on_union_grid(mu, nu)
        assert permuton_bruhat_leq(nu, mu) == bruhat_leq_on_union_grid(nu, mu)
        assert permuton_bruhat_leq(mu, mu)

    def test_matches_union_grid_oracle_on_s4(self):
        permutons = [from_perm(w) for w in all_perms(4)]
        for mu in permutons:
            for nu in permutons:
                assert permuton_bruhat_leq(mu, nu) == bruhat_leq_on_union_grid(mu, nu)


def drawn_pair(rng, m: int, grids: str, max_weight: int):
    """Two random permutons on m x m cells, or on m and m + 1 (coprime) cells;
    their dens differ whenever their weight sums do."""
    m2 = m if grids == "same" else m + 1
    return random_permuton(rng, m, max_weight), random_permuton(rng, m2, max_weight)


class TestFlatComparison:
    """permuton_bruhat_leq's one flat pass against the former row-by-row pass."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.sampled_from(["same", "coprime"]),
           st.sampled_from([1, 4, 10**15]), st.randoms(use_true_random=False))
    def test_matches_nested_rows(self, m, grids, max_weight, rng):
        mu, nu = drawn_pair(rng, m, grids, max_weight)
        assert permuton_bruhat_leq(mu, nu) == bruhat_leq_by_rows(mu, nu)
        assert permuton_bruhat_leq(nu, mu) == bruhat_leq_by_rows(nu, mu)

    def test_draws_reach_every_path_and_verdict(self):
        # same grid or union grid, equal or cross-multiplied dens; both
        # verdicts on each grid path and on differing dens, where a comparison
        # of the raw integers (a dropped cross-multiplication) goes wrong
        rng = random.Random(13)
        verdicts, raw_wrong = set(), 0
        for _ in range(600):
            mu, nu = drawn_pair(rng, rng.randint(1, 6), rng.choice(["same", "coprime"]),
                                rng.choice([1, 4, 10**15]))
            got = permuton_bruhat_leq(mu, nu)
            assert got == bruhat_leq_by_rows(mu, nu)
            verdicts.add((mu.m == nu.m, mu.den == nu.den, got))
            if mu.m == nu.m and mu.den != nu.den:
                raw = all(x >= y for ra, rb in zip(mu.cum, nu.cum) for x, y in zip(ra, rb))
                raw_wrong += raw != got
        assert {(grid, den) for grid, den, _ in verdicts} == {
            (True, True), (True, False), (False, True), (False, False)}
        for path in (lambda grid, den: grid, lambda grid, den: not grid,
                     lambda grid, den: not den):
            assert {got for grid, den, got in verdicts if path(grid, den)} == {True, False}
        assert raw_wrong > 0


class TestCdfLanes:
    """Many permutons on one grid, their interior corners in the lanes of
    one int per corner, against the row-by-row comparison."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.lists(st.sampled_from([1, 4, 10**15]), min_size=1,
                                       max_size=8), st.randoms(use_true_random=False))
    def test_rows_match_pairs_on_mixed_dens(self, m, weights, rng):
        mus = [random_permuton(rng, m, w) for w in weights]
        mus += [from_perm(Perm(rng.sample(range(1, m + 1), m))) for _ in range(3)]
        den = lcm(*(mu.den for mu in mus))
        lanes = Lanes([corners(nu, den) for nu in mus], den)
        for mu in mus:
            row = lanes.at_most(corners(mu, den))
            got = [bool(row >> lanes.width * (t + 1) - 1 & 1) for t in range(len(mus))]
            assert got == [bruhat_leq_by_rows(mu, nu) for nu in mus]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([1, 4, 10**15]),
           st.randoms(use_true_random=False))
    def test_corners_are_the_cdf(self, m, max_weight, rng):
        mu = random_permuton(rng, m, max_weight)
        den = mu.den * rng.randint(1, 5)
        table = fraction_cum(mu)
        assert [F(v, den) for v in corners(mu, den)] == [
            table[r][c] for r in range(1, m) for c in range(1, m)]
        assert corners(mu, mu.den) == mu.interior  # a plain property, built on each read

    def test_common_grid_reads_the_tables(self, monkeypatch):
        monkeypatch.setattr(permuton, "_cdf_ints", None)
        rng = random.Random(5)
        for m in (1, 2, 5):
            mu, nu = random_permuton(rng, m, 10**15), random_permuton(rng, m, 4)
            assert permuton_bruhat_leq(mu, nu) == bruhat_leq_by_rows(mu, nu)
            assert permuton_bruhat_leq(mu, mu)


@st.composite
def grid_permutons(draw, max_m: int = 24) -> GridPermuton:
    """A random, uniform or permutation permuton on m x m cells, m <= max_m."""
    m = draw(st.integers(1, max_m))
    kind = draw(st.sampled_from(["random", "uniform", "perm"]))
    if kind == "uniform":
        return uniform(m)
    rng = draw(st.randoms(use_true_random=False))
    if kind == "perm":
        return from_perm(Perm(rng.sample(range(1, m + 1), m)))
    return random_permuton(rng, m, draw(st.sampled_from([1, 4, 10**15])))


class TestBoundaryRowOracles:
    """boundary_row, read off one or two rows of ``cum``, against the
    Fraction CDF readers: at every apex p/q, q <= 30, on and off the grid."""

    APEXES = [(p, q) for q in range(2, 31) for p in range(1, q)]

    @settings(max_examples=40, deadline=None)
    @given(grid_permutons())
    def test_rows_are_the_fraction_cdf(self, mu):
        m = mu.m
        ys = sorted({F(p, q) for p, q in self.APEXES})
        table = cdf_grid_by_fractions(mu, [divmod(y * m, 1) for y in ys],
                                      [(c, F(0)) for c in range(m + 1)])
        expected = {y: [-2 * v + y + F(c, m) for c, v in enumerate(row)]
                    for y, row in zip(ys, table)}
        for p, q in self.APEXES:
            row = permuton.boundary_row(mu, p, q)
            assert [F(v, q * q * mu.den * m) for v in row] == expected[F(p, q)], (p, q)

    @settings(max_examples=100, deadline=None)
    @given(grid_permutons(), st.integers(2, 30), st.data())
    def test_rows_merge_to_the_fraction_curve(self, mu, q, data):
        p = data.draw(st.integers(1, q - 1))
        scale = q * q * mu.den * mu.m
        points = [(F(c, mu.m), F(v, scale))
                  for c, v in enumerate(permuton.boundary_row(mu, p, q))]
        assert merge_by_fractions(points) == boundary_points_by_fractions(mu, F(p, q))


def first_failing_row(mu: GridPermuton, nu: GridPermuton) -> int | None:
    """The first row of union-grid corners where cdf(mu) < cdf(nu) somewhere,
    read through the Fraction CDF reader; None when there is none."""
    big, ticks = union_ticks(mu.m, nu.m)
    at, at2 = ([divmod(F(k, big) * p, 1) for k in ticks] for p in (mu.m, nu.m))
    rows = zip(cdf_grid_by_fractions(mu, at, at), cdf_grid_by_fractions(nu, at2, at2))
    return next((r for r, (a, b) in enumerate(rows) if any(map(lt, a, b))), None)


class TestOrderStopsEarly:
    """On two grids the order reads the union grid one row of each side at a
    time and stops at the first failing row."""

    @staticmethod
    def rows_built(mu, nu) -> tuple[bool, list[int]]:
        """The order of mu and nu, and the grid size of each row built."""
        true, built = permuton._cdf_ints, []

        def counting(mu, ys, xs, s):
            for row in true(mu, ys, xs, s):
                built.append(mu.m)
                yield row

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permuton, "_cdf_ints", counting)
            return permuton_bruhat_leq(mu, nu), built

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(2, 24), st.sampled_from([1, 4, 10**15]),
           st.randoms(use_true_random=False))
    def test_coprime_grids_match_oracles(self, m, m2, max_weight, rng):
        assume(gcd(m, m2) == 1)
        mu, nu = random_permuton(rng, m, max_weight), random_permuton(rng, m2, max_weight)
        # uniform(m) and uniform(m2) are one measure: every row is read
        for a, b in ((mu, nu), (nu, mu), (uniform(m), uniform(m2))):
            got, built = self.rows_built(a, b)
            first = first_failing_row(a, b)
            assert got == (first is None) == bruhat_leq_on_union_grid(a, b)
            assert got == bruhat_leq_by_rows(a, b)
            rows = len(union_ticks(m, m2)[1]) if got else first + 1
            assert sorted(built) == sorted([m, m2] * rows)
        assert got

    def test_first_failing_row_ends_the_order(self):
        top, bottom = from_perm(Perm((5, 4, 3, 2, 1))), from_perm(identity(7))
        # at the first union-grid row, y = 1/35, the reversal's CDF is 0 left
        # of x = 34/35 and the identity's is not
        assert first_failing_row(top, bottom) == 0
        assert self.rows_built(top, bottom) == (False, [5, 7])
        leq, built = self.rows_built(bottom, top)
        assert leq and built == [7, 5] * 10 and len(union_ticks(5, 7)[1]) == 10

    def test_late_failures_build_the_rows_up_to_theirs(self):
        rng, seen = random.Random(4), set()
        for _ in range(40):
            mu, nu = drawn_pair(rng, rng.randint(2, 8), "coprime", 4)
            first = first_failing_row(mu, nu)
            leq, built = self.rows_built(mu, nu)
            rows = len(union_ticks(mu.m, nu.m)[1]) if first is None else first + 1
            assert leq == (first is None) and sorted(built) == sorted([mu.m, nu.m] * rows)
            seen.add(first)
        assert 0 in seen and max(r for r in seen if r is not None) > 1


class TestIntegerTables:
    """The integer table over den against the Fraction table and readers."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([4, 10**15]),
           st.randoms(use_true_random=False))
    def test_match_fraction_routes(self, m, m2, max_weight, rng):
        mu = random_permuton(rng, m, max_weight)
        nu = random_permuton(rng, m2, max_weight)
        assert [[F(v, mu.den) for v in row] for row in mu.cum] == fraction_cum(mu)
        apexes = [F(r, m) for r in range(1, m)]
        apexes += [F(rng.randint(1, q - 1), q) for q in (2, 7, 3 * m + 1, 10**20 + 1)]
        for y in apexes:
            expected = tuple(boundary_points_by_fractions(mu, y))
            assert boundary_function(mu, y).f.breakpoints == expected
        for q in (1, m, 5, 10**12 + 39):
            a, b = F(rng.randint(0, q), q), F(rng.randint(0, q), q)
            expected = cdf_grid_by_fractions(mu, [divmod(b * m, 1)], [divmod(a * m, 1)])
            assert cdf(mu, a, b) == expected[0][0]
        for a, b in ((mu, nu), (nu, mu), (mu, refine(mu, 2))):
            assert permuton_bruhat_leq(a, b) == bruhat_leq_on_union_grid(a, b)


def _prefix_sums(mu):
    """cdf at the grid corners (c/m, r/m), indexed [r][c], from the masses."""
    m, cells = mu.m, mass(mu)
    table = [[F(0)] * (m + 1) for _ in range(m + 1)]
    for r in range(m):
        for c in range(m):
            table[r + 1][c + 1] = (
                table[r][c + 1] + table[r + 1][c] - table[r][c] + cells[r][c]
            )
    return table


class TestUnionCoords:
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    @settings(max_examples=300, deadline=None)
    def test_match_fraction_divmod(self, m, m2):
        points = sorted({F(r, p) for p in (m, m2) for r in range(1, p)})
        expected = [[divmod(t * p, 1) for t in points] for p in (m, m2)]
        big, coords = _union_coords(m, m2)
        assert [[(i, F(r, big)) for i, r in at] for at in coords] == expected

    def test_shared_grid_reads_the_table(self):
        big, (at, at2) = _union_coords(12, 12)
        assert big == 12 and at == at2 == [(i, 0) for i in range(1, 12)]


class TestBFuncInvariant:
    def test_boundary_functions_always_validate(self):
        rng = random.Random(4)
        for w in all_perms(4):
            mu = from_perm(w)
            for _ in range(5):
                y = F(rng.randint(1, 19), 20)
                b = boundary_function(mu, y)
                assert b.k == y


class TestFromPermOneHot:
    """from_perm's cells from the per-rank one-hot rows, against the former
    zero matrix with one 1 set per column."""

    @staticmethod
    def same(w: Perm) -> None:
        mu, former = from_perm(w), from_perm_by_cells(w)
        assert (mu.m, mu.den, mu.cells, mu.cum, mu.interior) == (
            former.m, former.den, former.cells, former.cum, former.interior)
        assert mu == former and all(type(row) is tuple for row in mu.cells)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_of_s_n(self, n):
        for w in all_perms(n):
            self.same(w)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_up_to_20(self, ol):
        self.same(Perm(ol))
