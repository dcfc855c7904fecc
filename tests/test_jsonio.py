import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (curve_from_values_by_fractions, curve_module_to_json_by_fractions,
                      curve_module_to_json_by_ratio_str, curve_units_by_num_den,
                      frac_by_fraction_parse, module_to_json, permuton_to_json,
                      plfunc_pts_by_fractions, plfunc_to_json_by_breakpoints, random_bfunc,
                      random_curve, sawtooth_to_json, sheet_to_json)
from preproj import finite, jsonio
from preproj.cli import parse_perm
from preproj.errors import DomainError, ParseError, PreprojError
from preproj.finite import CurveModule, DiamondCurve, Kind, ideal_of, projective
from preproj.permuton import from_perm, uniform
from preproj.plfunc import BFunc, PLFunc, bottom_curve, top_curve
from preproj.rat import frac, num_den, rat_str, ratio_str
from preproj.render import spec_from_json
from preproj.sheets import SawtoothDesc, Sheet, SimpleModule
from preproj.symgroup import Perm


class TestRat:
    def test_wire_format(self):
        assert rat_str(F(2, 5)) == "2/5"
        assert rat_str(F(3)) == "3"
        assert frac("2/5") == F(2, 5)
        assert frac("-7") == F(-7)

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            frac(0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_integer_pairs_write_what_fractions_write(self, p, q):
        assert ratio_str(p, q) == rat_str(F(p, q)) == str(F(p, q))

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            frac("2/5/7")

    @pytest.mark.parametrize(
        "text",
        ["1e999999999", "1E-999999999", " 2.5e+4301 ", "1e" + "9" * 5000],
        ids=["huge", "huge-negative", "just-over-padded", "5000-digit"],
    )
    def test_huge_exponent_rejected(self, text):
        with pytest.raises(ParseError, match="exceeds 4300"):
            frac(text)

    def test_bounded_exponents_parse(self):
        assert frac("1e3") == 1000
        assert frac("2.5e-1") == F(1, 4)
        assert frac("3/4") == F(3, 4)
        assert frac("1e4299") == 10**4299
        assert frac("1e-0_4299") == F(1, 10**4299)
        assert rat_str(frac("-1e-4299")) == "-1/1" + "0" * 4299

    @pytest.mark.parametrize(
        "text",
        ["1e4300", "-1e-4300", "0." + "0" * 4299 + "1"],
        ids=["numerator", "denominator", "long-decimal"],
    )
    def test_too_many_digits_rejected(self, text):
        # rat_str could not print these back: str() of a 4301-digit int raises
        with pytest.raises(ParseError, match="needs more than 4300 digits"):
            frac(text)


def _as_num_den_reports(outcome, value):
    """The former reader's outcome with a rejected literal cut at 40
    characters, as num_den reports it."""
    if outcome == f"bad rational literal {value!r}":
        return f"bad rational literal {value[:40]!r}"
    return outcome


def _outcome(read, value):
    """(p, q) of what read makes of value, or the text of its ParseError."""
    try:
        got = read(value)
    except ParseError as exc:
        return str(exc)
    return (got.numerator, got.denominator) if isinstance(got, F) else got


# literals off the canonical "p/q" form, values that are not literals, and the
# rejected cases of every cap: num_den must match the former Fraction reader
NOT_CANONICAL = [
    "+1/5", " 1/5 ", "1_0/3", "0.2", "2.5e-1", "1e4299", "\u0661/\u0665",
    "\uff11\uff10/\uff14", "1/5\n", "1/-5", "--1", "1/0", "0/0", "1/5/2", "", " ",
    "abc", "1" * 4301, "1" * 4301 + "/3", "1/" + "3" * 4301, "4" * 4300,
    "-" + "4" * 4299, "1e99999", "1e-4300", 0.5, True, False, None, [1],
    F(-4, 6), F(0), 7, -3, 0,
]
CANONICAL = ["0", "-0", "7", "-7", "2/10", "-2/10", "0/9", "007/010", "1/00",
             "4" * 4299, "-" + "4" * 4298, "1/" + "3" * 4297]


class TestNumDen:
    """num_den, the one literal reader, against the former Fraction route."""

    @pytest.mark.parametrize("value", NOT_CANONICAL + CANONICAL,
                             ids=lambda v: repr(v)[:24])
    def test_matches_fraction_reader(self, value):
        expected = _as_num_den_reports(_outcome(frac_by_fraction_parse, value), value)
        assert _outcome(num_den, value) == expected
        assert _outcome(frac, value) == expected
        if not isinstance(expected, str):
            p, q = expected
            assert rat_str(value) == (str(p) if q == 1 else f"{p}/{q}")

    @settings(max_examples=400, deadline=None)
    @given(st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True)
           | st.text(st.sampled_from("0123456789-+/._eE \u0663"), max_size=12))
    def test_matches_fraction_reader_on_drawn_literals(self, text):
        expected = _as_num_den_reports(_outcome(frac_by_fraction_parse, text), text)
        assert _outcome(num_den, text) == expected
        if not isinstance(expected, str):
            assert expected[1] > 0 and math.gcd(*expected) == 1

    def test_lowest_terms(self):
        assert num_den("-12/30") == (-2, 5)
        assert num_den("-0") == (0, 1)
        assert num_den(F(6, 4)) == (3, 2)
        assert num_den(12) == (12, 1)


def _roundtrip(obj, dump, load):
    return load(json.loads(json.dumps(dump(obj))))


class TestRoundTrips:
    def test_plfunc(self):
        f = PLFunc([(0, F(2, 5)), (F(1, 5), F(1, 5)), (F(4, 5), F(4, 5)), (1, F(3, 5))])
        assert _roundtrip(f, jsonio.plfunc_to_json, jsonio.plfunc_from_json) == f

    def test_bfunc(self):
        rng = random.Random(17)
        for _ in range(20):
            b = random_bfunc(rng)
            assert _roundtrip(b, jsonio.bfunc_to_json, jsonio.bfunc_from_json) == b

    def test_curve_module(self):
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randint(2, 7)
            m = CurveModule(
                rng.choice([Kind.SUB, Kind.QUOT]),
                random_curve(rng.randint(1, n - 1), n, rng),
            )
            assert (
                _roundtrip(m, jsonio.curve_module_to_json, jsonio.curve_module_from_json)
                == m
            )

    def test_curve_module_wire_example(self):
        m = jsonio.curve_module_from_json(
            {
                "n": 5,
                "i": 2,
                "kind": "sub",
                "curve": ["2/5", "1/5", "2/5", "3/5", "4/5", "3/5"],
            }
        )
        assert m.kind is Kind.SUB and m.curve.values[0] == F(2, 5)

    def test_curve_module_wire_bytes(self):
        expected = [
            '{"type": "curve_module", "n": 5, "i": 1, "kind": "sub", '
            '"curve": ["1/5", "2/5", "3/5", "4/5", "1", "4/5"]}',
            '{"type": "curve_module", "n": 5, "i": 2, "kind": "sub", '
            '"curve": ["2/5", "1/5", "2/5", "3/5", "4/5", "3/5"]}',
            '{"type": "curve_module", "n": 5, "i": 3, "kind": "sub", '
            '"curve": ["3/5", "2/5", "3/5", "2/5", "3/5", "2/5"]}',
            '{"type": "curve_module", "n": 5, "i": 4, "kind": "sub", '
            '"curve": ["4/5", "3/5", "4/5", "3/5", "2/5", "1/5"]}',
            '{"type": "curve_module", "n": 7, "i": 3, "kind": "quot", '
            '"curve": ["3/7", "2/7", "1/7", "2/7", "1/7", "2/7", "3/7", "4/7"]}',
        ]
        modules = list(ideal_of(Perm((2, 5, 3, 4, 1))))
        modules.append(CurveModule(Kind.QUOT, random_curve(3, 7, random.Random(5))))
        assert [json.dumps(module_to_json(m)) for m in modules] == expected
        reloaded = [jsonio.module_from_json(json.loads(text)) for text in expected]
        assert [json.dumps(module_to_json(m)) for m in reloaded] == expected

    def test_permuton(self):
        for mu in (from_perm(Perm((2, 5, 3, 4, 1))), uniform(3)):
            assert (
                _roundtrip(mu, permuton_to_json, jsonio.permuton_from_json)
                == mu
            )

    def test_sheet(self):
        h = F(1, 2)
        s = Sheet(h, BFunc(h, top_curve(h)), BFunc(h, bottom_curve(h)))
        assert _roundtrip(s, sheet_to_json, jsonio.sheet_from_json) == s

    def test_sawtooth(self):
        st = SawtoothDesc(
            0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))], (True, False)
        )
        assert _roundtrip(st, sawtooth_to_json, jsonio.sawtooth_from_json) == st

    def test_module_descriptors(self):
        for module in (
            SimpleModule(F(1, 3)),
            SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))]),
            CurveModule(Kind.SUB, random_curve(2, 5, random.Random(1))),
        ):
            assert (
                _roundtrip(module, module_to_json, jsonio.module_from_json)
                == module
            )


def outcome(read, *args):
    """What read(*args) returns, or the type and text of the error it raises."""
    try:
        return read(*args)
    except PreprojError as exc:
        return type(exc), str(exc)


# on the grid or off it, unreduced, signed zero, non-wire literals, non-literals
CURVE_LITERALS = ["2/4", "1/2", "-0", "0", 0, 1, "1", F(1, 2), "0.5", "5e-1", " 1/2 ",
                  "+1/2", "1/3", "2/6", "-1/2", "3/12", 0.5, 0.0, True, False, None, "x",
                  "1/0", "1e99999", [], 10**5]


class TestCurveUnitsWire:
    """The integer curve reader and writer against the Fraction ones."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 24), st.sampled_from(Kind), st.randoms(use_true_random=False))
    def test_writer_bytes(self, n, kind, rng):
        m = CurveModule(kind, random_curve(rng.randint(1, n - 1), n, rng))
        assert json.dumps(jsonio.curve_module_to_json(m)) == json.dumps(
            curve_module_to_json_by_fractions(m))

    def test_reader_values_and_errors(self):
        seen = set()
        for n in (3, 4, 6, 12):
            for i in range(1, n):
                values = [rat_str(v) for v in projective(i, n).curve.values]
                for j in range(n + 1):
                    for literal in CURVE_LITERALS:
                        edited = values[:j] + [literal] + values[j + 1:]
                        got = outcome(DiamondCurve.from_values, i, n, edited)
                        assert got == outcome(curve_from_values_by_fractions, i, n, edited)
                        seen.add(got[0] if isinstance(got, tuple) else DiamondCurve)
        assert seen == {DiamondCurve, DomainError, ParseError}


def literal_forms(u: int, n: int, rng: random.Random) -> list:
    """Ways to write u/n: canonical, unreduced, padded, a Fraction, and an
    int where it is whole."""
    canonical, k = ratio_str(u, n), rng.randint(2, 5)
    forms = [canonical, f"{u * k}/{n * k}", f" {canonical}", f"{canonical} ", F(u, n)]
    return forms + [u // n] if u % n == 0 else forms


class TestCurveLiteralTable:
    """The per-rank literal table against the num_den reader and the
    ratio_str writer it replaced."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_table_is_ratio_str(self, n):
        wire, units = finite._literals(n)
        assert wire == tuple(ratio_str(u, n) for u in range(n + 1))
        assert units == {literal: u for u, literal in enumerate(wire)}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 16), st.sampled_from(Kind), st.randoms(use_true_random=False))
    def test_writer_bytes(self, n, kind, rng):
        m = CurveModule(kind, random_curve(rng.randint(1, n - 1), n, rng))
        assert json.dumps(jsonio.curve_module_to_json(m)) == json.dumps(
            curve_module_to_json_by_ratio_str(m))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 16), st.randoms(use_true_random=False))
    def test_reader_matches_num_den(self, n, rng):
        i = rng.randint(1, n - 1)
        units = list(random_curve(i, n, rng).units)
        if rng.random() < 0.3:  # a planted bad step or column, still canonical
            j = rng.randrange(n + 1)
            units[j] = min(n, max(0, units[j] + rng.choice([-2, -1, 1, 2])))
        forms = rng.random() < 0.5  # some values in another form than canonical
        values = [rng.choice(literal_forms(u, n, rng)) if forms and rng.random() < 0.3
                  else ratio_str(u, n) for u in units]
        if rng.random() < 0.2:  # a bad literal
            values[rng.randrange(n + 1)] = rng.choice(CURVE_LITERALS)
        if rng.random() < 0.2:  # a wrong count
            values = values[:-1] if rng.random() < 0.5 else values + ["0"]
        i = i if rng.random() < 0.9 else rng.choice([0, n, -1])
        assert outcome(lambda: DiamondCurve.from_values(i, n, values).units) == outcome(
            curve_units_by_num_den, i, n, values)

    @pytest.mark.parametrize("n,values", [
        (0, ["0"]), (-1, []), (1, ["0", "1"]), (10**9, ["0", "1"]), (4, ["1/4", "x", "1/4"]),
        (4, ["1/4", "0", "1/4", "1/2", "3/4", "1"]), (3, ["1/3", [], "1/3", "2/3"])],
        ids=["rank-0", "rank-minus-1", "rank-1", "rank-1e9", "count-and-literal",
             "one-value-over", "unhashable"])
    def test_no_table_for_a_curve_that_cannot_be_valid(self, monkeypatch, n, values):
        asked, table = [], finite._literals

        def spy(n):  # never builds a table for a huge rank
            asked.append(n)
            assert 2 <= n <= 16, f"literal table asked for at rank {n}"
            return table(n)

        monkeypatch.setattr(finite, "_literals", spy)
        got = outcome(lambda: DiamondCurve.from_values(1, n, values).units)
        assert got == outcome(curve_units_by_num_den, 1, n, values)
        assert got[0] in (DomainError, ParseError)
        assert asked == ([] if n < 2 or len(values) != n + 1 else [n])


class TestErrors:
    def test_missing_field(self):
        with pytest.raises(ParseError):
            jsonio.plfunc_from_json({})

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            jsonio.curve_module_from_json(
                {"n": 5, "i": 2, "kind": "nope", "curve": ["2/5"] * 6}
            )

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 5, "i": "x", "kind": "sub", "curve": ["2/5"] * 6},
            {"n": 5.0, "i": 2, "kind": "sub", "curve": ["2/5"] * 6},
            {"n": 5, "i": True, "kind": "sub", "curve": ["2/5"] * 6},
            {"n": 5, "i": 2, "kind": "sub", "curve": 5},
        ],
    )
    def test_malformed_curve_module_fields(self, obj):
        with pytest.raises(ParseError):
            jsonio.curve_module_from_json(obj)

    def test_off_grid_curve_value(self):
        with pytest.raises(DomainError):
            jsonio.curve_module_from_json(
                {"n": 5, "i": 2, "kind": "sub",
                 "curve": ["2/5", "1/3", "2/5", "3/5", "4/5", "3/5"]}
            )

    @pytest.mark.parametrize(
        "obj",
        [
            {"m": 1, "mass": 5},
            {"m": 1, "mass": [5]},
            {"m": "x", "mass": [["1"]]},
            {"m": 1.0, "mass": [["1"]]},
        ],
    )
    def test_malformed_permuton_fields(self, obj):
        with pytest.raises(ParseError):
            jsonio.permuton_from_json(obj)

    @pytest.mark.parametrize("pts", [5, [5], [["0", "1"], ["1"]]])
    def test_malformed_breakpoints(self, pts):
        with pytest.raises(ParseError):
            jsonio.plfunc_from_json({"breakpoints": pts})

    @pytest.mark.parametrize(
        "flags", [5, None, {"0": True, "1": True}, [True], ["false", "no"], [1, 0]]
    )
    def test_malformed_sawtooth_endpoints(self, flags):
        obj = sawtooth_to_json(
            SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))])
        )
        with pytest.raises(ParseError):
            jsonio.sawtooth_from_json({**obj, "endpoints": flags})

    @pytest.mark.parametrize("obj", [[], "sawtooth", 5, None])
    def test_sawtooth_not_an_object(self, obj):
        with pytest.raises(ParseError):
            jsonio.sawtooth_from_json(obj)

    def test_unknown_module_type(self):
        with pytest.raises(ParseError):
            jsonio.module_from_json({"type": "mystery"})


LOADERS = [getattr(jsonio, name) for name in dir(jsonio) if name.endswith("_from_json")]
LOADERS.append(spec_from_json)

_H = F(1, 2)
# one well-formed object per loader, for fuzzing one field at a time
VALID = [
    permuton_to_json(from_perm(Perm((2, 1, 3)))),
    {"type": "curve_module", **jsonio.curve_module_to_json(ideal_of(Perm((2, 3, 1)))[0])},
    {"type": "sawtooth", **sawtooth_to_json(
        SawtoothDesc(0, 1, [(0, F(2, 5)), (F(2, 5), 0), (1, F(3, 5))]))},
    sheet_to_json(Sheet(_H, BFunc(_H, top_curve(_H)), BFunc(_H, bottom_curve(_H)))),
    {"type": "simple", "x": "1/3"},
    {"width_px": 10, "items": [{"type": "bfunc", **jsonio.bfunc_to_json(BFunc(_H, top_curve(_H)))}]},
]
FIELDS = sorted({key for obj in VALID for key in obj} | {"style", "breakpoints"})
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.sampled_from(["", "x", "0", "1", "-1", "1/2", "2/5", "1/0", "sub", "quot",
                       "simple", "sawtooth", "curve_module", "bfunc", "sheet", "bold"])
    | st.text(max_size=5)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=5),
    max_leaves=16,
)
MUTATED = st.builds(lambda base, key, value: {**base, key: value},
                    st.sampled_from(VALID), st.sampled_from(FIELDS), JSON)


class TestLoaderFuzz:
    """Malformed input of any shape ends as a PreprojError, never another
    exception."""

    @settings(max_examples=200, deadline=None)
    @given(obj=JSON | MUTATED)
    def test_json_loaders(self, obj):
        for load in LOADERS:
            try:
                load(obj)
            except PreprojError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=12) | JSON.map(json.dumps))
    def test_parse_perm(self, text):
        try:
            parse_perm(text)
        except PreprojError:
            pass


BIG = 10**30
RATIONALS = (st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
             | st.builds(F, st.integers(-40, 40), st.integers(1, 12)))
# a/(a + b) for a, b >= 1: strictly inside (0, 1)
INTERIOR = st.one_of(st.tuples(st.integers(1, top), st.integers(1, top))
                     for top in (BIG, 11)).map(lambda ab: F(ab[0], sum(ab)))
REJECTED = [0.5, True, None, "x", "1/0", "1e99999", "1/5/2", [1]]


@st.composite
def literals(draw, value: F):
    """value as the wire may write it: a Fraction, an int, "p/q" in or out of
    lowest terms, signed and padded, or with an exponent."""
    p, q = value.numerator, value.denominator
    k = draw(st.integers(2, 9))
    forms = [value, rat_str(value), f"{p * k}/{q * k}", f" {'+' if p >= 0 else ''}{p}/{q} "]
    if q == 1:
        forms.append(p)
    e = next((e for e in range(7) if 10**e % q == 0), None)
    if e is not None:
        forms.append(f"{p * 10**e // q}e-{e}")
    return draw(st.sampled_from(forms))


@st.composite
def breakpoint_lists(draw):
    """Breakpoint lists in literals: most valid, some with two x swapped or
    repeated, an end off 0 or 1, too few points or a rejected literal."""
    inner = sorted(draw(st.lists(INTERIOR, max_size=5, unique=True)))
    pts = [[x, draw(RATIONALS)] for x in [F(0), *inner, F(1)]]
    fault = draw(st.sampled_from(["none", "none", "swap", "repeat", "end", "short", "junk"]))
    c = draw(st.integers(0, len(pts) - 1))
    if fault == "swap" and c:
        pts[c - 1][0], pts[c][0] = pts[c][0], pts[c - 1][0]
    elif fault == "repeat" and c:
        pts[c][0] = pts[c - 1][0]
    elif fault == "end":
        pts[-c or -1][0] = draw(RATIONALS)
    elif fault == "short":
        pts = pts[:draw(st.integers(0, 1))]
    elif fault == "junk":
        pts[c][draw(st.integers(0, 1))] = draw(st.sampled_from(REJECTED))
    return [[v if isinstance(v, (list, float, bool, str)) or v is None else draw(literals(v))
             for v in pt] for pt in pts]


class TestPLFuncWire:
    """The integer breakpoint writer and reader against the Fraction ones."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(INTERIOR, RATIONALS), max_size=6, unique_by=lambda t: t[0]),
           RATIONALS, RATIONALS)
    def test_writer_strings(self, inner, y0, y1):
        f = PLFunc([(0, y0), *sorted(inner), (1, y1)])
        assert jsonio.plfunc_to_json(f) == plfunc_to_json_by_breakpoints(f)

    def test_writer_strings_of_boundary_curves(self):
        rng = random.Random(5)
        for _ in range(200):
            b = random_bfunc(rng, rng.choice([8, 30]))
            assert jsonio.bfunc_to_json(b) == {"k": rat_str(b.k),
                                               **plfunc_to_json_by_breakpoints(b.f)}

    def test_writer_reduces_each_coordinate(self):
        # (1/2, 1/3) is stored as (3, 2, 6): both coordinates need their own gcd
        f = PLFunc([(0, 0), ("1/2", "1/3"), (1, "-4/6")])
        assert f._pts[1] == (3, 2, 6)
        assert jsonio.plfunc_to_json(f) == {
            "breakpoints": [["0", "0"], ["1/2", "1/3"], ["1", "-2/3"]]}

    @settings(max_examples=300, deadline=None)
    @given(breakpoint_lists())
    def test_reader_points_and_errors(self, pts):
        got = outcome(lambda p: PLFunc(p)._pts, pts)
        assert got == outcome(plfunc_pts_by_fractions, pts)
        assert outcome(lambda p: jsonio.plfunc_from_json({"breakpoints": p})._pts, pts) == got

    @pytest.mark.parametrize("pts,error", [
        ([[0, 0], ["1/2", 0], ["1/3", 0], [1, 0]], DomainError),
        ([[0, 0], ["2/4", 0], [" +1/2 ", 0], [1, 0]], DomainError),
        ([[0, 0], ["5e-1", 0], ["1/2", 1], [1, 0]], DomainError),
        ([["1/2", 0], [0, 0], [1, 0]], DomainError),
        ([[0, 0], ["1", 0], ["2/2", 0]], DomainError),
        ([[0, 0], [1, 0], ["3/2", 0]], DomainError),
        ([[0, 0], ["2/3", 0]], DomainError),
        ([["-0/5", 0]], DomainError),
        ([], DomainError),
        ([[0, 0], [1, 0.5]], ParseError),
        ([[0, "1/0"], ["1/2", 0], ["1/3", 0]], ParseError),
    ])
    def test_rejected_as_before(self, pts, error):
        got = outcome(lambda p: PLFunc(p)._pts, pts)
        assert got == outcome(plfunc_pts_by_fractions, pts) and got[0] is error

    def test_non_canonical_literals_read_as_their_values(self):
        f = PLFunc([["0", " +1/2 "], ["2/4", "5e-1"], [" 1 ", "-0/7"]])
        assert f._pts == ((0, 1, 2), (1, 1, 2), (1, 0, 1))
        assert f == PLFunc([(0, F(1, 2)), (F(1, 2), F(1, 2)), (1, 0)])
