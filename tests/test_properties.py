"""Bulk randomized property suites, each running >= 1000 cases.

These are the standalone invariant sweeps: diamond containment of boundary
curves, complementarity of decorous sub/quotient pairs, downward closure of
submodules, and agreement of the generator scan with its quantified
definition on grid-aligned sheets.  Seeded RNG keeps them reproducible.
"""

import random
from fractions import Fraction as F

from conftest import (as_plfunc, bottom_at, member, member_quot, random_bfunc, random_curve,
                      top_at)
from preproj.plfunc import BFunc
from preproj.sheets import Sheet

CASES = 1000


def _interior_point(rng, b):
    """A random rational (x, length) strictly inside the diamond of P_k."""
    x = F(rng.randint(1, 47), 48)
    lo, hi = top_at(b.k, x), bottom_at(b.k, x)
    length = lo + (hi - lo) * F(rng.randint(0, 23), 24)
    return x, length


def test_bfunc_diamond_containment():
    rng = random.Random(101)
    checked = 0
    while checked < CASES:
        b = random_bfunc(rng)
        xs = [x for x, _ in b.f.breakpoints]
        mids = [(x0 + x1) / 2 for x0, x1 in zip(xs, xs[1:])]
        for x in xs + mids:
            assert top_at(b.k, x) <= b.f.at(x) <= bottom_at(b.k, x)
            checked += 1


def test_decorous_ses_complementarity():
    rng = random.Random(102)
    for _ in range(CASES):
        b = random_bfunc(rng)
        x, length = _interior_point(rng, b)
        if length >= bottom_at(b.k, x):
            continue
        assert member(b, x, length) != member_quot(b, x, length)


def test_submodule_downward_closure():
    rng = random.Random(103)
    done = 0
    while done < CASES:
        b = random_bfunc(rng)
        x, length = _interior_point(rng, b)
        if not member(b, x, length):
            continue
        hi = bottom_at(b.k, x)
        deeper = length + (hi - length) * F(rng.randint(1, 11), 12)
        if deeper < hi:
            assert member(b, x, deeper)
            done += 1


def _grid_bfunc(rng, n: int) -> BFunc:
    """A +-1-slope boundary curve on the 1/n grid (uses a diamond walk)."""
    i = rng.randint(1, n - 1)
    curve = random_curve(i, n, rng)
    return BFunc(F(i, n), as_plfunc(curve))


def _quantified_generators(sheet, n: int):
    """The generator set straight from its definition, decided exactly.

    Witness z against y satisfies up(y) - up(z) >= |y - z|; on +-1 grid
    curves it is enough to scan grid points of the support together with
    midpoints of the segments they cut.
    """
    up = sheet.up.f
    support = sheet.support
    zs = []
    for lo, hi in support:
        cuts = sorted(
            {lo, hi}
            | {F(t, n) for t in range(n + 1) if lo < F(t, n) < hi}
            | {x for x, _ in up.breakpoints if lo < x < hi}
        )
        zs.extend(z for z in cuts if lo < z < hi)
        zs.extend((a + c) / 2 for a, c in zip(cuts, cuts[1:]))
    out = []
    for y, _ in up.breakpoints:
        if not any(lo < y < hi for lo, hi in support):
            continue
        if all(abs(y - z) > up.at(y) - up.at(z) for z in zs if z != y):
            out.append(y)
    return tuple(out)


def test_generator_scan_matches_definition_on_grids():
    rng = random.Random(104)
    done = 0
    while done < CASES:
        n = rng.randint(3, 8)
        up = _grid_bfunc(rng, n)
        down = _grid_bfunc(rng, n)
        if up.k != down.k:
            continue
        sheet = Sheet(up.k, up, down)
        assert sheet.generators == _quantified_generators(sheet, n)
        done += 1
