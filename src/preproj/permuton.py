"""Grid permutons: doubly stochastic measures on the unit square.

A GridPermuton carries an m x m matrix of cell masses, uniform within each
cell, with every row and column summing to 1/m.  Rows index the vertical
coordinate y (increasing downwards) and columns the horizontal coordinate x,
so ``mass[r][c]`` is the measure of ((c/m, (c+1)/m] x (r/m, (r+1)/m]).

Every CDF query reads one corner-sum table built with the permuton:
``cum[r][c]`` is mu([0,c/m] x [0,r/m]), for r, c = 0..m.  Mass is uniform in
each cell, so the CDF is bilinear within each cell and ``_cdf_grid`` reads
any point by interpolating the table along y, then along x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import ge
from typing import Sequence

from .errors import DomainError
from .plfunc import BFunc, PLFunc
from .rat import frac
from .symgroup import Perm

ZERO = Fraction(0)


@dataclass(frozen=True)
class GridPermuton:
    m: int
    mass: tuple[tuple[Fraction, ...], ...]
    cum: tuple[tuple[Fraction, ...], ...] = field(repr=False, compare=False)

    def __init__(self, m: int, mass: Sequence[Sequence]) -> None:
        m = int(m)
        if m < 1:
            raise DomainError("grid size must be positive")
        rows = tuple(tuple(frac(v) for v in row) for row in mass)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise DomainError(f"mass matrix must be {m}x{m}")
        if any(v < 0 for row in rows for v in row):
            raise DomainError("cell masses must be nonnegative")
        cum = [(ZERO,) * (m + 1)]
        for row in rows:
            run = accumulate(row, initial=ZERO)
            cum.append(tuple(a + b for a, b in zip(cum[-1], run)))
        # the row and column sums are differences along the last column and row
        target = Fraction(1, m)
        for r in range(m):
            if cum[r + 1][m] - cum[r][m] != target:
                raise DomainError(f"row {r} does not sum to 1/{m}")
        for c in range(m):
            if cum[m][c + 1] - cum[m][c] != target:
                raise DomainError(f"column {c} does not sum to 1/{m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mass", rows)
        object.__setattr__(self, "cum", tuple(cum))


def from_perm(w: Perm) -> GridPermuton:
    """Mass 1/n on the cell in row w(i), column i, for each i."""
    n = w.n
    cell = Fraction(1, n)
    mass = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        mass[w(i) - 1][i - 1] = cell
    return GridPermuton(n, mass)


def uniform(m: int) -> GridPermuton:
    """Lebesgue measure on the square, carried on an m x m grid."""
    cell = Fraction(1, m * m)
    return GridPermuton(m, [[cell] * m for _ in range(m)])


def _cdf_grid(mu: GridPermuton, ys, xs) -> list[list[Fraction]]:
    """cdf at every (x, y) of xs x ys, one row per y.  Each coordinate t comes
    as (i, f) = divmod(t * m, 1), so t = (i + f)/m with 0 <= f < 1; an
    on-grid point (f = 0) is a plain table read."""
    cols = {j for j, _ in xs} | {j + 1 for j, g in xs if g}
    out = []
    for i, f in ys:
        row = mu.cum[i]
        if f:
            below = mu.cum[i + 1]
            row = {j: row[j] + f * (below[j] - row[j]) for j in cols}
        out.append([row[j] + g * (row[j + 1] - row[j]) if g else row[j]
                    for j, g in xs])
    return out


def cdf(mu: GridPermuton, a, b) -> Fraction:
    """Measure of [0,a] x [0,b], bilinear within each cell."""
    a, b = frac(a), frac(b)
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise DomainError(f"({a},{b}) outside the unit square")
    return _cdf_grid(mu, [divmod(b * mu.m, 1)], [divmod(a * mu.m, 1)])[0][0]


def boundary_function(mu: GridPermuton, y) -> BFunc:
    """The curve f(x) = -2 mu([0,x] x [0,y]) + y + x bounding the ideal
    summand of mu at apex y; breaks only at column boundaries."""
    y = frac(y)
    if not 0 < y < 1:
        raise DomainError(f"apex {y} outside (0,1)")
    m = mu.m
    row = _cdf_grid(mu, [divmod(y * m, 1)], [(c, ZERO) for c in range(m + 1)])[0]
    samples = [-2 * v + y + Fraction(c, m) for c, v in enumerate(row)]
    return BFunc(y, PLFunc.from_samples(samples))


def union_ticks(m: int, m2: int) -> tuple[int, list[int]]:
    """L = lcm(m, m2) and the numerators k of the interior points k/L of the
    union of the two grid partitions, increasing."""
    big = lcm(m, m2)
    return big, sorted({r * big // p for p in (m, m2) for r in range(1, p)})


def _union_coords(m: int, m2: int) -> list[list[tuple[int, Fraction]]]:
    """divmod(t * p, 1) for p = m, m2 at the interior points t = k/L of the union
    grid, L = lcm(m, m2): divmod(k p, L) in integers, a Fraction only off grid p."""
    big, points = union_ticks(m, m2)
    return [[(i, Fraction(r, big) if r else 0)
             for i, r in (divmod(k * p, big) for k in points)] for p in (m, m2)]


def permuton_bruhat_leq(mu: GridPermuton, nu: GridPermuton) -> bool:
    """mu <= nu in the permuton Bruhat order: cdf(mu) >= cdf(nu) everywhere.
    Both CDFs are bilinear on every cell of the union grid and agree on the
    square's boundary, so its interior corners decide the order exactly; on
    a common grid those corners are the interiors of the two ``cum`` tables."""
    m = mu.m
    if m == nu.m:
        return all(all(map(ge, ra[1:m], rb[1:m]))
                   for ra, rb in zip(mu.cum[1:m], nu.cum[1:m]))
    at, at2 = _union_coords(m, nu.m)
    a, b = _cdf_grid(mu, at, at), _cdf_grid(nu, at2, at2)
    return all(x >= y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
