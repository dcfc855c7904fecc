"""Grid permutons: doubly stochastic measures on the unit square.

A GridPermuton carries an m x m matrix of cell masses, uniform within each
cell, with every row and column summing to 1/m.  Rows index the vertical
coordinate y (increasing downwards) and columns the horizontal coordinate x,
so ``cells[r][c] / den`` is the measure of ((c/m, (c+1)/m] x (r/m, (r+1)/m]),
den = lcm(m, mass denominators).  Every permuton is checked and gets its
tables on one path from its integer cells; the constructor reads each
distinct cell literal once per call, and ``from_perm`` and ``uniform`` write
no literals.

Every CDF query reads one integer corner-sum table built with the permuton:
``cum[r][c] / den`` is mu([0,c/m] x [0,r/m]), r, c = 0..m.  The CDF is bilinear
within each cell, so ``_cdf_ints`` reads any point by interpolating the table
along y, then x, one row of points at a time.  A boundary row sits on the
columns, so it reads one or two rows of ``cum`` directly; the order on two
grids reads the union grid row by row and stops at the first row where it
fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, count, repeat
from math import lcm
from operator import add, ge, mul
from typing import Iterator, Sequence

from .errors import DomainError
from .lanes import Lanes
from .plfunc import BFunc, PLFunc
from .rat import frac, num_den
from .symgroup import Perm


def _check_size(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError(f"grid size must be an int, got {m!r}")
    if m < 1:
        raise DomainError("grid size must be positive")


@dataclass(frozen=True)
class GridPermuton:
    m: int
    den: int
    cells: tuple[tuple[int, ...], ...]
    cum: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    def __init__(self, m: int, mass: Sequence[Sequence]) -> None:
        _check_size(m)  # before the shape check reads it
        read: dict[str, tuple[int, int]] = {}  # each distinct literal parsed once
        rows = [[(read.get(v) or read.setdefault(v, num_den(v))) if v.__class__ is str
                 else num_den(v) for v in row] for row in mass]
        if len(rows) != m or any(len(row) != m for row in rows):
            raise DomainError(f"mass matrix must be {m}x{m}")
        den = lcm(m, *{q for row in rows for _, q in row})
        self._fill(m, den, tuple(tuple(p * (den // q) for p, q in row) for row in rows))

    def _fill(self, m: int, den: int, cells: tuple[tuple[int, ...], ...]) -> GridPermuton:
        """Sets ``cells`` over den = lcm(m, reduced mass denominators) once
        they are nonnegative and every row and column sums to 1/m; builds cum."""
        _check_size(m)
        if min(map(min, cells)) < 0:
            raise DomainError("cell masses must be nonnegative")
        cum = [(0,) * (m + 1)]
        for row in cells:
            cum.append(tuple(map(add, cum[-1], accumulate(row, initial=0))))
        # rows and columns sum to 1/m iff cum's last column and row read 0, 1/m, .., 1
        target = den // m
        marks = list(range(0, m * target + 1, target))
        if [row[m] for row in cum] != marks:
            r = next(r for r in range(m) if cum[r + 1][m] - cum[r][m] != target)
            raise DomainError(f"row {r} does not sum to 1/{m}")
        if list(cum[m]) != marks:
            c = next(c for c in range(m) if cum[m][c + 1] - cum[m][c] != target)
            raise DomainError(f"column {c} does not sum to 1/{m}")
        self.__dict__.update(m=m, den=den, cells=cells, cum=tuple(cum))  # frozen: no setattr
        return self

    @property
    def interior(self) -> tuple[int, ...]:
        """The CDF at the interior grid corners (c/m, r/m), 0 < r, c < m,
        row after row, over ``den``: ``cum`` without its boundary, which is
        the same for every permuton on m x m cells; built on each read."""
        return tuple(chain.from_iterable(row[1:-1] for row in self.cum[1:-1]))


@lru_cache(maxsize=None)
def _one_hot(n: int) -> tuple[tuple[int, ...], ...]:
    """Row c, c = 0..n - 1: a 1 in column c of n."""
    return tuple((0,) * c + (1,) + (0,) * (n - 1 - c) for c in range(n))


def from_perm(w: Perm) -> GridPermuton:
    """Mass 1/n on the cell in row w(i), column i, for each i: _one_hot rows."""
    rows = map(_one_hot(w.n).__getitem__, sorted(range(w.n), key=w.one_line.__getitem__))
    return GridPermuton.__new__(GridPermuton)._fill(w.n, w.n, tuple(rows))


def uniform(m: int) -> GridPermuton:
    """Lebesgue measure on the square, carried on an m x m grid."""
    return GridPermuton.__new__(GridPermuton)._fill(m, m * m, ((1,) * m,) * m)


def _cdf_ints(mu: GridPermuton, ys, xs, s: int) -> Iterator[list[int]]:
    """s^2 den cdf at every (x, y) of xs x ys, one row per y, each built as it
    is asked for; (i, r) is (i + r/s)/m."""
    for i, r in ys:  # r = 0 at i = m
        row = [(s - r) * a + r * b for a, b in zip(mu.cum[i], mu.cum[min(i + 1, mu.m)])]
        yield [(s - g) * row[j] + g * row[j + 1] if g else s * row[j] for j, g in xs]


def boundary_row(mu: GridPermuton, p: int, q: int) -> list[int]:
    """The samples at c/m, c = 0..m, of the boundary curve of mu at apex
    p/q, 0 < p < q, each one integer over q^2 den m; the curve is linear
    between them, so they decide every pointwise question about it.  The cdf
    is read off rows i and i + 1 of ``cum``, p/q = (i + r/q)/m (row i alone
    when r = 0)."""
    m, den = mu.m, mu.den
    i, r = divmod(p * m, q)
    line = count(p * q * den * m, q * q * den)  # p/q + c/m
    if not r:
        k = 2 * q * q * m
        return [t - k * a for t, a in zip(line, mu.cum[i])]
    k, s = 2 * q * m, q - r
    return [t - k * (s * a + r * b) for t, a, b in zip(line, mu.cum[i], mu.cum[i + 1])]


def boundary_function(mu: GridPermuton, y) -> BFunc:
    """The curve f(x) = -2 mu([0,x] x [0,y]) + y + x bounding the ideal
    summand of mu at apex y; breaks only at column boundaries."""
    y = frac(y)
    p, q = y.numerator, y.denominator
    if not 0 < p < q:
        raise DomainError(f"apex {y} outside (0,1)")
    return BFunc(y, PLFunc.from_lattice(mu.m, boundary_row(mu, p, q), q * q * mu.den * mu.m))


def union_ticks(m: int, m2: int) -> tuple[int, list[int]]:
    """L = lcm(m, m2) and the numerators k of the interior points k/L of the
    union of the two grid partitions, increasing."""
    big = lcm(m, m2)
    return big, sorted({r * big // p for p in (m, m2) for r in range(1, p)})


def _union_coords(m: int, m2: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """L = lcm(m, m2) and, for p = m, m2, divmod(k p, L) at the interior
    points k/L of the union grid: (i, r) stands for the point (i + r/L)/p."""
    big, points = union_ticks(m, m2)
    return big, [[divmod(k * p, big) for k in points] for p in (m, m2)]


def corners(mu: GridPermuton, den: int) -> Sequence[int]:
    """``mu.interior`` over den, a multiple of mu.den."""
    if den == mu.den:
        return mu.interior
    return list(map(mul, mu.interior, repeat(den // mu.den)))


def permuton_bruhat_leq(mu: GridPermuton, nu: GridPermuton) -> bool:
    """mu <= nu in the permuton Bruhat order: cdf(mu) >= cdf(nu) everywhere.
    Both CDFs are bilinear on every cell of the union grid and agree on the
    square's boundary, so its interior corners decide the order exactly.  On
    a common grid those are the corners of the two ``cum`` tables, over a
    common den: the one-target case of Lanes.  Otherwise both sides are
    integers over their own den, so they compare crossed, one union-grid row
    of each at a time, and no row past the first failing one is built."""
    m = mu.m
    if m == nu.m:
        den = lcm(mu.den, nu.den)
        return Lanes((corners(nu, den),), den).at_most(corners(mu, den)) != 0
    big, (at, at2) = _union_coords(m, nu.m)
    da, db = repeat(nu.den), repeat(mu.den)
    return all(all(map(ge, map(mul, a, da), map(mul, b, db)))
               for a, b in zip(_cdf_ints(mu, at, at, big), _cdf_ints(nu, at2, at2, big)))
