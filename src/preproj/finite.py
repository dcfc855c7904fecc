"""The preprojective algebra of type A on vertices 1..n-1.

Everything is drawn inside the unit square with y increasing downwards: the
projective P_i occupies the diamond with apex at (i/n, 0), the simple factor
at vertex j and depth d (in units of 1/n) sits at (j/n, d/n), and an ideal
summand inside P_i is encoded by the +-1-slope grid curve separating the
factors in the submodule (below the curve) from those outside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from . import symgroup
from .errors import (
    DomainError,
    IndexOutOfRange,
    NoTopSimple,
    NotReduced,
    SizeMismatch,
    TooLarge,
    WrongKind,
)
from .limits import scale_limit
from .linalg import Matrix, rank_of_sparse_rows
from .plfunc import PLFunc
from .rat import frac, rat_str
from .symgroup import Perm, Word

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class HomLengths:
    """Lengths of the pathlike basis of Hom(i, j); the dimension is their count."""

    i: int
    j: int
    n: int
    lengths: tuple[int, ...]


def hom_lengths(i: int, j: int, n: int) -> HomLengths:
    """Path lengths |i-j| + 2t for 0 <= t < min(i, j, n-i, n-j)."""
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise IndexOutOfRange(f"vertices {i},{j} outside 1..{n - 1}")
    count = min(i, j, n - i, n - j)
    return HomLengths(i, j, n, tuple(abs(i - j) + 2 * t for t in range(count)))


def factor_depths(i: int, n: int, j: int) -> range:
    """Depths d carrying a simple factor of P_i at column j (parity i+j+1)."""
    lo = abs(j - i) + 1
    hi = n - 1 - abs(j - (n - i))
    return range(lo, hi + 1, 2)


@dataclass(frozen=True)
class DiamondCurve:
    """A +-1-slope curve across the diamond of P_i on the 1/n grid.

    Stored in integer units of 1/n: units[j] = n * c(j/n), staying between
    the diamond's top |j - i| and bottom n - |n - i - j|, which pin
    units[0] = i and units[n] = n - i.  ``values`` is the curve as rationals.
    """

    i: int
    n: int
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        i, n, units = self.i, self.n, tuple(self.units)
        if not 1 <= i <= n - 1:
            raise IndexOutOfRange(f"vertex {i} outside 1..{n - 1}")
        if len(units) != n + 1:
            raise DomainError(f"expected {n + 1} grid values, got {len(units)}")
        for a, b in zip(units, units[1:]):
            if abs(b - a) != 1:
                raise DomainError("curve steps must be exactly +-1/n")
        for j, u in enumerate(units):
            if not abs(j - i) <= u <= n - abs(n - i - j):
                raise DomainError(f"curve leaves the diamond at column {j}")
        object.__setattr__(self, "units", units)

    @classmethod
    def from_values(cls, i: int, n: int, values: Sequence) -> "DiamondCurve":
        """The curve through the rationals values[j] = c(j/n), each on the 1/n grid."""
        units = []
        for v in map(frac, values):
            t = v * n
            if t.denominator != 1:
                raise DomainError(f"curve value {rat_str(v)} is off the 1/{n} grid")
            units.append(t.numerator)
        return cls(i, n, tuple(units))

    @property
    def values(self) -> tuple[Fraction, ...]:
        """c(j/n) for j = 0..n, as rationals."""
        return tuple(Fraction(u, self.n) for u in self.units)

    def as_plfunc(self) -> PLFunc:
        return PLFunc.from_samples(self.values)


class Kind(Enum):
    SUB = "sub"
    QUOT = "quot"


@dataclass(frozen=True)
class CurveModule:
    """Sub- or quotient module of P_i cut out by a diamond curve.

    A factor at (j, d) lies in a SUB module iff d/n > c(j/n), and in a QUOT
    module iff d/n < c(j/n); the depth and curve lattices have complementary
    parity, so membership is never ambiguous.
    """

    kind: Kind
    curve: DiamondCurve

    @property
    def i(self) -> int:
        return self.curve.i

    @property
    def n(self) -> int:
        return self.curve.n


def top_boundary(i: int, n: int) -> DiamondCurve:
    return DiamondCurve(i, n, tuple(abs(j - i) for j in range(n + 1)))


def bottom_boundary(i: int, n: int) -> DiamondCurve:
    return DiamondCurve(i, n, tuple(n - abs(n - i - j) for j in range(n + 1)))


def projective(i: int, n: int) -> CurveModule:
    """All of P_i: the submodule whose curve is the diamond's top boundary."""
    return CurveModule(Kind.SUB, top_boundary(i, n))


def factors(m: CurveModule) -> Iterator[tuple[int, int]]:
    """The (column, depth) positions of the simple factors of m, column-major."""
    units = m.curve.units
    for j in range(1, m.n):
        cj = units[j]
        for d in factor_depths(m.i, m.n, j):
            if (m.kind is Kind.SUB and d > cj) or (m.kind is Kind.QUOT and d < cj):
                yield (j, d)


def is_zero(m: CurveModule) -> bool:
    return next(factors(m), None) is None


def _peaks(units: Sequence[int], j: int) -> bool:
    """Does the curve peak at column j (both neighbours one step lower on the
    page)?  An interior peak never lies on the diamond's bottom, which rises
    to a single highest point, so a factor always sits just below it."""
    return units[j - 1] == units[j] + 1 == units[j + 1]


def top_removable(m: CurveModule) -> frozenset[int]:
    """Columns j whose simple S_j lies in the top of the submodule m: the
    factor just below the curve at column j is in the top exactly when the
    curve peaks there."""
    if m.kind is not Kind.SUB:
        raise WrongKind("top removal applies to submodules of projectives")
    units = m.curve.units
    return frozenset(j for j in range(1, m.n) if _peaks(units, j))


def strip(m: CurveModule, j: int) -> CurveModule:
    """Remove the top copy of S_j from m, pushing the curve down two steps."""
    if j not in top_removable(m):
        raise NoTopSimple(f"S_{j} is not in the top of this module")
    units = list(m.curve.units)
    units[j] += 2
    return CurveModule(Kind.SUB, DiamondCurve(m.i, m.n, tuple(units)))


def ideal_via_word(word: Word, n: int) -> tuple[CurveModule, ...]:
    """The ideal of a reduced word: process letters left to right, stripping
    the top copy of S_j from every summand that has one.  The definition
    that the mizuno and bridge checks hold ideal_of and the permuton to."""
    word = tuple(word)
    if not symgroup.is_reduced(word, n):
        raise NotReduced(f"{word} is not reduced")
    curves = [list(top_boundary(i, n).units) for i in range(1, n)]
    for letter in word:
        for units in curves:
            if _peaks(units, letter):
                units[letter] += 2
    return tuple(
        CurveModule(Kind.SUB, DiamondCurve(i, n, tuple(units)))
        for i, units in enumerate(curves, start=1)
    )


def ideal_of(w: Perm) -> tuple[CurveModule, ...]:
    """The permutation ideal of w, one curve module per projective, in O(n^2).

    In units of 1/n the summand at vertex i has the curve
    c_i(j) = i + j - 2 #{a <= j : w(a) <= i}, the boundary function of the
    permuton of w at apex i/n.  Stripping along a reduced word
    (ideal_via_word) stays the definition: the mizuno check compares this
    closed form against every reduced word of w.
    """
    n = w.n
    out = []
    for i in range(1, n):
        units = [i]
        below = 0
        for j, v in enumerate(w.one_line, start=1):
            below += v <= i
            units.append(i + j - 2 * below)
        out.append(CurveModule(Kind.SUB, DiamondCurve(i, n, tuple(units))))
    return tuple(out)


def tau_sub(m: CurveModule) -> CurveModule:
    """tau of a submodule of P_i is the quotient P_i/m: same curve, other side."""
    if m.kind is not Kind.SUB:
        raise WrongKind("tau is computed here for submodules of projectives")
    return CurveModule(Kind.QUOT, m.curve)


@dataclass(frozen=True)
class QuiverRep:
    """Explicit matrices of a module over the preprojective algebra.

    alpha[e] : V_{e+1} -> V_{e+2} and alpha_star[e] : V_{e+2} -> V_{e+1}
    (vertices 1-indexed, e = 0..n-3), subject to the preprojective relation
    alpha*_j alpha_j = alpha_{j-1} alpha*_{j-1} at every vertex.
    """

    n: int
    dims: tuple[int, ...]
    alpha: tuple[Matrix, ...]
    alpha_star: tuple[Matrix, ...]

    def __init__(self, n, dims, alpha, alpha_star) -> None:
        n = int(n)
        dims = tuple(int(d) for d in dims)
        if n < 2 or len(dims) != n - 1:
            raise DomainError(f"expected {n - 1} vertex dimensions")
        alpha = tuple(tuple(tuple(frac(v) for v in row) for row in m) for m in alpha)
        alpha_star = tuple(
            tuple(tuple(frac(v) for v in row) for row in m) for m in alpha_star
        )
        if len(alpha) != max(n - 2, 0) or len(alpha_star) != max(n - 2, 0):
            raise DomainError(f"expected {n - 2} arrow matrices each way")
        for e in range(n - 2):
            _check_shape(alpha[e], dims[e + 1], dims[e])
            _check_shape(alpha_star[e], dims[e], dims[e + 1])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_star", alpha_star)
        for j in range(n - 1):
            if _right_loop(self, j) != _left_loop(self, j):
                raise DomainError(f"preprojective relation fails at vertex {j + 1}")


def _check_shape(m: Matrix, rows: int, cols: int) -> None:
    if len(m) != rows or any(len(r) != cols for r in m):
        raise DomainError(f"matrix must be {rows}x{cols}")


def _right_loop(rep: QuiverRep, j: int) -> Matrix:
    """alpha*_j alpha_j on V_{j+1} (0-indexed j; zero past the right end)."""
    d = rep.dims[j]
    if j >= rep.n - 2:
        return tuple(tuple(ZERO for _ in range(d)) for _ in range(d))
    mid = rep.dims[j + 1]
    fwd, bwd = rep.alpha[j], rep.alpha_star[j]
    return tuple(
        tuple(sum((bwd[r][t] * fwd[t][c] for t in range(mid)), ZERO) for c in range(d))
        for r in range(d)
    )


def _left_loop(rep: QuiverRep, j: int) -> Matrix:
    """alpha_{j-1} alpha*_{j-1} on V_{j+1} (0-indexed j; zero at the left end)."""
    d = rep.dims[j]
    if j == 0:
        return tuple(tuple(ZERO for _ in range(d)) for _ in range(d))
    mid = rep.dims[j - 1]
    fwd, bwd = rep.alpha[j - 1], rep.alpha_star[j - 1]
    return tuple(
        tuple(sum((fwd[r][t] * bwd[t][c] for t in range(mid)), ZERO) for c in range(d))
        for r in range(d)
    )


def loop_action(rep: QuiverRep, j: int) -> Matrix:
    """The length-two loop at 1-indexed vertex j acting on V_j.

    Both length-two loops at a vertex agree by the preprojective relation.
    """
    if not 1 <= j <= rep.n - 1:
        raise IndexOutOfRange(f"vertex {j} outside 1..{rep.n - 1}")
    return _right_loop(rep, j - 1)


def zero_rep(n: int) -> QuiverRep:
    dims = (0,) * (n - 1)
    return QuiverRep(n, dims, ((),) * (n - 2), ((),) * (n - 2))


def simple_rep(i: int, n: int) -> QuiverRep:
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"vertex {i} outside 1..{n - 1}")
    dims = tuple(1 if j == i else 0 for j in range(1, n))
    alpha = tuple(tuple(() for _ in range(dims[e + 1])) for e in range(n - 2))
    alpha_star = tuple(tuple(() for _ in range(dims[e])) for e in range(n - 2))
    return QuiverRep(n, dims, alpha, alpha_star)


def to_rep(m: CurveModule) -> QuiverRep:
    """Matrices of a curve module: alpha sends (j,d) to (j+1,d+1) when that
    factor is present (and to zero otherwise); alpha* sends (j+1,d) to (j,d+1)."""
    n = m.n
    cols: dict[int, list[int]] = {j: [] for j in range(1, n)}
    for j, d in factors(m):
        cols[j].append(d)
    index = {(j, d): t for j in range(1, n) for t, d in enumerate(cols[j])}
    dims = tuple(len(cols[j]) for j in range(1, n))
    alpha = []
    alpha_star = []
    for e in range(n - 2):
        j = e + 1
        fwd = [[ZERO] * dims[e] for _ in range(dims[e + 1])]
        for c, d in enumerate(cols[j]):
            r = index.get((j + 1, d + 1))
            if r is not None:
                fwd[r][c] = ONE
        bwd = [[ZERO] * dims[e + 1] for _ in range(dims[e])]
        for c, d in enumerate(cols[j + 1]):
            r = index.get((j, d + 1))
            if r is not None:
                bwd[r][c] = ONE
        alpha.append(tuple(tuple(row) for row in fwd))
        alpha_star.append(tuple(tuple(row) for row in bwd))
    return QuiverRep(n, dims, tuple(alpha), tuple(alpha_star))


def hom_dim(a: QuiverRep, b: QuiverRep) -> int:
    """dim Hom(a, b): the solution space of the interchange conditions
    phi_{j+1} a(alpha_j) = b(alpha_j) phi_j and phi_j a(alpha*_j) =
    b(alpha*_j) phi_{j+1}, solved exactly over the rationals."""
    if a.n != b.n:
        raise SizeMismatch(f"ranks {a.n} and {b.n} differ")
    n = a.n
    offsets = []
    total = 0
    for j in range(n - 1):
        offsets.append(total)
        total += b.dims[j] * a.dims[j]

    def var(j: int, r: int, c: int) -> int:
        # phi_j[r][c], r over b.dims[j], c over a.dims[j]
        return offsets[j] + r * a.dims[j] + c

    rows: list[dict[int, Fraction]] = []
    for e in range(n - 2):
        ma, mb = a.alpha[e], b.alpha[e]
        for r in range(b.dims[e + 1]):
            for c in range(a.dims[e]):
                row: dict[int, Fraction] = {}
                for s in range(a.dims[e + 1]):
                    if ma[s][c]:
                        _acc(row, var(e + 1, r, s), ma[s][c])
                for t in range(b.dims[e]):
                    if mb[r][t]:
                        _acc(row, var(e, t, c), -mb[r][t])
                if row:
                    rows.append(row)
        sa, sb = a.alpha_star[e], b.alpha_star[e]
        for r in range(b.dims[e]):
            for c in range(a.dims[e + 1]):
                row = {}
                for s in range(a.dims[e]):
                    if sa[s][c]:
                        _acc(row, var(e, r, s), sa[s][c])
                for t in range(b.dims[e + 1]):
                    if sb[r][t]:
                        _acc(row, var(e + 1, t, c), -sb[r][t])
                if row:
                    rows.append(row)
    return total - rank_of_sparse_rows(rows)


def _acc(row: dict[int, Fraction], key: int, value: Fraction) -> None:
    nv = row.get(key, ZERO) + value
    if nv:
        row[key] = nv
    else:
        row.pop(key, None)


def is_tau_rigid_ideal(w: Perm) -> bool:
    """Hom((I_w)^i, P_j/(I_w)^j) = 0 for all i, j."""
    if w.n > scale_limit():
        raise TooLarge(f"n={w.n} exceeds the guard ({scale_limit()})")
    summands = ideal_of(w)
    subs = [to_rep(m) for m in summands]
    quots = [to_rep(tau_sub(m)) for m in summands]
    return all(hom_dim(s, q) == 0 for s in subs for q in quots)


def random_curve(i: int, n: int, rng: random.Random) -> DiamondCurve:
    """A randomly wandering +-1 lattice path inside the diamond of P_i."""
    units = [i]
    for j in range(1, n + 1):
        top, bottom = abs(j - i), n - abs(n - i - j)
        units.append(
            rng.choice([u for u in (units[-1] + 1, units[-1] - 1) if top <= u <= bottom])
        )
    return DiamondCurve(i, n, tuple(units))
