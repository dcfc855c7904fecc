"""The preprojective algebra of type A on vertices 1..n-1.

Everything is drawn inside the unit square with y increasing downwards: the
projective P_i occupies the diamond with apex at (i/n, 0), the simple factor
at vertex j and depth d (in units of 1/n) sits at (j/n, d/n), and an ideal
summand inside P_i is encoded by the +-1-slope grid curve separating the
factors in the submodule (below the curve) from those outside it.

Sweeps compute on integer curves, tuples of units of 1/n (ideal_curves,
rank_curves, strip_curves, word_curves, vanishing_rows, tau_rigid_witness),
validated as a DiamondCurve only where they enter the library: JSON and
public constructors (ideal_of).  Modules are curves and the bands (up, down)
they cut out; there is no second, basis-map representation.  Hom is counted
on bands, one source into many targets in one walk, each target in its own
lane of an int (HomLanes), and deepness on bands too (sheets.is_deep); tau
rigidity reads Hom vanishing through vanishing_rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from . import symgroup
from .errors import DomainError
from .lanes import pack
from .limits import guard
from .rat import num_den, ratio_str
from .symgroup import Perm, Word

# a curve in integer units of 1/n (units[0] is its vertex), and a band
Units = tuple[int, ...]
Band = tuple[Units, Units]


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
            raise DomainError(f"vertex {i} outside 1..{n - 1}")
        if len(units) != n + 1:
            raise DomainError(f"expected {n + 1} grid values, got {len(units)}")
        if not set(map(sub, units[1:], units)) <= {1, -1}:
            raise DomainError("curve steps must be exactly +-1/n")
        # +-1 steps from i to n - i keep within the diamond, which pins both ends
        if units[0] != i or units[n] != n - i:
            j = next(j for j, u in enumerate(units) if not abs(j - i) <= u <= n - abs(n - i - j))
            raise DomainError(f"curve leaves the diamond at column {j}")
        object.__setattr__(self, "units", units)

    @classmethod
    def from_values(cls, i: int, n: int, values: Sequence) -> "DiamondCurve":
        """The curve through the rationals values[j] = c(j/n), each on the 1/n
        grid; canonical literals are read off the rank's table (_literals)."""
        try:  # the table only for a curve that can be valid: n >= 2, n + 1 values
            units = tuple(map(_literals(n)[1].__getitem__, values)) if (
                n >= 2 and len(values) == n + 1) else None
        except (KeyError, TypeError):  # some value not canonical, or unhashable
            units = None
        if units is None:
            units = []
            for p, q in map(num_den, values):
                if p * n % q:
                    raise DomainError(f"curve value {p}/{q} is off the 1/{n} grid")
                units.append(p * n // q)
        return cls(i, n, tuple(units))

    @property
    def values(self) -> tuple[Fraction, ...]:
        """c(j/n) for j = 0..n, as rationals."""
        return tuple(Fraction(u, self.n) for u in self.units)


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


@lru_cache(maxsize=None)
def _diamond(i: int, n: int) -> Band:
    """The top and bottom boundaries of P_i's diamond, in units of 1/n."""
    return (tuple(abs(j - i) for j in range(n + 1)),
            tuple(n - abs(n - i - j) for j in range(n + 1)))


@lru_cache(maxsize=None)
def _literals(n: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The wire literals of u/n for u = 0..n, and the u of each."""
    wire = tuple(ratio_str(u, n) for u in range(n + 1))
    return wire, dict(zip(wire, range(n + 1)))


def projective(i: int, n: int) -> CurveModule:
    """All of P_i: the submodule whose curve is the diamond's top boundary."""
    return CurveModule(Kind.SUB, DiamondCurve(i, n, _diamond(i, n)[0]))


def band(m: CurveModule) -> Band:
    """(up, down): the factors of m are the (j, d) with up[j] < d < down[j]."""
    top, bottom = _diamond(m.i, m.n)
    return (m.curve.units, bottom) if m.kind is Kind.SUB else (top, m.curve.units)


def factors(m: CurveModule) -> Iterator[tuple[int, int]]:
    """The (column, depth) positions of the simple factors of m, column-major."""
    up, down = band(m)
    return ((j, d) for j in range(1, m.n) for d in range(up[j] + 1, down[j], 2))


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
        raise DomainError("top removal applies to submodules of projectives")
    units = m.curve.units
    return frozenset(j for j in range(1, m.n) if _peaks(units, j))


def strip_curves(curves: Sequence[Units], letter: int) -> tuple[Units, ...]:
    """One letter of the stripping algorithm on integer curve units (one
    tuple per projective): remove the top copy of S_letter from every summand
    that has one, pushing its curve down two steps at that column."""
    return tuple((*u[:letter], u[letter] + 2, *u[letter + 1:]) if _peaks(u, letter)
                 else u for u in curves)


def strip(m: CurveModule, j: int) -> CurveModule:
    """Remove the top copy of S_j from m, pushing the curve down two steps."""
    if j not in top_removable(m):
        raise DomainError(f"S_{j} is not in the top of this module")
    [units] = strip_curves((m.curve.units,), j)
    return CurveModule(Kind.SUB, DiamondCurve(m.i, m.n, units))


def _sub_modules(n: int, curves: Sequence[Units]) -> tuple[CurveModule, ...]:
    return tuple(
        CurveModule(Kind.SUB, DiamondCurve(i, n, units))
        for i, units in enumerate(curves, start=1)
    )


def word_curves(word: Word, n: int, vertices: Iterable[int]) -> tuple[Units, ...]:
    """The curve units of the reduced word's ideal at the given vertices, each
    stripped alone in place by strip_curves' rule (a letter acts on each)."""
    word = tuple(word)
    if not symgroup.is_reduced(word, n):
        raise DomainError(f"{word} is not reduced")
    curves = [list(_diamond(i, n)[0]) for i in vertices]
    for units in curves:
        for letter in word:
            if _peaks(units, letter):
                units[letter] += 2
    return tuple(map(tuple, curves))


def ideal_via_word(word: Word, n: int) -> tuple[CurveModule, ...]:
    """The ideal of a reduced word: process letters left to right, stripping
    the top copy of S_j from every summand that has one.  The definition
    that the mizuno check holds ideal_of to."""
    return _sub_modules(n, word_curves(word, n, range(1, n)))


def summand_via_word(word: Word, n: int, i: int) -> Units:
    """The curve units of ideal_via_word(word, n)[i - 1], stripped alone (a
    letter acts on each summand by itself): what the bridge check reads."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"vertex {i} outside 1..{n - 1}")
    return word_curves(word, n, (i,))[0]


@lru_cache(maxsize=None)
def _steps(n: int) -> tuple[Units, ...]:
    """Row p - 1, p = 1..n: +1 at the columns j < p and -1 from p on."""
    return tuple((1,) * p + (-1,) * (n + 1 - p) for p in range(1, n + 1))


def ideal_curves(one_line: Sequence[int]) -> tuple[Units, ...]:
    """The curves of the ideal of w, given in one-line notation, one per
    projective, in O(n^2): in units of 1/n the summand at vertex i has the
    curve c_i(j) = i + j - 2 #{a <= j : w(a) <= i} = c_{i-1}(j) + _steps(n)[w^{-1}(i) - 1][j],
    the boundary function of the permuton of w at apex i/n.  Stripping along
    a reduced word (word_curves) stays the definition: the mizuno check holds
    this closed form to it across every cover edge of the right weak order."""
    steps, curve = _steps(len(one_line)), range(len(one_line) + 1)
    return tuple([curve := tuple(map(add, curve, steps[q]))  # q = w^{-1}(i) - 1, i < n
                  for q in sorted(range(len(one_line)), key=one_line.__getitem__)[:-1]])


def ideal_of(w: Perm) -> tuple[CurveModule, ...]:
    """The permutation ideal of w: ideal_curves' curve modules, validated."""
    return _sub_modules(w.n, ideal_curves(w.one_line))


def tau_sub(m: CurveModule) -> CurveModule:
    """tau of a submodule of P_i is the quotient P_i/m: same curve, other side."""
    if m.kind is not Kind.SUB:
        raise DomainError("tau is computed here for submodules of projectives")
    return CurveModule(Kind.QUOT, m.curve)


@lru_cache(maxsize=None)
def _lane_values(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple]:
    """HomLanes' lane width L at rank n and its lane values: the bits above
    u + n and those below d + n, for u, d in 0..n, and for b.i's parity the
    parity masks of the bits 0..2n, one for each parity of a.i."""
    width = 3 * n + 2
    full, evens = (1 << width) - 1, ((1 << 2 * n + 2) - 1) // 3
    return (width,
            tuple(full ^ (2 << u + n) - 1 for u in range(n + 1)),
            tuple((1 << d + n) - 1 for d in range(n + 1)),
            tuple(tuple(evens >> (j + n + c) % 2 for c in (0, 1)) for j in (0, 1)))


class HomLanes:
    """dim Hom(a, b) from any curve module a into each target b, in one walk
    over a's columns.  A module is its band(m) = (up, down): every curve
    starts at its vertex, so the vertex is up[0] and the rank len(up) - 1.

    Hom between curve modules is counted on their bands: every interchange
    condition links the unknown (j, d, d + e), from factor d of a to factor
    d + e of b, to (j +- 1, d + 1, d + 1 + e) or to zero, so the offset e is
    kept.  At offset e the unknowns of column j lie between the +-1 curves
    max(up_a, up_b - e) and min(down_a, down_b - e); the classes are the
    maximal runs of columns where that band is nonempty, and dim Hom counts
    the runs never joined to zero.  A run is joined at a's deepest factor of
    a column j next to a k with down_a(k) = down_a(j) - 1 and depth
    down_a(j) + e in b, or at b's shallowest where up_b(k) = up_b(j) + 1 and
    a has depth up_b(j) - e at k.  Each such set of offsets is an interval,
    cut from the targets' masks by shifts that a alone sets.

    Target t owns lane t, the bits t*L .. t*L + L - 1 of one int, and offset
    e is bit e + n of its lane, in 0..2n.  Every shift is a right shift by at
    most n + 1, so it moves at most n + 1 bits of lane t + 1 into the top of
    lane t, above those 2n + 1 bits: L = 3n + 2.  The admissible offsets of
    a lane have the parity of b.i - a.i in every column, and the parity mask
    keeps just those bits, so it also clears what a shift spilled.
    """

    __slots__ = ("targets", "n", "width", "lo", "hi", "parity")

    def __init__(self, targets: Iterable[Band]) -> None:
        self.targets = targets = tuple(targets)
        n = len(targets[0][0]) - 1 if targets else 1
        if any(len(up) != n + 1 for up, _ in targets):
            raise DomainError("targets of different ranks")
        width, above, below, parities = _lane_values(n)
        self.n, self.width = n, width
        # lo[x]: the bits above up_b(x) + n; hi[x]: the bits below
        # down_b(x) + n, none where b's column x is empty
        self.lo = pack([[above[u] for u in up] for up, _ in targets], width)
        self.hi = pack([[below[d] if u < d else 0 for u, d in zip(up, down)]
                        for up, down in targets], width)
        self.parity = pack([parities[up[0] % 2] for up, _ in targets], width)

    def dims(self, a: Band) -> list[int]:
        """dim Hom(a, targets[t]) for every target t, in one pass."""
        ua, da = a
        if len(ua) - 1 != self.n:
            raise DomainError(f"ranks {len(ua) - 1} and {self.n} differ")
        width, lo, hi = self.width, self.lo, self.hi
        full = (1 << width) - 1
        keep = self.parity[ua[0] % 2]
        closed = []  # runs that ended, to be counted per lane
        alive = before = 0  # alive: the runs through column x - 1 not joined to zero
        for x in range(1, self.n):
            u, d = ua[x], da[x]
            if u < d and hi[x]:  # a and some target hold factors at column x
                here = lo[x] >> d - 1 & hi[x] >> u + 1 & keep
                # joined at a's deepest factor next to a k with da[k] = d - 1,
                # b's factors at k seen from depth d
                dead = (lo[x - 1] & hi[x - 1]) >> d if da[x - 1] == d - 1 else 0
                if da[x + 1] == d - 1:
                    dead |= (lo[x + 1] & hi[x + 1]) >> d
                # or at b's shallowest, where a holds factors at k: in the
                # lanes where up_b(k) = up_b(x) + 1, lo[x] & ~lo[k] is the
                # one bit up_b(x) + n + 1, seen from a's depths at k
                if ua[x - 1] < da[x - 1]:
                    side = lo[x] & ~lo[x - 1]
                    if side:
                        dead |= (side >> ua[x - 1] + 1) - (side >> da[x - 1])
                if ua[x + 1] < da[x + 1]:
                    side = lo[x] & ~lo[x + 1]
                    if side:
                        dead |= (side >> ua[x + 1] + 1) - (side >> da[x + 1])
                gone = alive & ~here
                alive = here & ~dead & (alive | ~before)
            else:
                gone, here, alive = alive, 0, 0
            if gone:
                closed.append(gone)
            before = here
        if alive:
            closed.append(alive)
        out = [0] * len(self.targets)
        for bits in closed:
            for t in range(len(out)):
                out[t] += (bits >> t * width & full).bit_count()
        return out


def hom_dims(a: CurveModule, targets: Sequence[CurveModule]) -> list[int]:
    """[dim Hom(a, b) for b in targets], for curve modules of either kind,
    read off their bands in one pass (HomLanes)."""
    return HomLanes(map(band, targets)).dims(band(a)) if targets else []


def rank_curves(n: int) -> list[Units]:
    """The 2^n - 2 curves at rank n, i + j - 2 |D & [1, j]| at vertex i = |D|
    for the nonempty proper subsets D of 1..n in the order of their bitmasks
    (bit p - 1 for p): the curve of D less its lowest p plus _steps(n)[p - 1]."""
    steps, curves = _steps(n), [tuple(range(n + 1))]
    for d in range(1, 2 ** n - 1):
        low = d & -d
        curves.append(tuple(map(add, curves[d ^ low], steps[low.bit_length() - 1])))
    return curves[1:]


def vanishing_rows(curves: Iterable[Units]) -> dict[Units, dict[Units, bool]]:
    """{c: {d: Hom(sub c, tau sub d) vanishes}} over the curves c, d of one
    rank (sub c the band (c, bottom), tau sub d the band (top, d)): the
    distinct quotients packed into one HomLanes, one pass per distinct sub."""
    curves = list(dict.fromkeys(curves))
    if not curves:  # no packing
        return {}
    n = len(curves[0]) - 1
    quots = HomLanes([(_diamond(d[0], n)[0], d) for d in curves])
    return {c: dict(zip(curves, [h == 0 for h in quots.dims((c, _diamond(c[0], n)[1]))]))
            for c in curves}


def tau_rigid_witness(curves: Sequence[Units], rows: dict | None = None) -> tuple[int, int] | None:
    """The vertices (i, j) of the first pair, in order, with
    Hom(M^i, tau M^j) != 0 for the submodules M^i, M^j of projectives cut
    out by the given curves, or None when their direct sum is tau-rigid:
    read off rows, vanishing_rows of the curves (the default) or of a
    superset of them."""
    rows = vanishing_rows(curves) if rows is None else rows
    for c in curves:
        if not all(map(rows[c].__getitem__, curves)):
            return c[0], next(d[0] for d in curves if not rows[c][d])
    return None


def is_tau_rigid_ideal(w: Perm) -> bool:
    """Hom((I_w)^i, P_j/(I_w)^j) = 0 for all i, j."""
    guard(w.n)
    return tau_rigid_witness(ideal_curves(w.one_line)) is None
