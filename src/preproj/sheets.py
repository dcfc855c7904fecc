"""Sheet modules, their morphism combinatorics, and the brick classification.

A sheet is the image of a decorous submodule of P_k inside a decorous
quotient of P_k; it is carried entirely by its two boundary curves.  Bricks
are exactly the simple modules and the sawtooth modules (alternating +-1
boundary data), and deep modules (nonzero length-two loop action) are never
bricks.  end_dim and is_deep take module descriptors: a curve module is
measured on its band, and simples and sawtooth data, thin by construction,
are answered by type; is_deep also takes a sheet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .finite import CurveModule, band, hom_dims
from .plfunc import BFunc, PLFunc, _steps, positive_intervals, to_bfunc, vshift
from .rat import frac

ZERO = Fraction(0)
ONE = Fraction(1)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Sheet:
    """Image of a composition D -> P_k -> U for decorous D and U.

    ``up`` bounds the submodule from above, ``down`` the quotient from below;
    both must live at apex k (a DomainError otherwise).  The sheet is supported
    where up < down and is zero elsewhere.  ``support`` holds those maximal
    open intervals, found once at construction, and ``generators`` the
    generating positions, scanned once on first use.
    """

    k: Fraction
    up: BFunc
    down: BFunc
    support: tuple[Interval, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = frac(self.k)
        if self.up.k != k or self.down.k != k:
            raise DomainError(f"boundary curves must live at apex {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "support", tuple(positive_intervals(self.down.f, self.up.f)))

    @cached_property
    def generators(self) -> tuple[Fraction, ...]:
        """Generating positions of the sheet: breakpoints of the upper boundary
        inside the support whose left slope is < 1 and right slope is > -1.

        The 1-Lipschitz bound propagates strictness along segments, so this
        breakpoint scan decides the quantified generator condition; a segment
        with slope strictly inside (-1,1) generates at all its points and is
        represented here by its endpoints.  Each interior breakpoint is
        classified on the integer (rise, run) of the segments either side of
        it: slope < 1 is rise < run and slope > -1 is rise > -run.
        """
        steps = _steps(self.up.f)
        return tuple(y for (x, _, w), (rise0, run0), (rise1, run1)
                     in zip(self.up.f._pts[1:], steps, steps[1:])
                     if rise0 < run0 and rise1 > -run1 and _in_support(self, y := Fraction(x, w)))


def _in_support(s: Sheet, y: Fraction) -> bool:
    return any(lo < y < hi for lo, hi in s.support)


def b_interval(s: Sheet, s_prime: Sheet, y, a) -> Optional[Interval]:
    """B_a(y): the largest open interval around y on which the headroom
    Delta = down' - (a + up) is positive; None if Delta(y) <= 0."""
    y, a = frac(y), frac(a)
    if not _in_support(s, y):
        raise DomainError(f"{y} is outside the support of the source sheet")
    return _around(y, s_prime.down.f, vshift(s.up.f, a))


def _around(y: Fraction, f: PLFunc, g: PLFunc) -> Optional[Interval]:
    """The maximal open interval around y where f > g; None if f(y) <= g(y)."""
    return next((iv for iv in positive_intervals(f, g) if iv[0] < y < iv[1]), None)


def codependence_class(s: Sheet, s_prime: Sheet, y, a) -> tuple[Fraction, ...]:
    """Generators of the source sheet pinned together at shift a: those inside
    the interval B_a(y) around y."""
    interval = b_interval(s, s_prime, y, a)
    if interval is None:
        return ()
    lo, hi = interval
    return tuple(g for g in s.generators if lo < g < hi)


def in_range_of_codependence(s: Sheet, s_prime: Sheet, y, a, b) -> bool:
    """Is shift b still coherent with the class at shift a: all members that
    survive at shift b land in one common class."""
    a, b = frac(a), frac(b)
    if b < a:
        raise DomainError(f"shift {b} below the base shift {a}")
    base = codependence_class(s, s_prime, y, a)
    classes = []
    for z in base:
        cls = codependence_class(s, s_prime, z, b)
        if cls:
            classes.append(cls)
    return all(cls == classes[0] for cls in classes)


def elementary_exists(s: Sheet, s_prime: Sheet, y, a) -> bool:
    """Does an elementary morphism sending the generator at y to height
    a + up(y) exist?  Requires the image to land in the target sheet and the
    shifted boundaries to nest over the whole interval B_a(y):
    up' <= a + up < down' <= a + down on B_a(y).  B_a(y) exists exactly when
    a + up(y) < down'(y), and it contains y, so _leq_on decides up'(y) <=
    a + up(y) too."""
    y, a = frac(y), frac(a)
    if y not in s.generators:
        raise DomainError(f"{y} is not a generator of the source sheet")
    up = vshift(s.up.f, a)
    interval = _around(y, s_prime.down.f, up)
    if interval is None:
        return False
    lo, hi = interval
    return (_leq_on(s_prime.up.f, up, lo, hi)
            and _leq_on(s_prime.down.f, vshift(s.down.f, a), lo, hi))


def _leq_on(f: PLFunc, g: PLFunc, lo: Fraction, hi: Fraction) -> bool:
    """f <= g on [lo, hi], lo < hi: no interval where f > g meets it."""
    return not any(a < hi and lo < b for a, b in positive_intervals(f, g))


@dataclass(frozen=True)
class SawtoothDesc:
    """Alternating +-1 boundary data on [a, b].

    teeth[t] = (x, value) with slopes alternating between consecutive teeth:
    -1 out of even-indexed teeth and +1 out of odd-indexed ones, the parity
    fixed by the first slope.  endpoint_flags record whether a and b belong
    to the support of the module the data describes.
    """

    a: Fraction
    b: Fraction
    teeth: tuple[tuple[Fraction, Fraction], ...]
    endpoint_flags: tuple[bool, bool]

    def __init__(self, a, b, teeth, endpoint_flags=(True, True)) -> None:
        a, b = frac(a), frac(b)
        pts = tuple((frac(x), frac(v)) for x, v in teeth)
        if len(pts) < 2:
            raise DomainError("a sawtooth needs at least two teeth")
        if not (0 <= a < b <= 1) or pts[0][0] != a or pts[-1][0] != b:
            raise DomainError("teeth must span [a, b] inside [0, 1]")
        rises = []
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise DomainError("teeth must strictly increase")
            if abs(v1 - v0) != x1 - x0:
                raise DomainError("sawtooth slopes must be exactly +-1")
            rises.append(v1 > v0)
        if any(r0 == r1 for r0, r1 in zip(rises, rises[1:])):
            raise DomainError("sawtooth slopes must alternate")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "teeth", pts)
        flags = tuple(endpoint_flags)
        if len(flags) != 2 or not all(isinstance(f, bool) for f in flags):
            raise DomainError(f"endpoint_flags must be a pair of bools, got {flags!r}")
        object.__setattr__(self, "endpoint_flags", flags)


@dataclass(frozen=True)
class SimpleModule:
    """The simple module concentrated at one interior point."""

    x: Fraction

    def __init__(self, x) -> None:
        x = frac(x)
        if not 0 < x < 1:
            raise DomainError(f"support point {x} outside (0,1)")
        object.__setattr__(self, "x", x)


def is_sawtooth(f: PLFunc, a, b) -> Optional[SawtoothDesc]:
    """Extract the teeth of f restricted to [a, b] if every slope there is
    exactly +-1 (alternation is then automatic); None otherwise."""
    a, b = frac(a), frac(b)
    if not 0 <= a < b <= 1:
        raise DomainError(f"[{a},{b}] is not a subinterval of [0,1]")
    # Breakpoints of f strictly inside (a, b) are genuine slope changes, so
    # these points are the teeth once every slope is known to be +-1.
    pts = f.on(a, b)
    if any(abs(v1 - v0) != x1 - x0 for (x0, v0), (x1, v1) in zip(pts, pts[1:])):
        return None
    return SawtoothDesc(a, b, pts)


def decorous_cover(st: SawtoothDesc) -> BFunc:
    """The decorous submodule covering the sawtooth module: extend the teeth
    constantly outside [a, b] and take the canonical boundary class.

    Fails when the sawtooth starts (ends) with a rising (falling) ray pinned
    to the boundary of [0, 1]; no covering projective exists there.
    """
    teeth = st.teeth
    if st.a == 0 and teeth[1][1] > teeth[0][1]:
        raise DomainError("sawtooth starts at 0 on an odd tooth")
    if st.b == 1 and teeth[-1][1] < teeth[-2][1]:
        raise DomainError("sawtooth ends at 1 on an odd tooth")
    pts = list(teeth)
    if st.a > 0:
        pts.insert(0, (ZERO, pts[0][1]))
    if st.b < 1:
        pts.append((ONE, pts[-1][1]))
    return to_bfunc(PLFunc(pts))


def end_dim(module) -> int:
    """dim End(module).  Simples and sawtooth modules have the field as
    endomorphisms; a curve module is measured on its band by hom_dims, with
    itself as the one target."""
    if isinstance(module, (SimpleModule, SawtoothDesc)):
        return 1
    if isinstance(module, CurveModule):
        return hom_dims(module, (module,))[0]
    raise DomainError(f"not a module descriptor: {module!r}")


def is_deep(module) -> bool:
    """Does some length-two loop act nonzero on the module?  A loop sends the
    factor (j, d) through (j+1, d+1) to (j, d+2); a band's +-1 curves hold the
    middle one whenever they hold both ends, so a curve module is deep exactly
    when some column holds two factors.  Simples and sawtooth modules hold one
    factor per column, so they are never deep.  Every nonzero sheet is deep:
    a short loop acts nonzero on the interior of its support."""
    if isinstance(module, (SimpleModule, SawtoothDesc)):
        return False
    if isinstance(module, CurveModule):
        up, down = band(module)
        return any(b - a >= 4 for a, b in zip(up, down))
    if isinstance(module, Sheet):
        return bool(module.support)
    raise DomainError(f"not a module descriptor: {module!r}")


def is_brick(module) -> bool:
    """A brick is a module whose endomorphisms form the field: End dim 1."""
    return end_dim(module) == 1
