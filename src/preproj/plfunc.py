"""Exact piecewise-linear functions on [0,1] and 1-Lipschitz boundary curves.

The boundary of every module studied here is a piecewise-linear function with
rational breakpoints, drawn with y increasing downwards.  ``PLFunc`` is the
universal carrier; ``BFunc`` is the 1-Lipschitz subclass pinned to the diamond
of the projective at apex k (value k at x=0 and 1-k at x=1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DegenerateEndpoints, DomainError, NotLipschitz
from .rat import frac

ZERO = Fraction(0)
ONE = Fraction(1)


class MonotoneClass(Enum):
    WEAKLY_INCREASING = "increasing"
    WEAKLY_DECREASING = "decreasing"
    CONSTANT = "constant"
    NEITHER = "neither"


def _collinear(p0, p1, p2) -> bool:
    (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
    return (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0)


@dataclass(frozen=True)
class PLFunc:
    """A piecewise-linear function on [0,1] with rational breakpoints.

    Breakpoint x-coordinates strictly increase from 0 to 1; collinear interior
    points are merged on construction so that pointwise-equal functions are
    structurally equal.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, breakpoints: Iterable) -> None:
        pts = [(frac(x), frac(y)) for x, y in breakpoints]
        if len(pts) < 2:
            raise DomainError("need breakpoints at x=0 and x=1")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise DomainError("breakpoint x-coordinates must strictly increase")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise DomainError("domain must be exactly [0,1]")
        merged: list[tuple[Fraction, Fraction]] = []
        for pt in pts:
            while len(merged) >= 2 and _collinear(merged[-2], merged[-1], pt):
                merged.pop()
            merged.append(pt)
        object.__setattr__(self, "breakpoints", tuple(merged))

    @classmethod
    def from_samples(cls, values: Sequence) -> "PLFunc":
        """Function through (j/n, values[j]) for j = 0..n."""
        vals = [frac(v) for v in values]
        n = len(vals) - 1
        if n < 1:
            raise DomainError("need at least two samples")
        return cls((Fraction(j, n), v) for j, v in enumerate(vals))

    @classmethod
    def constant(cls, c) -> "PLFunc":
        c = frac(c)
        return cls(((ZERO, c), (ONE, c)))

    def at(self, x) -> Fraction:
        """Exact value at x in [0,1]."""
        x = frac(x)
        if x < 0 or x > 1:
            raise DomainError(f"{x} outside [0,1]")
        pts = self.breakpoints
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = pts[lo], pts[hi]
        if x == x0:
            return y0
        if x == x1:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:])
        )

    def on(self, lo, hi) -> list[tuple[Fraction, Fraction]]:
        """The points of f restricted to [lo, hi]: both ends and every
        breakpoint strictly between."""
        inner = [(x, y) for x, y in self.breakpoints if lo < x < hi]
        return [(lo, self.at(lo)), *inner, (hi, self.at(hi))]


def is_lipschitz1(f: PLFunc) -> bool:
    """True iff every segment slope lies in [-1, 1]."""
    return all(-1 <= s <= 1 for s in f.slopes())


def monotone_class(f: PLFunc) -> MonotoneClass:
    """Classify by segment slopes; CONSTANT when the function is flat."""
    slopes = f.slopes()
    inc = all(s >= 0 for s in slopes)
    dec = all(s <= 0 for s in slopes)
    if inc and dec:
        return MonotoneClass.CONSTANT
    if inc:
        return MonotoneClass.WEAKLY_INCREASING
    if dec:
        return MonotoneClass.WEAKLY_DECREASING
    return MonotoneClass.NEITHER


def vshift(f: PLFunc, a) -> PLFunc:
    """f + a pointwise."""
    a = frac(a)
    return PLFunc((x, y + a) for x, y in f.breakpoints)


def _walk(f: PLFunc, g: PLFunc) -> Iterable[tuple[Fraction, Fraction, Fraction]]:
    """(x, f(x), g(x)) at every breakpoint of f or g, increasing, read in one
    forward pass over both breakpoint lists."""
    p, q = f.breakpoints, g.breakpoints
    i = j = 0
    while i < len(p):
        (x, y), (u, v) = p[i], q[j]
        if x < u:
            u0, v0 = q[j - 1]
            yield x, y, v0 + (v - v0) * (x - u0) / (u - u0)
        elif u < x:
            x0, y0 = p[i - 1]
            yield u, y0 + (y - y0) * (u - x0) / (x - x0), v
        else:
            yield x, y, v
        i += x <= u
        j += u <= x


def _crossed(f: PLFunc, g: PLFunc) -> list[tuple[Fraction, Fraction, Fraction]]:
    # f - g is linear between union breakpoints; insert its interior roots
    # so that min/max stay piecewise linear on the listed grid.
    pts = list(_walk(f, g))
    out = pts[:1]
    for (x0, a0, b0), (x1, a1, b1) in zip(pts, pts[1:]):
        d0, d1 = a0 - b0, a1 - b1
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            t = d0 / (d0 - d1)
            y = a0 + (a1 - a0) * t
            out.append((x0 + (x1 - x0) * t, y, y))
        out.append((x1, a1, b1))
    return out


def pointwise_min(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc((x, min(a, b)) for x, a, b in _crossed(f, g))


def pointwise_max(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc((x, max(a, b)) for x, a, b in _crossed(f, g))


def pointwise_leq(f: PLFunc, g: PLFunc) -> bool:
    """f <= g everywhere; the union breakpoint grid decides it exactly."""
    return all(a <= b for _, a, b in _walk(f, g))


def pointwise_sub(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc((x, a - b) for x, a, b in _walk(f, g))


def top_at(k, x) -> Fraction:
    """Upper boundary of the diamond of P_k at x (shortest path length k -> x)."""
    return abs(frac(x) - frac(k))


def bottom_at(k, x) -> Fraction:
    """Lower boundary of the diamond of P_k at x (sup of path lengths k -> x)."""
    return 1 - abs(1 - frac(k) - frac(x))


def top_curve(k) -> PLFunc:
    k = frac(k)
    return PLFunc(((ZERO, k), (k, ZERO), (ONE, 1 - k)))


def bottom_curve(k) -> PLFunc:
    k = frac(k)
    return PLFunc(((ZERO, k), (1 - k, ONE), (ONE, 1 - k)))


@dataclass(frozen=True)
class BFunc:
    """A 1-Lipschitz curve with f(0)=k and f(1)=1-k, 0 < k < 1.

    Such curves lie inside the diamond of P_k and classify its decorous
    submodules (and, dually, quotients).
    """

    k: Fraction
    f: PLFunc

    def __init__(self, k, f: PLFunc) -> None:
        k = frac(k)
        if not 0 < k < 1:
            raise DomainError(f"apex {k} outside (0,1)")
        if not is_lipschitz1(f):
            raise NotLipschitz("boundary curve must be 1-Lipschitz")
        if f.at(ZERO) != k or f.at(ONE) != 1 - k:
            raise DomainError("curve endpoints must be f(0)=k, f(1)=1-k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f", f)

    def at(self, x) -> Fraction:
        return self.f.at(x)


def to_bfunc(f: PLFunc) -> BFunc:
    """Canonical representative of f's vertical-shift class.

    The apex k = (1 + f(0) - f(1))/2 and the shift pins f'(0) = k,
    f'(1) = 1 - k; curves with f(1) = f(0) +- 1 admit no interior apex.
    """
    if not is_lipschitz1(f):
        raise NotLipschitz("only 1-Lipschitz curves determine a boundary class")
    y0, y1 = f.at(ZERO), f.at(ONE)
    if y1 == y0 + 1 or y1 == y0 - 1:
        raise DegenerateEndpoints("f(1) = f(0) +- 1 is excluded")
    k = (1 + y0 - y1) / 2
    return BFunc(k, vshift(f, k - y0))
