"""Exact piecewise-linear functions on [0,1] and 1-Lipschitz boundary curves.

The boundary of every module studied here is a piecewise-linear function with
rational breakpoints, drawn with y increasing downwards.  ``PLFunc`` is the
universal carrier; ``BFunc`` is the 1-Lipschitz subclass pinned to the diamond
of the projective at apex k (value k at x=0 and 1-k at x=1).

A PLFunc stores each breakpoint (X/W, Y/W) as its own integer triple (X, Y, W),
W > 0, gcd 1; the algebra runs on these integers and values leave as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import DomainError
from .rat import frac, num_den

ZERO = Fraction(0)
ONE = Fraction(1)


class MonotoneClass(Enum):
    WEAKLY_INCREASING = "increasing"
    WEAKLY_DECREASING = "decreasing"
    CONSTANT = "constant"
    NEITHER = "neither"


_INCREASING, _DECREASING, _CONSTANT, _NEITHER = MonotoneClass  # in definition order


def _point(x: int, y: int, w: int) -> tuple[int, int, int]:
    g = gcd(x, y, w)  # w > 0
    return x // g, y // g, w // g


def _collinear(p0, p1, p2) -> bool:
    (x0, y0, w0), (x1, y1, w1), (x2, y2, w2) = p0, p1, p2
    return (x0 * (y1 * w2 - w1 * y2) + y0 * (w1 * x2 - x1 * w2)
            + w0 * (x1 * y2 - y1 * x2)) == 0


def _line(p0, p1) -> tuple[int, int, int]:
    """p0 x p1 = (a, b, c): the line a x + b y + c w = 0, b > 0 if x0 < x1."""
    (x0, y0, w0), (x1, y1, w1) = p0, p1
    return y0 * w1 - w0 * y1, w0 * x1 - x0 * w1, x0 * y1 - y0 * x1


def _merged(points: Iterable) -> tuple[tuple[int, int, int], ...]:
    """The points (x, y, w), w > 0, increasing in x, less collinear points,
    normalised."""
    out: list = []
    for pt in points:
        while len(out) >= 2 and _collinear(out[-2], out[-1], pt):
            out.pop()
        out.append(pt)
    return tuple(_point(*pt) for pt in out)


def _plfunc(pts: tuple[tuple[int, int, int], ...]) -> "PLFunc":
    """The function through normalised points, increasing in x, none collinear."""
    f = object.__new__(PLFunc)
    object.__setattr__(f, "_pts", pts)
    return f


@dataclass(frozen=True)
class PLFunc:
    """A piecewise-linear function on [0,1] with rational breakpoints.

    Breakpoint x-coordinates strictly increase from 0 to 1; collinear interior
    points are merged on construction so that pointwise-equal functions are
    structurally equal.
    """

    _pts: tuple[tuple[int, int, int], ...]

    def __init__(self, breakpoints: Iterable) -> None:
        pts = [(*num_den(x), *num_den(y)) for x, y in breakpoints]  # (p, q, r, s): p/q, r/s
        if len(pts) < 2:
            raise DomainError("need breakpoints at x=0 and x=1")
        if any(p0 * q1 >= p1 * q0 for (p0, q0, _, _), (p1, q1, _, _) in zip(pts, pts[1:])):
            raise DomainError("breakpoint x-coordinates must strictly increase")
        if pts[0][0] != 0 or pts[-1][:2] != (1, 1):
            raise DomainError("domain must be exactly [0,1]")
        object.__setattr__(self, "_pts", _merged((p * s, r * q, q * s) for p, q, r, s in pts))

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in self._pts)

    @classmethod
    def from_lattice(cls, n: int, numerators: Sequence[int], den: int) -> "PLFunc":
        """Function through (j/n, numerators[j]/den) for j = 0..n, n, den > 0;
        the kept samples, where the second difference is nonzero, are exactly
        its breakpoints."""
        v = numerators
        kept = [0, *(j for j in range(1, n) if v[j - 1] + v[j + 1] != 2 * v[j]), n]
        return _plfunc(tuple(_point(j * den, v[j] * n, n * den) for j in kept))

    @classmethod
    def constant(cls, c) -> "PLFunc":
        c = frac(c)
        return cls(((ZERO, c), (ONE, c)))

    def at(self, x) -> Fraction:
        """Exact value at x in [0,1]."""
        x = frac(x)
        if x < 0 or x > 1:
            raise DomainError(f"{x} outside [0,1]")
        p, q = x.numerator, x.denominator
        pts = self._pts
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] * q <= p * pts[mid][2]:
                lo = mid
            else:
                hi = mid
        a, b, c = _line(pts[lo], pts[hi])
        return Fraction(-(a * p + c * q), b * q)

    def on(self, lo, hi) -> list[tuple[Fraction, Fraction]]:
        """The points of f restricted to [lo, hi]: both ends and every
        breakpoint strictly between."""
        inner = [(x, y) for x, y in self.breakpoints if lo < x < hi]
        return [(lo, self.at(lo)), *inner, (hi, self.at(hi))]


def _steps(f: PLFunc) -> list[tuple[int, int]]:
    """(rise, run) of every segment, scaled by w0 w1: slope rise/run, run > 0."""
    pts = f._pts
    return [(y1 * w0 - y0 * w1, x1 * w0 - x0 * w1)
            for (x0, y0, w0), (x1, y1, w1) in zip(pts, pts[1:])]


def is_lipschitz1(f: PLFunc) -> bool:
    """True iff every segment slope lies in [-1, 1]."""
    return all(-run <= rise <= run for rise, run in _steps(f))


def rises_class(rises: Sequence[int]) -> MonotoneClass:
    """Classify by the least and the greatest rise over consecutive linear pieces."""
    if not rises:
        return _CONSTANT
    lo, hi = min(rises), max(rises)
    if lo >= 0:
        return _INCREASING if hi > 0 else _CONSTANT
    return _NEITHER if hi > 0 else _DECREASING


def vshift(f: PLFunc, a) -> PLFunc:
    """f + a pointwise."""
    a = frac(a)
    p, q = a.numerator, a.denominator
    return _plfunc(_merged((x * q, y * q + p * w, w * q) for x, y, w in f._pts))


def _walk(f: PLFunc, g: PLFunc) -> Iterable[tuple[int, int, int, int]]:
    """(x, f(x), g(x)) as (X, A, B, W), W > 0, at every breakpoint of f or g,
    increasing, read in one forward pass over both breakpoint lists."""
    p, q = f._pts, g._pts
    i = j = 0
    while i < len(p):
        (x, y, w), (u, v, t) = p[i], q[j]
        s, r = x * t, u * w
        if s < r:
            a, b, c = _line(q[j - 1], q[j])
            yield b * x, b * y, -(a * x + c * w), b * w
        elif r < s:
            a, b, c = _line(p[i - 1], p[i])
            yield b * u, -(a * u + c * t), b * v, b * t
        else:
            yield s, y * t, v * w, w * t
        i += s <= r
        j += r <= s


def _crossed(f: PLFunc, g: PLFunc) -> list[tuple[int, int, int, int]]:
    # f - g is linear between union breakpoints; insert its interior roots
    # so that min stays piecewise linear: where it goes from d0 to d1 of
    # the other sign, the root is |d1| p0 + |d0| p1, on both segments.
    pts = list(_walk(f, g))
    out = pts[:1]
    for p0, p1 in zip(pts, pts[1:]):
        d0, d1 = p0[1] - p0[2], p1[1] - p1[2]
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            out.append(tuple(abs(d1) * c0 + abs(d0) * c1 for c0, c1 in zip(p0, p1)))
        out.append(p1)
    return out


def pointwise_min(f: PLFunc, g: PLFunc) -> PLFunc:
    return _plfunc(_merged((x, min(a, b), w) for x, a, b, w in _crossed(f, g)))


def positive_intervals(f: PLFunc, g: PLFunc) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals where f > g, with exact rational endpoints.

    f - g is linear between the points of _crossed and its roots are among
    them, so it keeps one sign inside each gap: a gap is positive when one of
    its ends is, and a zero at a shared point ends one interval there."""
    out: list[tuple[Fraction, Fraction]] = []
    lo = None
    pts = _crossed(f, g)
    for (x0, a0, b0, w0), (x1, a1, b1, w1) in zip(pts, pts[1:]):
        if lo is None and (a0 > b0 or a1 > b1):
            lo = Fraction(x0, w0)
        if lo is not None and (a1 <= b1 or x1 == w1):  # x1 == w1 at x = 1
            out.append((lo, Fraction(x1, w1)))
            lo = None
    return out


def pointwise_leq(f: PLFunc, g: PLFunc) -> bool:
    """f <= g everywhere; the union breakpoint grid decides it exactly."""
    return all(a <= b for _, a, b, _ in _walk(f, g))


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
        p, q = k.numerator, k.denominator
        if not 0 < p < q:
            raise DomainError(f"apex {k} outside (0,1)")
        if not is_lipschitz1(f):
            raise DomainError("boundary curve must be 1-Lipschitz")
        (_, y0, w0), (_, y1, w1) = f._pts[0], f._pts[-1]
        if y0 * q != p * w0 or y1 * q != (q - p) * w1:
            raise DomainError("curve endpoints must be f(0)=k, f(1)=1-k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f", f)


def to_bfunc(f: PLFunc) -> BFunc:
    """Canonical representative of f's vertical-shift class.

    The apex k = (1 + f(0) - f(1))/2 and the shift pins f'(0) = k,
    f'(1) = 1 - k; curves with f(1) = f(0) +- 1 admit no interior apex.
    """
    if not is_lipschitz1(f):
        raise DomainError("only 1-Lipschitz curves determine a boundary class")
    y0, y1 = f.at(ZERO), f.at(ONE)
    if y1 == y0 + 1 or y1 == y0 - 1:
        raise DomainError("f(1) = f(0) +- 1 is excluded")
    k = (1 + y0 - y1) / 2
    return BFunc(k, vshift(f, k - y0))
