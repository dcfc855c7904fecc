"""Decorous sub/quotient modules of continuous projectives and permuton ideals.

A decorous submodule of the continuous projective P_k is its boundary curve,
a BFunc at apex k: the pathlike element of length l in column x belongs to
the submodule iff f(x) <= l < bottom(x), where bottom is the lower boundary
of the diamond.  The quotient by it keeps the lengths with top(x) <= l < f(x).
A permuton ideal is its GridPermuton mu; its summand inside P_a is
boundary_function(mu, a).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, gt, le, sub

from .errors import CertificateFailure, DomainError
from . import permuton, plfunc, symgroup
from .finite import CurveModule, DiamondCurve, Kind, _diamond, summand_via_word
from .permuton import GridPermuton, union_ticks
from .plfunc import BFunc, MonotoneClass, bottom_curve, pointwise_leq, pointwise_min, vshift
from .rat import frac
from .symgroup import Perm


def left_act(f: BFunc, p) -> BFunc:
    """Push the submodule bounded by f (inside P_q) into P_p by the leftward
    or rightward arrow of length |q - p|: shift the curve down by |q - p| and
    clamp to the diamond of P_p."""
    p = frac(p)
    q = f.k
    if not 0 < p < 1:
        raise DomainError(f"target apex {p} outside (0,1)")
    if p == q:
        raise DomainError("left action moves between distinct apexes")
    g = pointwise_min(bottom_curve(p), vshift(f.f, abs(q - p)))
    return BFunc(p, g)


def ideal_leq(mu: GridPermuton, nu: GridPermuton) -> bool:
    """Ideal inclusion I_mu <= I_nu, decided two ways and cross-checked:
    summand curves of mu dominate those of nu at every interior apex y of the
    union grid, equivalently cdf(mu) <= cdf(nu) everywhere.  Those apexes
    suffice: the curve gap at (x, y) is 2 (cdf(nu) - cdf(mu)), which for fixed
    x is linear in y between union rows (both CDFs are bilinear on union
    cells) and vanishes at y = 0 and y = 1.  Both routes are read off the
    permuton module at call time, as the other deciders read their rows."""
    big, ticks = union_ticks(mu.m, nu.m)
    by_curves = all(
        pointwise_leq(permuton.boundary_function(nu, y).f, permuton.boundary_function(mu, y).f)
        for y in (Fraction(k, big) for k in ticks)
    )
    by_cdf = permuton.permuton_bruhat_leq(nu, mu)
    if by_curves != by_cdf:
        raise CertificateFailure(
            "curve and CDF routes disagree on ideal inclusion"
        )
    return by_curves


def stripped_summand(rep: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The curve units at vertex i of the ideal stripped along the canonical
    word of the minimal coset rep with one-line notation rep; (I_w)^i
    depends on w only through rep = min_coset_line(w.one_line, i)."""
    word = symgroup.canonical_reduced_word_of_rep(Perm(rep), i)
    return summand_via_word(word, len(rep), i)


def bridge_mismatch(w: Perm, i: int, mu: GridPermuton | None = None,
                    stripped=stripped_summand) -> int | None:
    """The first column c where the ideal curve of w at vertex i and the
    boundary function of the permuton mu of w (from_perm(w) by default, on
    w's n-grid) at apex i/n differ at c/n, or None.  Both are linear between
    columns, so their samples decide: the stripped summand's units of 1/n,
    from stripped(min_coset_line(w.one_line, i), i), and boundary_row's over
    q^2 den n for i/n = p/q in lowest terms.  (ideal_of's closed form is the
    permuton formula itself, so the summand is stripped.)"""
    n = w.n
    if not 1 <= i <= n - 1:
        raise DomainError(f"vertex {i} outside 1..{n - 1}")
    mu = permuton.from_perm(w) if mu is None else mu
    if mu.m != n:
        raise DomainError(f"permuton on the 1/{mu.m} grid, not w's 1/{n} grid")
    discrete = stripped(symgroup.min_coset_line(w.one_line, i), i)
    g = gcd(i, n)
    p, q = i // g, n // g
    scale, row = q * q * mu.den, permuton.boundary_row(mu, p, q)
    scaled = [u * scale for u in discrete]  # the failing column only on a mismatch
    return None if scaled == row else next(c for c, u in enumerate(scaled) if u != row[c])


@lru_cache(maxsize=None)
def _bottoms(m: int, unit: int) -> tuple[tuple[int, ...], ...]:
    """The bottoms of the diamonds of P_1..P_{m-1} at the columns c/m, in units of unit."""
    return tuple(tuple(u * unit for u in _diamond(p, m)[1]) for p in range(1, m))


def twosided_witness(mu: GridPermuton) -> list | None:
    """The first grid apex pair [p, q], p != q, where f_p <= left_act(f_q, p)
    = min(bottom_p, f_q + |p - q|/m) fails, q None for bottom_p, or None:
    read on the rows at the columns c/m, between which all three are linear.
    That is f_p <= bottom_p for every p and |f_p - f_{p+1}| <= 1/m in every
    column: the pairs p, p + 1 are among the pairs, and they give every other
    pair by the triangle inequality, |f_p - f_q| <= |f_p - f_{p+1}| + ... +
    |f_{q-1} - f_q| <= |p - q|/m.  So two passes of O(m^2) decide it, and
    only a failing case looks for its witness, in the order of the
    statement: p, then bottom_p (q None), then q ascending.  The grid apexes
    decide every apex pair: on an off-diagonal cell of rows f_a - f_b - |a -
    b| is affine in a and in b, inside one row |f_a - f_b| <= |a - b| for
    every mu, and f_a is affine in a between rows while bottom_a is concave
    in a."""
    m, unit = mu.m, mu.m * mu.m * mu.den  # unit: 1/m over the rows' m^3 den
    rows = [permuton.boundary_row(mu, p, m) for p in range(1, m)]
    bottoms = _bottoms(m, unit)
    if (all(all(map(le, f, b)) for f, b in zip(rows, bottoms))
            and all(max(map(abs, map(sub, f, g))) <= unit for f, g in zip(rows, rows[1:]))):
        return None
    return next([p, q] for p, f_p in enumerate(rows, 1) for q in (None, *range(1, m))
                if q != p and any(map(gt, f_p, bottoms[p - 1] if q is None
                                      else map(add, rows[q - 1], repeat(abs(p - q) * unit)))))


def _rises(mu: GridPermuton, p: int, q: int, scale: int) -> list[int]:
    """scale times the rises of boundary_row(mu, p, q) from column to column."""
    row = permuton.boundary_row(mu, p, q)
    return [scale * (b - a) for a, b in zip(row, row[1:])]


def _difference_class(a: list[int], b: list[int]) -> MonotoneClass:
    """The class of f - g from the rises a of f and b of g on one scale: f - g
    is linear between the columns, so the signs of its rises there classify it."""
    return plfunc.rises_class(list(map(sub, a, b)))


_APEXES = 21  # uncertified_apexes samples the curves at the apexes t/21, 0 < t < 21


def uncertified_apexes(mu: GridPermuton) -> list[int] | None:
    """The first apex pair [s, t], s < t, among the t/21, whose difference
    f_s - f_t has no monotone certificate, or None.  Only s < t is
    classified: (s, s) is CONSTANT and (t, s) is NEITHER exactly when (s, t)
    is, so the first failing ordered pair has s < t."""
    steps = [_rises(mu, t, _APEXES, 1) for t in range(1, _APEXES)]
    classify, neither = _difference_class, MonotoneClass.NEITHER  # bound once: 190 pairs
    return next(([s, t] for s, a in enumerate(steps, 1) for t, b in enumerate(steps[s:], s + 1)
                 if classify(a, b) is neither), None)


def tau_rigidity_cert(mu: GridPermuton, a, b) -> MonotoneClass:
    """Certificate that Hom(D_mu^a, U_mu^b) = 0; always exists, increasing
    for a <= b and decreasing for a >= b.  The rows at a = p/q and b = r/s
    are over q^2 den m and s^2 den m, so their rises are scaled by s^2 and
    q^2: both curves are linear between the columns c/m."""
    a, b = frac(a), frac(b)
    if not (0 < a < 1 and 0 < b < 1):
        raise DomainError("apexes must lie in (0,1)")
    (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
    cert = _difference_class(_rises(mu, p, q, s * s), _rises(mu, r, s, q * q))
    if cert is MonotoneClass.NEITHER:
        raise CertificateFailure(f"no monotone certificate for apexes ({a},{b}); this contradicts "
                                 "the rigidity of permuton ideals and indicates a library bug")
    return cert


def staircase(b: BFunc, n: int) -> CurveModule:
    """Discretise with refinement: replace the boundary by the finest +-1
    staircase above it on the 1/n grid (largest lattice value <= f at each
    column, on the parity lattice of the diamond), f(j/n) n = -(a j + c n) / b
    read off the line a x + b y + c w = 0 of b.f's segment at j/n."""
    permuton._check_size(n)
    k = b.k
    if (k * n).denominator != 1:
        raise DomainError(f"apex {k} not on the 1/{n} grid")
    i, pts, s = int(k * n), b.f._pts, 1
    line, units = plfunc._line(pts[0], pts[1]), []
    for j in range(n + 1):
        while pts[s][0] * n < j * pts[s][2]:  # j/n lies past the segment's end
            line, s = plfunc._line(pts[s], pts[s + 1]), s + 1
        fl = -(line[0] * j + line[2] * n) // line[1]
        units.append(fl - (fl - i - j) % 2)
    return CurveModule(Kind.SUB, DiamondCurve(i, n, tuple(units)))
