"""Decorous sub/quotient modules of continuous projectives and permuton ideals.

A decorous submodule of the continuous projective P_k is determined by a
boundary curve in the class of P_k (a BFunc at apex k): the pathlike element
of length l in column x belongs to the submodule iff f(x) <= l < bottom(x),
where bottom is the lower boundary of the diamond.  The quotient by it keeps
the lengths with top(x) <= l < f(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import CertificateFailure, DomainError, NotGridAligned, SizeMismatch
from . import symgroup
from .finite import CurveModule, DiamondCurve, Kind, summand_via_word
from .permuton import (GridPermuton, boundary_function, boundary_row, from_perm,
                       permuton_bruhat_leq, union_ticks)
from .plfunc import (
    BFunc,
    MonotoneClass,
    bottom_curve,
    monotone_class,
    pointwise_leq,
    pointwise_min,
    pointwise_sub,
    vshift,
)
from .rat import frac
from .symgroup import Perm


@dataclass(frozen=True)
class DecorousSub:
    """Decorous submodule of P_k, boundary from above (deeper lengths kept)."""

    b: BFunc


def d_sub(f: BFunc) -> DecorousSub:
    return DecorousSub(f)


@dataclass(frozen=True)
class PermutonIdeal:
    """The two-sided ideal of a permuton; summands materialised per query."""

    mu: GridPermuton


def ideal_summand(ideal: PermutonIdeal, a) -> DecorousSub:
    """The summand of the ideal inside P_a."""
    a = frac(a)
    if not 0 < a < 1:
        raise DomainError(f"apex {a} outside (0,1)")
    return d_sub(boundary_function(ideal.mu, a))


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


def ideal_leq(a: PermutonIdeal, b: PermutonIdeal) -> bool:
    """Ideal inclusion I_mu <= I_nu, decided two ways and cross-checked:
    summand curves of mu dominate those of nu at every interior apex y of the
    union grid, equivalently cdf(mu) <= cdf(nu) everywhere.  Those apexes
    suffice: the curve gap at (x, y) is 2 (cdf(nu) - cdf(mu)), which for fixed
    x is linear in y between union rows (both CDFs are bilinear on union
    cells) and vanishes at y = 0 and y = 1."""
    mu, nu = a.mu, b.mu
    big, ticks = union_ticks(mu.m, nu.m)
    by_curves = all(
        pointwise_leq(boundary_function(nu, y).f, boundary_function(mu, y).f)
        for y in (Fraction(k, big) for k in ticks)
    )
    by_cdf = permuton_bruhat_leq(nu, mu)
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
    mu = from_perm(w) if mu is None else mu
    if mu.m != n:
        raise SizeMismatch(f"permuton on the 1/{mu.m} grid, not w's 1/{n} grid")
    discrete = stripped(symgroup.min_coset_line(w.one_line, i), i)
    g = gcd(i, n)
    p, q = i // g, n // g
    scale = q * q * mu.den
    return next((c for c, (u, v) in enumerate(zip(discrete, boundary_row(mu, p, q)))
                 if u * scale != v), None)


def finite_vs_continuous(w: Perm, i: int, mu: GridPermuton | None = None,
                         stripped=stripped_summand) -> bool:
    """Does bridge_mismatch find no column: the two curves agree?"""
    return bridge_mismatch(w, i, mu, stripped) is None


class Certificate(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NO_CERTIFICATE = "none"


_CLASS_TO_CERT = {
    MonotoneClass.WEAKLY_INCREASING: Certificate.INCREASING,
    MonotoneClass.WEAKLY_DECREASING: Certificate.DECREASING,
    MonotoneClass.CONSTANT: Certificate.CONSTANT,
    MonotoneClass.NEITHER: Certificate.NO_CERTIFICATE,
}


def hom_vanishing_cert(f: BFunc, g: BFunc) -> Certificate:
    """Monotonicity certificate for Hom(D_f, U_g) = 0: a weakly monotone
    difference f - g forces vanishing.  NO_CERTIFICATE only means the
    criterion does not apply."""
    return _CLASS_TO_CERT[monotone_class(pointwise_sub(f.f, g.f))]


def tau_rigidity_cert(mu: GridPermuton, a, b) -> Certificate:
    """Certificate that Hom(D_mu^a, U_mu^b) = 0; always exists, increasing
    for a <= b and decreasing for a >= b."""
    a, b = frac(a), frac(b)
    if not (0 < a < 1 and 0 < b < 1):
        raise DomainError("apexes must lie in (0,1)")
    cert = hom_vanishing_cert(boundary_function(mu, a), boundary_function(mu, b))
    if cert is Certificate.NO_CERTIFICATE:
        raise CertificateFailure(
            f"no monotone certificate for apexes ({a},{b}); this contradicts "
            "the rigidity of permuton ideals and indicates a library bug"
        )
    return cert


def staircase(d: DecorousSub, n: int) -> CurveModule:
    """Discretise with refinement: replace the boundary by the finest +-1
    staircase above it on the 1/n grid (largest lattice value <= f at each
    column, on the parity lattice of the diamond)."""
    n = int(n)
    k = d.b.k
    if (k * n).denominator != 1:
        raise NotGridAligned(f"apex {k} not on the 1/{n} grid")
    i = int(k * n)
    units = []
    for j in range(n + 1):
        t = d.b.f.at(Fraction(j, n)) * n
        fl = t.numerator // t.denominator
        if (fl - i - j) % 2:
            fl -= 1
        units.append(fl)
    return CurveModule(Kind.SUB, DiamondCurve(i, n, tuple(units)))
