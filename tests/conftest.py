"""Shared independent oracles and generators for the test suite."""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, ge, le
from typing import Iterable

from preproj import permuton, plfunc, symgroup
from preproj.continuous import left_act, staircase
from preproj.errors import DomainError, ParseError
from preproj.finite import (CurveModule, DiamondCurve, HomLanes, Kind, _diamond, band, factors,
                            ideal_of, ideal_via_word, strip_curves, tau_sub)
from preproj.jsonio import bfunc_to_json, curve_module_to_json
from preproj.lanes import Lanes
from preproj.linalg import rank_of_links
from preproj.permuton import (GridPermuton, _cdf_ints, _union_coords, boundary_function,
                              permuton_bruhat_leq, union_ticks, uniform)
from preproj.plfunc import (BFunc, MonotoneClass, PLFunc, _merged, _plfunc, _walk, bottom_curve,
                            pointwise_leq, to_bfunc, top_curve, vshift)
from preproj.rat import frac, num_den, rat_str, ratio_str
from preproj.sheets import SawtoothDesc, Sheet, SimpleModule, _leq_on, b_interval
from preproj.symgroup import (Perm, all_perms, all_reduced_words,
                              canonical_reduced_word_of_rep, min_coset_line)


def as_plfunc(curve: DiamondCurve) -> PLFunc:
    """The curve as a PL function (formerly ``DiamondCurve.as_plfunc``)."""
    return PLFunc.from_lattice(curve.n, curve.units, curve.n)


def bottom_boundary(i: int, n: int) -> DiamondCurve:
    """The bottom boundary of P_i's diamond, the curve of its zero
    submodule (formerly ``finite.bottom_boundary``)."""
    return DiamondCurve(i, n, _diamond(i, n)[1])


def random_curve(i: int, n: int, rng: random.Random) -> DiamondCurve:
    """A randomly wandering +-1 lattice path inside the diamond of P_i."""
    units = [i]
    for j in range(1, n + 1):
        top, bottom = abs(j - i), n - abs(n - i - j)
        units.append(
            rng.choice([u for u in (units[-1] + 1, units[-1] - 1) if top <= u <= bottom])
        )
    return DiamondCurve(i, n, tuple(units))


# The QuiverRep solver (formerly in preproj.finite): modules in a basis that
# every arrow maps to basis vectors or zero, and dim Hom by union-find.  The
# library counts Hom and deepness on bands; this is the oracle they are held to.


BasisMap = tuple[int, ...]


@dataclass(frozen=True)
class QuiverRep:
    """A module over the preprojective algebra, given in a basis that every
    arrow sends to basis vectors or to zero, injectively.

    alpha[e] : V_{e+1} -> V_{e+2} and alpha_star[e] : V_{e+2} -> V_{e+1}
    (vertices 1-indexed, e = 0..n-3) are basis maps: entry c is the index of
    the image of basis vector c, or -1 when it goes to zero.  The preprojective
    relation alpha*_j alpha_j = alpha_{j-1} alpha*_{j-1} must hold at every
    vertex.  Curve modules, simples and sawtooth modules all have such a basis.
    """

    n: int
    dims: tuple[int, ...]
    alpha: tuple[BasisMap, ...]
    alpha_star: tuple[BasisMap, ...]

    def __init__(self, n, dims, alpha, alpha_star) -> None:
        n = int(n)
        dims = tuple(int(d) for d in dims)
        if n < 2 or len(dims) != n - 1:
            raise DomainError(f"expected {n - 1} vertex dimensions")
        alpha = tuple(tuple(f) for f in alpha)
        alpha_star = tuple(tuple(f) for f in alpha_star)
        if len(alpha) != n - 2 or len(alpha_star) != n - 2:
            raise DomainError(f"expected {n - 2} arrow maps each way")
        for e in range(n - 2):
            _check_map(alpha[e], dims[e], dims[e + 1])
            _check_map(alpha_star[e], dims[e + 1], dims[e])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_star", alpha_star)
        for j in range(n - 1):
            if _right_loop(self, j) != _left_loop(self, j):
                raise DomainError(f"preprojective relation fails at vertex {j + 1}")


def _check_map(f: BasisMap, source: int, target: int) -> None:
    if len(f) != source:
        raise DomainError(f"arrow map must have {source} entries, got {len(f)}")
    hits = [t for t in f if t != -1]
    if not all(type(t) is int and 0 <= t < target for t in hits):
        raise DomainError(f"arrow map entries must lie in -1..{target - 1}")
    if len(set(hits)) != len(hits):
        raise DomainError("arrow map sends two basis vectors to one")


def _compose(g: BasisMap, f: BasisMap) -> BasisMap:
    """The basis map g after f."""
    return tuple(-1 if t == -1 else g[t] for t in f)


def _right_loop(rep: QuiverRep, j: int) -> BasisMap:
    """alpha*_j alpha_j on V_{j+1} (0-indexed j; zero past the right end)."""
    if j >= rep.n - 2:
        return (-1,) * rep.dims[j]
    return _compose(rep.alpha_star[j], rep.alpha[j])


def _left_loop(rep: QuiverRep, j: int) -> BasisMap:
    """alpha_{j-1} alpha*_{j-1} on V_{j+1} (0-indexed j; zero at the left end)."""
    if j == 0:
        return (-1,) * rep.dims[j]
    return _compose(rep.alpha[j - 1], rep.alpha_star[j - 1])


def loop_action(rep: QuiverRep, j: int) -> BasisMap:
    """The length-two loop at 1-indexed vertex j acting on V_j, as a basis map.

    Both length-two loops at a vertex agree by the preprojective relation.
    """
    if not 1 <= j <= rep.n - 1:
        raise DomainError(f"vertex {j} outside 1..{rep.n - 1}")
    return _right_loop(rep, j - 1)


def factor_rep(n: int, positions: Iterable[tuple[int, int]]) -> QuiverRep:
    """The representation with one basis vector per lattice factor (j, d),
    ordered by depth within each column: alpha sends (j, d) to (j+1, d+1)
    and alpha* sends (j+1, d) to (j, d+1) when that factor is present, and
    to zero otherwise."""
    cols: dict[int, list[int]] = {j: [] for j in range(1, n)}
    for j, d in sorted(positions):
        if j not in cols:
            raise DomainError(f"vertex {j} outside 1..{n - 1}")
        cols[j].append(d)
    index = {(j, d): t for j in range(1, n) for t, d in enumerate(cols[j])}
    dims = tuple(len(cols[j]) for j in range(1, n))
    alpha = tuple(
        tuple(index.get((j + 1, d + 1), -1) for d in cols[j]) for j in range(1, n - 1)
    )
    alpha_star = tuple(
        tuple(index.get((j, d + 1), -1) for d in cols[j + 1]) for j in range(1, n - 1)
    )
    return QuiverRep(n, dims, alpha, alpha_star)


def to_rep(m: CurveModule) -> QuiverRep:
    """The factor basis of a curve module."""
    return factor_rep(m.n, factors(m))


def hom_dim(a: QuiverRep, b: QuiverRep) -> int:
    """dim Hom(a, b): the solution space of the interchange conditions
    phi_k a(f) = b(f) phi_j for every arrow f : j -> k, exact over the rationals.

    The unknowns are the entries phi_j[r][c] (r over b's basis at j, c over
    a's).  In basis maps the (r, c) entry of an interchange condition reads
    phi_k[r][a(f)(c)] = phi_j[b(f)^-1(r)][c], where a side is 0 when the basis
    vector goes to zero or r has no preimage; b(f) is injective, so there is
    at most one preimage.  Each condition is therefore x = y, x = 0 or y = 0:
    the rows are those of a signed incidence matrix of a graph on the unknowns
    plus one zero node, with the zero node's column dropped.  Such rows have
    rank over any field equal to the number of edges of a spanning forest
    (``linalg.rank_of_links``), so dim Hom is the number of classes of
    unknowns that are not joined to zero.
    """
    if a.n != b.n:
        raise DomainError(f"ranks {a.n} and {b.n} differ")
    offsets = []
    total = 0
    for p, q in zip(b.dims, a.dims):
        offsets.append(total)
        total += p * q
    links: list[tuple[int, int]] = []
    for e in range(a.n - 2):
        arrows = ((e, e + 1, a.alpha[e], b.alpha[e]),
                  (e + 1, e, a.alpha_star[e], b.alpha_star[e]))
        for j, k, fa, fb in arrows:
            preimage = [-1] * b.dims[k]
            for t, r in enumerate(fb):
                if r != -1:
                    preimage[r] = t
            for r, t in enumerate(preimage):
                # phi_k[r][s] is unknown row_k + s, phi_j[t][c] is row_j + c;
                # -1 is the zero
                row_k, row_j = offsets[k] + r * a.dims[k], offsets[j] + t * a.dims[j]
                for c, s in enumerate(fa):
                    if s != -1 or t != -1:
                        links.append((-1 if s == -1 else row_k + s,
                                      -1 if t == -1 else row_j + c))
    return total - rank_of_links(total, links)


def rep_is_deep(rep: QuiverRep) -> bool:
    """Does some length-two loop act nonzero on rep?  (formerly the QuiverRep
    branch of ``sheets.is_deep``)"""
    return any(t != -1 for j in range(1, rep.n - 1) for t in loop_action(rep, j))


def top_at(k, x) -> Fraction:
    """Upper boundary of the diamond of P_k at x (shortest path length k -> x)."""
    return abs(frac(x) - frac(k))


def bottom_at(k, x) -> Fraction:
    """Lower boundary of the diamond of P_k at x (sup of path lengths k -> x)."""
    return 1 - abs(1 - frac(k) - frac(x))


def sawtooth_rep(st: SawtoothDesc, n: int) -> QuiverRep:
    """The thin representation of a grid-aligned sawtooth: one factor per
    interior grid column of [a, b], at the depth the teeth reach from the
    first tooth in +-1 steps, so alpha acts on rising segments and alpha* on
    falling ones."""
    n = int(n)
    cols = []
    for x, _ in st.teeth:
        if n % x.denominator:
            raise DomainError(f"tooth at {x} off the 1/{n} grid")
        cols.append(x.numerator * (n // x.denominator))
    depths = [0]  # depths[k] at column cols[0] + k
    for c0, c1, (_, v0), (_, v1) in zip(cols, cols[1:], st.teeth, st.teeth[1:]):
        step = 1 if v1 > v0 else -1
        depths += [depths[-1] + step * t for t in range(1, c1 - c0 + 1)]
    lo, hi = cols[0], cols[-1]
    first = lo if st.endpoint_flags[0] else lo + 1
    last = hi if st.endpoint_flags[1] else hi - 1
    return factor_rep(
        n, [(j, depths[j - lo]) for j in range(max(first, 1), min(last, n - 1) + 1)]
    )


def sawtooth_rep_by_midpoints(st: SawtoothDesc, n: int) -> QuiverRep:
    """The thin representation of a grid-aligned sawtooth, built arrow by
    arrow: the slope of each grid segment is read at its rational midpoint
    (the library's former route)."""
    n = int(n)
    for x, _ in st.teeth:
        if (x * n).denominator != 1:
            raise DomainError(f"tooth at {x} off the 1/{n} grid")
    lo, hi = int(st.a * n), int(st.b * n)
    cols = [j for j in range(max(lo, 1), min(hi, n - 1) + 1)]
    if not st.endpoint_flags[0] and lo >= 1 and lo in cols:
        cols.remove(lo)
    if not st.endpoint_flags[1] and hi <= n - 1 and hi in cols:
        cols.remove(hi)
    support = set(cols)
    dims = tuple(1 if j in support else 0 for j in range(1, n))

    def slope_on(j: int) -> Fraction:
        # slope of the sawtooth on (j/n, (j+1)/n)
        mid = Fraction(2 * j + 1, 2 * n)
        for (x0, v0), (x1, v1) in zip(st.teeth, st.teeth[1:]):
            if x0 <= mid <= x1:
                return (v1 - v0) / (x1 - x0)
        raise DomainError(f"column {j} outside the sawtooth domain")

    alpha = []
    alpha_star = []
    for e in range(n - 2):
        j = e + 1
        linked = j in support and j + 1 in support
        rising = linked and slope_on(j) == 1
        alpha.append((0,) if rising else (-1,) * dims[e])
        alpha_star.append((0,) if linked and not rising else (-1,) * dims[e + 1])
    return QuiverRep(n, dims, alpha, alpha_star)


# The word layer as it was before it moved onto one-line lists (formerly in
# preproj.symgroup): every word spelled into a validated Perm, its length
# counted over all pairs, the canonical word read off the inverse.  The
# library's list-based layer is held to these.  length and min_coset_rep
# are the Perm forms of symgroup's one-line functions, which only tests read
# (formerly in preproj.symgroup).


def identity(n: int) -> Perm:
    """The identity permutation of 1..n (formerly ``Perm.identity``)."""
    return Perm(range(1, n + 1))


def inverse(w: Perm) -> Perm:
    """The inverse permutation (formerly ``Perm.inverse``)."""
    inv = [0] * w.n
    for i, v in enumerate(w.one_line, start=1):
        inv[v - 1] = i
    return Perm(inv)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions."""
    return symgroup._inversions(w.one_line)


def min_coset_rep(w: Perm, i: int) -> Perm:
    """Minimal-length representative of the coset of w w.r.t. the subgroup
    generated by all adjacent transpositions except s_i (min_coset_line)."""
    if not 1 <= i <= w.n - 1:
        raise DomainError(f"vertex {i} outside 1..{w.n - 1}")
    return Perm(min_coset_line(w.one_line, i))


def length_by_pairs(w: Perm) -> int:
    """Coxeter length = number of inversions, every pair compared."""
    ol = w.one_line
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if ol[i] > ol[j])


def apply_word_by_perm(word: Iterable[int], n: int) -> Perm:
    """Product of adjacent transpositions, leftmost letter applied last."""
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise DomainError(f"letter {letter} outside 1..{n - 1}")
    ol = list(range(1, n + 1))
    for j in word:
        ol[j - 1], ol[j] = ol[j], ol[j - 1]
    return Perm(ol)


def is_reduced_by_perm(word: Iterable[int], n: int) -> bool:
    word = tuple(word)
    return length_by_pairs(apply_word_by_perm(word, n)) == len(word)


def canonical_word_by_inverse(u: Perm, i: int) -> tuple[int, ...]:
    """The block reduced word (s_i..s_{u^{-1}(i)-1})...(s_1..s_{u^{-1}(1)-1})
    of a minimal coset representative u."""
    if min_coset_rep(u, i) != u:
        raise DomainError(f"{u} is not minimal in its coset for vertex {i}")
    inv = inverse(u)
    word: list[int] = []
    for t in range(i, 0, -1):
        word.extend(range(t, inv(t)))
    result = tuple(word)
    assert is_reduced_by_perm(result, u.n) and apply_word_by_perm(result, u.n) == u
    return result


def reduced_word(n: int, picks: list[int]) -> tuple[int, ...]:
    """A reduced word at rank n: each letter swaps an ascent of the word's
    permutation so far, so the length rises with every letter."""
    one_line, word = list(range(1, n + 1)), []
    for pick in picks:
        ascents = [s for s in range(1, n) if one_line[s - 1] < one_line[s]]
        if not ascents:
            break
        s = ascents[pick % len(ascents)]
        one_line[s - 1], one_line[s] = one_line[s], one_line[s - 1]
        word.append(s)
    return tuple(word)


def bruhat_below(v: Perm, rng, steps: int) -> Perm:
    """A permutation at or below v in Bruhat order: up to steps times, swap
    two values that stand in decreasing order (an inversion), which makes it
    shorter."""
    ol = list(v.one_line)
    for _ in range(steps):
        inversions = [(p, q) for p in range(len(ol)) for q in range(p + 1, len(ol))
                      if ol[p] > ol[q]]
        if not inversions:
            break
        p, q = rng.choice(inversions)
        ol[p], ol[q] = ol[q], ol[p]
    return Perm(ol)


def bruhat_by_covers(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], bool]:
    """Bruhat order computed independently: transitive closure of the cover
    relation v = u * t (t any transposition) with length(v) = length(u) + 1."""
    perms = list(all_perms(n))
    index = {w.one_line: t for t, w in enumerate(perms)}
    above = [set() for _ in perms]
    for t, u in enumerate(perms):
        lu = length(u)
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                ol = list(u.one_line)
                ol[p - 1], ol[q - 1] = ol[q - 1], ol[p - 1]
                v = Perm(ol)
                if length(v) == lu + 1:
                    above[t].add(index[v.one_line])
    # transitive closure by length-ordered propagation
    order = sorted(range(len(perms)), key=lambda t: length(perms[t]), reverse=True)
    for t in order:
        closure = set(above[t])
        for s in list(above[t]):
            closure |= above[s]
        above[t] = closure
    table = {}
    for t, u in enumerate(perms):
        for s, v in enumerate(perms):
            table[(u.one_line, v.one_line)] = (t == s) or (s in above[t])
    return table


def bruhat_by_subwords(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], bool]:
    """Bruhat order by the subword property (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, Thm 2.2.2): u <= v exactly when u is the product of a
    subword of one reduced word of v, here the least of all_reduced_words(v).
    A subword that is not reduced reduces, by the deletion property, to a
    reduced subword of the same product, so every subword counts; the
    products are grown letter by letter, each extended on the right."""
    perms = list(all_perms(n))
    table = {}
    for v in perms:
        below = {tuple(range(1, n + 1))}
        for s in min(all_reduced_words(v)):
            below |= {x[:s - 1] + (x[s], x[s - 1]) + x[s + 1:] for x in below}
        assert v.one_line in below
        table.update(((u.one_line, v.one_line), u.one_line in below) for u in perms)
    return table


def mizuno_by_words(w: Perm) -> dict:
    """The mizuno record of w from the list of its reduced words, each one
    stripped and held to ideal_of(w) (the check's former route)."""
    words = all_reduced_words(w)
    reference = ideal_of(w)
    ok = all(ideal_via_word(word, w.n) == reference for word in words)
    return {"case": str(w), "ok": ok, "words": len(words)}


def mass(mu: GridPermuton) -> tuple[tuple[Fraction, ...], ...]:
    """The cell masses as Fractions, ``cells`` over ``den`` (formerly
    ``GridPermuton.mass``)."""
    return tuple(tuple(Fraction(v, mu.den) for v in row) for row in mu.cells)


def cdf(mu: GridPermuton, a, b) -> Fraction:
    """Measure of [0,a] x [0,b], bilinear within each cell, read off the
    library's integer table (formerly ``permuton.cdf``)."""
    a, b = frac(a), frac(b)
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise DomainError(f"({a},{b}) outside the unit square")
    s = lcm(a.denominator, b.denominator)
    y, x = (divmod(t.numerator * (s // t.denominator) * mu.m, s) for t in (b, a))
    return Fraction(next(permuton._cdf_ints(mu, [y], [x], s))[0], s * s * mu.den)


def fraction_cum(mu: GridPermuton) -> list[list[Fraction]]:
    """cum[r][c] = mu([0,c/m] x [0,r/m]) as Fractions, by running sums of the
    masses (the library's former table)."""
    cum = [[Fraction(0)] * (mu.m + 1)]
    for row in mass(mu):
        run = itertools.accumulate(row, initial=Fraction(0))
        cum.append([a + b for a, b in zip(cum[-1], run)])
    return cum


def cdf_grid_by_fractions(mu: GridPermuton, ys, xs) -> list[list[Fraction]]:
    """cdf at every (x, y) of xs x ys, one row per y, from ``fraction_cum``;
    each coordinate t comes as (i, f) = divmod(t * m, 1) (the library's former
    interpolating reader)."""
    cum = fraction_cum(mu)
    out = []
    for i, f in ys:
        row = cum[i]
        if f:
            row = [a + f * (b - a) for a, b in zip(row, cum[i + 1])]
        out.append([row[j] + g * (row[j + 1] - row[j]) if g else row[j]
                    for j, g in xs])
    return out


def boundary_points_by_fractions(mu: GridPermuton, y: Fraction) -> list:
    """The merged breakpoints of the boundary curve at apex y, its samples
    -2 cdf(c/m, y) + y + c/m read in Fractions (the library's former route)."""
    m = mu.m
    row = cdf_grid_by_fractions(mu, [divmod(y * m, 1)],
                                [(c, Fraction(0)) for c in range(m + 1)])[0]
    return merge_by_fractions(
        (Fraction(c, m), -2 * v + y + Fraction(c, m)) for c, v in enumerate(row))


def twosided_by_plfuncs(mu: GridPermuton) -> bool:
    """The twosided verdict by PLFunc algebra (the check's former route):
    f_p <= left_act(f_q, p) pointwise for all grid apexes p != q."""
    curves = [boundary_function(mu, Fraction(r, mu.m)) for r in range(1, mu.m)]
    return all(
        pointwise_leq(f_p.f, left_act(f_q, f_p.k).f)
        for f_q in curves for f_p in curves if f_p is not f_q
    )


def twosided_pair_by_plfuncs(mu: GridPermuton) -> list | None:
    """The first failing twosided pair [p, q] by PLFunc algebra, apexes p/m
    in order: q is None where f_p leaves the diamond of P_p, else the first
    q with f_p above f_q + |p - q|/m somewhere; None when every pair holds
    (left_act's min of the two bounds, one at a time)."""
    m = mu.m
    curves = {r: boundary_function(mu, Fraction(r, m)).f for r in range(1, m)}
    for p, f_p in curves.items():
        if not pointwise_leq(f_p, bottom_curve(Fraction(p, m))):
            return [p, None]
        for q, f_q in curves.items():
            if q != p and not pointwise_leq(f_p, vshift(f_q, Fraction(abs(p - q), m))):
                return [p, q]
    return None


def monotone_class(f: PLFunc) -> MonotoneClass:
    """Classify by segment slopes; CONSTANT when the function is flat
    (formerly ``plfunc.monotone_class``).  It reads plfunc's classifier at
    call time, so a plant on ``plfunc.rises_class`` reaches it."""
    return plfunc.rises_class([rise for rise, _ in plfunc._steps(f)])


def pointwise_sub(f: PLFunc, g: PLFunc) -> PLFunc:
    """f - g, read at the union breakpoints in the library's one forward
    walk (formerly ``plfunc.pointwise_sub``)."""
    return _plfunc(_merged((x, a - b, w) for x, a, b, w in _walk(f, g)))


def hom_vanishing_cert(f: BFunc, g: BFunc) -> MonotoneClass:
    """Monotonicity certificate for Hom(D_f, U_g) = 0 by PL algebra on any
    two BFuncs: a weakly monotone difference f - g forces vanishing; NEITHER:
    the criterion does not apply.  (formerly ``continuous.hom_vanishing_cert``,
    the oracle of the row route)"""
    return monotone_class(pointwise_sub(f.f, g.f))


def homvanish_by_plfuncs(mu: GridPermuton) -> bool:
    """The homvanish verdict by PLFunc algebra (the check's former route):
    hom_vanishing_cert on every pair of curves at the apexes t/21, and for
    m <= 4 the solver on the staircase summands at n = 8."""
    curves = [boundary_function(mu, Fraction(t, 21)) for t in range(1, 21)]
    certs = {hom_vanishing_cert(f, g) for f in curves for g in curves}
    solver_ok = True
    if mu.m <= 4:
        summands = [staircase(boundary_function(mu, Fraction(r, mu.m)), 8)
                    for r in range(1, mu.m) if (Fraction(r, mu.m) * 8).denominator == 1]
        solver_ok = all(hom_dim(to_rep(a), to_rep(tau_sub(b))) == 0
                        for a in summands for b in summands)
    return MonotoneClass.NEITHER not in certs and solver_ok


def bruhat_leq_on_union_grid(mu: GridPermuton, nu: GridPermuton) -> bool:
    """The permuton Bruhat order read at the interior corners of the union
    grid through the Fraction CDF reader, whatever the two grid sizes (the
    library's former route for equal sizes too)."""
    big, ticks = union_ticks(mu.m, nu.m)
    at, at2 = ([divmod(Fraction(k, big) * p, 1) for k in ticks] for p in (mu.m, nu.m))
    a, b = cdf_grid_by_fractions(mu, at, at), cdf_grid_by_fractions(nu, at2, at2)
    return all(x >= y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def bruhat_leq_by_rows(mu: GridPermuton, nu: GridPermuton) -> bool:
    """The permuton Bruhat order on the same integer corners, one ``all`` per
    row pair, the rows first cross-multiplied to a common den as lists (the
    library's former comparison)."""
    m = mu.m
    if m == nu.m:
        a, b = mu.cum[1:m], nu.cum[1:m]
    else:
        big, (at, at2) = _union_coords(m, nu.m)
        a, b = _cdf_ints(mu, at, at, big), _cdf_ints(nu, at2, at2, big)
    if mu.den != nu.den:
        a, b = [[v * nu.den for v in r] for r in a], [[v * mu.den for v in r] for r in b]
    return all(all(map(ge, ra, rb)) for ra, rb in zip(a, b))


def count_cdf_oracle(w: Perm, a: Fraction, b: Fraction) -> Fraction:
    """cdf of the permuton of w at grid-aligned corners, by counting pairs."""
    n = w.n
    i = int(a * n)
    j = int(b * n)
    return Fraction(sum(1 for p in range(1, i + 1) if w(p) <= j), n)


def cell_sum_cdf(mu: GridPermuton, a: Fraction, b: Fraction) -> Fraction:
    """cdf of a grid permuton at any point, summing the covered share of
    every cell (the library's former per-point loop)."""

    def clamp(v: Fraction) -> Fraction:
        return min(max(v, Fraction(0)), Fraction(1))

    m, cells = mu.m, mass(mu)
    return sum(
        (cells[r][c] * clamp(a * m - c) * clamp(b * m - r)
         for r in range(m) for c in range(m)),
        Fraction(0),
    )


def mul(u: Perm, v: Perm) -> Perm:
    """Composite u after v: (u*v)(x) = u(v(x))."""
    return Perm(u.one_line[x - 1] for x in v.one_line)


def refine(mu: GridPermuton, factor: int) -> GridPermuton:
    """Split every cell into factor x factor uniform subcells; same measure."""
    if factor == 1:
        return mu
    m2, cells = mu.m * factor, mass(mu)
    scale = Fraction(1, factor * factor)
    return GridPermuton(
        m2, [[cells[r // factor][c // factor] * scale for c in range(m2)]
             for r in range(m2)])


def permuton_equal(mu: GridPermuton, nu: GridPermuton) -> bool:
    """Equality as measures, by antisymmetry of the permuton Bruhat order."""
    return permuton_bruhat_leq(mu, nu) and permuton_bruhat_leq(nu, mu)


def random_permuton(rng: random.Random, m: int, max_weight: int = 4) -> GridPermuton:
    """The uniform permuton on m x m cells one time in five; otherwise a
    random convex combination of one to three permutation matrices, with
    integer weights up to max_weight."""
    if rng.random() < 0.2:
        return uniform(m)
    weights = [rng.randint(1, max_weight) for _ in range(rng.randint(1, 3))]
    mass = [[Fraction(0)] * m for _ in range(m)]
    for weight in weights:
        rows = rng.sample(range(m), m)
        for c in range(m):
            mass[rows[c]][c] += Fraction(weight, sum(weights) * m)
    return GridPermuton(m, mass)


def rank_of_sparse_rows(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a matrix given as sparse rows {column: value}, by Gauss
    elimination over the rationals with the leftmost column as pivot."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for raw in rows:
        row = {c: v for c, v in raw.items() if v != 0}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / row[col]
                pivots[col] = {c: v * inv for c, v in row.items()}
                rank += 1
                break
            coef = row.pop(col)
            for c, v in pivot.items():
                if c == col:
                    continue
                nv = row.get(c, Fraction(0)) - coef * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rank


def basis_matrix(f: tuple[int, ...], rows: int) -> list[list[Fraction]]:
    """The dense rational matrix of a basis map into a space of dimension rows."""
    m = [[Fraction(0)] * len(f) for _ in range(rows)]
    for c, r in enumerate(f):
        if r != -1:
            m[r][c] = Fraction(1)
    return m


def hom_dim_by_elimination(a: QuiverRep, b: QuiverRep) -> int:
    """dim Hom(a, b) from the dense interchange conditions
    phi_k A = B phi_j of every arrow j -> k, one rational row per matrix
    entry, ranked by Gauss elimination."""
    offsets = [0]
    for p, q in zip(b.dims, a.dims):
        offsets.append(offsets[-1] + p * q)

    def var(j: int, r: int, c: int) -> int:
        return offsets[j] + r * a.dims[j] + c

    rows = []
    for e in range(a.n - 2):
        for j, k, fa, fb in ((e, e + 1, a.alpha[e], b.alpha[e]),
                             (e + 1, e, a.alpha_star[e], b.alpha_star[e])):
            ma = basis_matrix(fa, a.dims[k])
            mb = basis_matrix(fb, b.dims[k])
            for r in range(b.dims[k]):
                for c in range(a.dims[j]):
                    row: dict[int, Fraction] = {}
                    for s in range(a.dims[k]):
                        key = var(k, r, s)
                        row[key] = row.get(key, Fraction(0)) + ma[s][c]
                    for t in range(b.dims[j]):
                        key = var(j, t, c)
                        row[key] = row.get(key, Fraction(0)) - mb[r][t]
                    rows.append(row)
    return offsets[-1] - rank_of_sparse_rows(rows)


def _steps(lo: int, hi: int) -> int:
    """The e with lo < e < hi and e - lo odd, as the bits e of an int."""
    return ((1 << (hi - lo)) - 1) // 3 << (lo + 1) if hi > lo else 0


def curve_hom_dim_by_pair(a: CurveModule, b: CurveModule) -> int:
    """dim Hom(a, b) counted on the two curves, one pair per walk (the
    library's former curve_hom_dim): at offset e the unknowns of column j lie
    between max(up_a, up_b - e) and min(down_a, down_b - e); the runs of
    columns where that band is nonempty are the classes, and dim Hom counts
    those never joined to zero.  Each set of offsets is one interval per
    column, kept as the bits e + n of an int."""
    n = a.n
    ua, da = band(a)
    ub, db = ([u + n for u in units] for units in band(b))  # bit e + n for offset e
    dim = alive = before = 0  # alive: the runs through column j - 1 not yet joined to zero
    for j in range(1, n):
        here = dead = 0
        if ua[j] < da[j] and ub[j] < db[j]:
            here = _steps(ub[j] - da[j] + 1, db[j] - ua[j] - 1)
            for k in (j - 1, j + 1):
                if da[k] == da[j] - 1:
                    dead |= _steps(ub[k] - da[j], db[k] - da[j])
                if ub[k] == ub[j] + 1:
                    dead |= _steps(ub[j] - da[k], ub[j] - ua[k])
        dim += (alive & ~here).bit_count()
        alive = here & ~dead & (alive | ~before)
        before = here
    return dim + alive.bit_count()


def merge_by_fractions(points) -> list[tuple[Fraction, Fraction]]:
    """Fraction points with increasing x, less every interior point collinear
    with its neighbours (the library's former merge)."""
    out: list = []
    for pt in points:
        while len(out) >= 2:
            (x0, y0), (x1, y1), (x2, y2) = out[-2], out[-1], pt
            if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
                break
            out.pop()
        out.append(pt)
    return out


def walk_by_fractions(f: PLFunc, g: PLFunc) -> list:
    """(x, f(x), g(x)) at every breakpoint of f or g, interpolated in
    Fractions in one forward pass (the library's former walk)."""
    p, q = f.breakpoints, g.breakpoints
    out = []
    i = j = 0
    while i < len(p):
        (x, y), (u, v) = p[i], q[j]
        if x < u:
            u0, v0 = q[j - 1]
            out.append((x, y, v0 + (v - v0) * (x - u0) / (u - u0)))
        elif u < x:
            x0, y0 = p[i - 1]
            out.append((u, y0 + (y - y0) * (u - x0) / (x - x0), v))
        else:
            out.append((x, y, v))
        i += x <= u
        j += u <= x
    return out


def crossed_by_fractions(f: PLFunc, g: PLFunc) -> list:
    """``walk_by_fractions`` with the interior roots of f - g inserted (the
    library's former crossing code)."""
    pts = walk_by_fractions(f, g)
    out = pts[:1]
    for (x0, a0, b0), (x1, a1, b1) in zip(pts, pts[1:]):
        d0, d1 = a0 - b0, a1 - b1
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            t = d0 / (d0 - d1)
            y = a0 + (a1 - a0) * t
            out.append((x0 + (x1 - x0) * t, y, y))
        out.append((x1, a1, b1))
    return out


def min_by_fractions(f: PLFunc, g: PLFunc) -> list:
    return merge_by_fractions((x, min(a, b)) for x, a, b in crossed_by_fractions(f, g))


def sub_by_fractions(f: PLFunc, g: PLFunc) -> list:
    return merge_by_fractions((x, a - b) for x, a, b in walk_by_fractions(f, g))


def leq_by_fractions(f: PLFunc, g: PLFunc) -> bool:
    return all(a <= b for _, a, b in walk_by_fractions(f, g))


def at_by_fractions(f: PLFunc, x: Fraction) -> Fraction:
    """f(x) interpolated in Fractions between the breakpoints around x (the
    library's former ``at``)."""
    pts = f.breakpoints
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside [0,1]")


def slopes_by_fractions(f: PLFunc) -> list[Fraction]:
    pts = f.breakpoints
    return [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]


def rises_class_by_all(rises) -> MonotoneClass:
    """The class of the rises by two ``all``s over their signs (the library's
    former classifier)."""
    inc = all(r >= 0 for r in rises)
    dec = all(r <= 0 for r in rises)
    if inc and dec:
        return MonotoneClass.CONSTANT
    if inc:
        return MonotoneClass.WEAKLY_INCREASING
    if dec:
        return MonotoneClass.WEAKLY_DECREASING
    return MonotoneClass.NEITHER


PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, p))]


def mixed_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A rational k/q with lo <= k/q <= hi, q small, large (up to 40 digits)
    or a product of two of the primes below 400."""
    kind = rng.randrange(3)
    if kind == 0:
        q = rng.randint(1, 12)
    elif kind == 1:
        q = rng.randint(10**15, 10**40)
    else:
        q = rng.choice(PRIMES) * rng.choice(PRIMES)
    return Fraction(rng.randint(lo * q, hi * q), q)


def random_mixed_pair(rng: random.Random) -> tuple[PLFunc, PLFunc]:
    """Two PL functions on random breakpoints with mixed denominators.  On
    a shared set of points f - g is zero half the time and otherwise a small
    value of either sign, so zeros at breakpoints, tangent zeros, flat zero
    runs and roots off every grid all occur; each function then keeps a
    random part of the points, so the walk also interpolates."""
    inner = sorted({mixed_rational(rng, 0, 1) for _ in range(rng.randint(0, 12))}
                   - {0, 1})
    xs = [Fraction(0), *inner, Fraction(1)]
    g = [mixed_rational(rng, -1, 1) for _ in xs]
    f = [v if rng.random() < 0.5 else v + mixed_rational(rng, -1, 1) / 4 for v in g]

    def part(values):
        keep = [t for t in range(1, len(xs) - 1) if rng.random() < 0.7]
        return PLFunc((xs[t], values[t]) for t in [0, *keep, len(xs) - 1])

    return part(f), part(g)


def union_xs(f: PLFunc, g: PLFunc) -> list[Fraction]:
    return sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})


def xs_with_crossings(f: PLFunc, g: PLFunc) -> list[Fraction]:
    """The union breakpoints plus the interior roots of f - g, each value read
    by a binary-searched ``at`` (the library's former route)."""
    xs = union_xs(f, g)
    out: list[Fraction] = []
    for x0, x1 in zip(xs, xs[1:]):
        out.append(x0)
        d0 = f.at(x0) - g.at(x0)
        d1 = f.at(x1) - g.at(x1)
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            out.append(x0 + (x1 - x0) * d0 / (d0 - d1))
    out.append(xs[-1])
    return out


def min_by_at(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc((x, min(f.at(x), g.at(x))) for x in xs_with_crossings(f, g))


def leq_by_at(f: PLFunc, g: PLFunc) -> bool:
    return all(f.at(x) <= g.at(x) for x in union_xs(f, g))


def sub_by_at(f: PLFunc, g: PLFunc) -> PLFunc:
    return PLFunc((x, f.at(x) - g.at(x)) for x in union_xs(f, g))


def dominance_table(u: Perm) -> list[list[int]]:
    """table[i][j] = #{a <= i : u(a) > j} for 1 <= i,j <= n (1-indexed
    lists), as running sums over the one-line notation (the library's
    former table)."""
    cols = range(1, u.n + 1)
    table = [[0] * (u.n + 1)]
    for v in u.one_line:
        above = table[-1]
        table.append([0] + [above[j] + (v > j) for j in cols])
    return table


def dominance(u: Perm) -> tuple[int, ...]:
    """The interior of the dominance table, table[i][j] for 1 <= i, j < n,
    row by row (the library's former ``Perm.dominance``): row and column 0
    are zero, and row n and column n are the same for every permutation."""
    return tuple(v for row in dominance_table(u)[1:-1] for v in row[1:-1])


def bruhat_leq_by_dominance(u: Perm, v: Perm) -> bool:
    """Bruhat order by the dominance criterion u[i, j] <= v[i, j] for all
    i, j (the library's former route)."""
    return all(map(le, dominance(u), dominance(v)))


def dominance_by_cells(u: Perm) -> list[list[int]]:
    """table[i][j] = #{a <= i : u(a) > j}, one ``u(i)`` call per cell (the
    library's former double loop); row and column 0 are zero."""
    n = u.n
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            table[i][j] = table[i - 1][j] + (1 if u(i) > j else 0)
    return table


def random_lipschitz_plfunc(rng: random.Random, max_den: int = 8) -> PLFunc:
    """A random 1-Lipschitz PL function with breakpoints on a random grid."""
    den = rng.randint(2, max_den)
    xs = [Fraction(j, den) for j in range(den + 1)]
    y = Fraction(rng.randint(0, 2 * den), 2 * den)
    pts = [(xs[0], y)]
    for x0, x1 in zip(xs, xs[1:]):
        step = x1 - x0
        dy = Fraction(rng.randint(-2 * den, 2 * den), 2 * den)
        if dy > step:
            dy = step
        if dy < -step:
            dy = -step
        y = y + dy
        pts.append((x1, y))
    return PLFunc(pts)


def random_signed_plfunc(rng: random.Random, max_den: int = 8) -> PLFunc:
    """A PL function on a random grid whose values are zero half the time and
    otherwise small levels of either sign, so that zeros at breakpoints,
    tangent zeros, flat zero runs and roots inside segments all occur."""
    den = rng.randint(1, max_den)
    levels = [Fraction(v, rng.randint(1, 3)) for v in (-2, -1, 1, 2)]
    return PLFunc(
        (Fraction(j, den), Fraction(0) if rng.random() < 0.5 else rng.choice(levels))
        for j in range(den + 1)
    )


def positive_intervals_by_at(d: PLFunc) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals where d > 0: roots inserted between breakpoints,
    then the sign read by ``at`` at every point and midpoint (the library's
    former route)."""
    xs = [x for x, _ in d.breakpoints]
    pts: list[Fraction] = []
    for x0, x1 in zip(xs, xs[1:]):
        pts.append(x0)
        y0, y1 = d.at(x0), d.at(x1)
        if (y0 < 0 < y1) or (y1 < 0 < y0):
            pts.append(x0 + (x1 - x0) * y0 / (y0 - y1))
    pts.append(xs[-1])
    # a zero value at a shared endpoint splits the support there
    out = []
    open_at = None
    for p0, p1 in zip(pts, pts[1:]):
        positive = d.at((p0 + p1) / 2) > 0
        if positive and open_at is None:
            open_at = p0
        if open_at is not None:
            if not positive:
                out.append((open_at, p0))
                open_at = None
            elif d.at(p1) <= 0 or p1 == pts[-1]:
                out.append((open_at, p1))
                open_at = None
    return out


def leq_on_by_at(f: PLFunc, g: PLFunc, lo: Fraction, hi: Fraction) -> bool:
    """f <= g on [lo, hi], read by ``at`` at lo, hi and every breakpoint of
    f or g between them (the library's former route)."""
    xs = {lo, hi}
    for x, _ in f.breakpoints + g.breakpoints:
        if lo < x < hi:
            xs.add(x)
    return all(f.at(x) <= g.at(x) for x in xs)


def random_bfunc(rng: random.Random, max_den: int = 8) -> BFunc:
    """A random boundary class representative (canonical BFunc)."""
    while True:
        f = random_lipschitz_plfunc(rng, max_den)
        d = f.at(1) - f.at(0)
        if d != 1 and d != -1:
            return to_bfunc(f)


def s4_pairs():
    return list(itertools.product(all_perms(4), all_perms(4)))


_MAX_DIGITS = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*\Z")


def frac_by_fraction_parse(value) -> Fraction:
    """Coerce an int, Fraction or rational literal to a Fraction, every
    literal parsed by ``Fraction(str)`` under the exponent and digit caps
    (the library's former reader)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "")
            if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS:
                raise ParseError(f"exponent of {value[:40]!r} exceeds {_MAX_DIGITS}")
        try:
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
        if max(abs(q.numerator), q.denominator) >= 10**_MAX_DIGITS:
            raise ParseError(f"{value[:40]!r} needs more than {_MAX_DIGITS} digits")
        return q
    raise ParseError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class HomLengths:
    """Lengths of the pathlike basis of Hom(i, j); the dimension is their count."""

    i: int
    j: int
    n: int
    lengths: tuple[int, ...]


def hom_lengths(i: int, j: int, n: int) -> HomLengths:
    """Path lengths |i-j| + 2t for 0 <= t < min(i, j, n-i, n-j): the table
    hom_dim must reproduce (formerly ``finite.hom_lengths``)."""
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise DomainError(f"vertices {i},{j} outside 1..{n - 1}")
    count = min(i, j, n - i, n - j)
    return HomLengths(i, j, n, tuple(abs(i - j) + 2 * t for t in range(count)))


def simple_rep(i: int, n: int) -> QuiverRep:
    """The simple module at vertex i (formerly ``finite.simple_rep``)."""
    return factor_rep(n, [(i, 0)])


def zero_rep(n: int) -> QuiverRep:
    """The zero representation: no lattice factors (formerly ``finite.zero_rep``)."""
    return factor_rep(n, ())


def member(b: BFunc, x, length) -> bool:
    """Does the pathlike of the given length at column x lie in the decorous
    submodule bounded by b?  (formerly ``continuous.member``)"""
    x, length = frac(x), frac(length)
    if not 0 < x < 1:
        raise DomainError(f"column {x} outside (0,1)")
    if length < 0:
        raise DomainError("lengths are nonnegative")
    return b.f.at(x) <= length < bottom_at(b.k, x)


def member_quot(b: BFunc, x, length) -> bool:
    """Does the pathlike of the given length at column x survive in the
    decorous quotient by the submodule bounded by b, boundary from below
    (shallower lengths kept)?  (formerly ``continuous.member_quot``)"""
    x, length = frac(x), frac(length)
    if not 0 < x < 1:
        raise DomainError(f"column {x} outside (0,1)")
    if length < 0:
        raise DomainError("lengths are nonnegative")
    return top_at(b.k, x) <= length < b.f.at(x)


def is_full(b: BFunc) -> bool:
    """All of P_k: the boundary is the diamond's top curve."""
    return b.f == top_curve(b.k)


def is_zero_sub(b: BFunc) -> bool:
    """The zero submodule: the boundary is the diamond's bottom curve."""
    return b.f == bottom_curve(b.k)


def delta_fn(s: Sheet, s_prime: Sheet, a) -> PLFunc:
    """Delta(y) = down'(y) - (a + up(y)), positive on B_a(y) (``b_interval``);
    formerly ``sheets.delta_fn``."""
    return vshift(pointwise_sub(s_prime.down.f, s.up.f), -frac(a))


def cone_contains(s: Sheet, s_prime: Sheet, y, a, z, b) -> bool:
    """Is (z, b) in the cone C_a(y) of the target sheet: a pathlike of length
    b in the target at z, reachable from height a + up(y) at y?"""
    y, a, z, b = frac(y), frac(a), frac(z), frac(b)
    in_target = s_prime.up.f.at(z) <= b < s_prime.down.f.at(z)
    return in_target and b - (a + s.up.f.at(y)) >= abs(y - z)


def record_by_dict(check: str, case: str, key: str, witness, **counters) -> dict:
    """A case's record, ok when witness is None and naming it under key if not
    (formerly ``cli._record``, whose records ``json.dumps`` encoded)."""
    record = {"check": check, "case": case, "ok": witness is None, **counters}
    if witness is not None:
        record[key] = witness
    return record


def line_by_dumps(obj) -> str:
    """``json.dumps(obj)`` and a newline (the CLI's former encoder)."""
    return json.dumps(obj) + "\n"


def lane(lanes: Lanes, t: int) -> tuple[int, ...]:
    """Vector t of lanes, read back from its lane (formerly ``Lanes.lane``)."""
    shift, full = t * lanes.width, (1 << lanes.width - 1) - 1
    return tuple(col >> shift & full for col in lanes.cols)


def bruhat_row_by_records(task) -> str:
    """A bruhat task's lines by the former route: a record per target, with
    both routes' verdicts where they differ, each encoded by json.dumps, and
    the source's vectors read back from the lanes."""
    rows, i = task
    tableau = rows.tableaux.at_least(lane(rows.tableaux, i))
    cdf = rows.cdfs.at_most(lane(rows.cdfs, i))
    lines = []
    for j, target in enumerate(rows.labels):
        guard = (j + 1) * rows.tableaux.width - 1
        below, cdf_below = (bool(row >> guard & 1) for row in (tableau, cdf))
        record = {"check": "bruhat", "case": f"{rows.labels[i]}<={target}", "ok": True}
        if below is not cdf_below:
            record.update(ok=False, tableau=below, cdf=cdf_below)
        lines.append(line_by_dumps(record))
    return "".join(lines)


def sample_by_listing(n: int, k: int) -> list[Perm]:
    """The seeded --sample of k from S_n, k < n!, picked from the listed S_n
    (the CLI's former route)."""
    perms = list(all_perms(n))
    picked = random.Random(0).sample(range(len(perms)), k)
    return [perms[t] for t in sorted(picked)]


def permuton_by_literals(w: Perm) -> GridPermuton:
    """w's permuton from wire literals, "1/n" on its cells (the former
    ``permuton.from_perm``)."""
    n = w.n
    mass = [["0"] * n for _ in range(n)]
    for i in range(1, n + 1):
        mass[w(i) - 1][i - 1] = f"1/{n}"
    return GridPermuton(n, mass)


def uniform_by_literals(m: int) -> GridPermuton:
    """The uniform permuton from wire literals (the former ``permuton.uniform``)."""
    return GridPermuton(m, [[f"1/{m * m}"] * m for _ in range(m)])


# JSON writers of the fixtures the CLI tests read (formerly in preproj.jsonio)


def permuton_to_json(mu: GridPermuton) -> dict:
    return {"m": mu.m, "mass": [[rat_str(v) for v in row] for row in mass(mu)]}


def sheet_to_json(s: Sheet) -> dict:
    return {"k": rat_str(s.k), "up": bfunc_to_json(s.up), "down": bfunc_to_json(s.down)}


def sawtooth_to_json(st: SawtoothDesc) -> dict:
    return {
        "a": rat_str(st.a),
        "b": rat_str(st.b),
        "teeth": [[rat_str(x), rat_str(v)] for x, v in st.teeth],
        "endpoints": list(st.endpoint_flags),
    }


def module_to_json(module) -> dict:
    if isinstance(module, SimpleModule):
        return {"type": "simple", "x": rat_str(module.x)}
    if isinstance(module, SawtoothDesc):
        return {"type": "sawtooth", **sawtooth_to_json(module)}
    if isinstance(module, CurveModule):
        return {"type": "curve_module", **curve_module_to_json(module)}
    raise ParseError(f"not a module descriptor: {module!r}")


def discretize(b: BFunc, n: int) -> CurveModule:
    """Read an already grid-aligned boundary as a diamond curve: its
    staircase, which must trace the boundary exactly (apex i/n, breakpoints
    on the 1/n grid, +-1 slopes between samples); formerly
    ``continuous.discretize``."""
    module = staircase(b, n)
    if as_plfunc(module.curve) != b.f:
        raise DomainError(f"boundary is not a +-1 staircase on the 1/{n} grid")
    return module


def bridge_by_plfuncs(w: Perm, i: int, mu: GridPermuton) -> bool:
    """The bridge verdict by its former route: summand i of the whole stripped
    ideal, as a PLFunc, against the permuton's boundary function at i/n.  A
    row that is no boundary curve (BFunc refuses it) is no summand's curve."""
    rep = min_coset_rep(w, i)
    word = canonical_reduced_word_of_rep(rep, i)
    discrete = as_plfunc(ideal_via_word(word, w.n)[i - 1].curve)
    try:
        return discrete == boundary_function(mu, Fraction(i, w.n)).f
    except DomainError:
        return False


def curve_from_values_by_fractions(i: int, n: int, values) -> DiamondCurve:
    """The curve through the rationals values[j] = c(j/n), each read as a
    Fraction (formerly ``DiamondCurve.from_values``)."""
    units = []
    for v in map(frac, values):
        t = v * n
        if t.denominator != 1:
            raise DomainError(f"curve value {rat_str(v)} is off the 1/{n} grid")
        units.append(t.numerator)
    return DiamondCurve(i, n, tuple(units))


def curve_module_to_json_by_fractions(m: CurveModule) -> dict:
    """A curve module's JSON, each value a Fraction through ``rat_str``
    (formerly ``jsonio.curve_module_to_json``)."""
    return {"n": m.n, "i": m.i, "kind": m.kind.value,
            "curve": [rat_str(v) for v in m.curve.values]}


def curve_units_by_columns(i: int, n: int, units) -> tuple[int, ...]:
    """The units of DiamondCurve(i, n, units), checked one step and one
    column at a time, with the same errors in the same order (formerly
    ``DiamondCurve.__post_init__``)."""
    units = tuple(units)
    if not 1 <= i <= n - 1:
        raise DomainError(f"vertex {i} outside 1..{n - 1}")
    if len(units) != n + 1:
        raise DomainError(f"expected {n + 1} grid values, got {len(units)}")
    for a, b in zip(units, units[1:]):
        if abs(b - a) != 1:
            raise DomainError("curve steps must be exactly +-1/n")
    for j, u in enumerate(units):
        if not abs(j - i) <= u <= n - abs(n - i - j):
            raise DomainError(f"curve leaves the diamond at column {j}")
    return units


def curve_units_by_num_den(i: int, n: int, values) -> tuple[int, ...]:
    """The units of the curve through values[j] = c(j/n), every value read
    by num_den and checked by columns (formerly ``DiamondCurve.from_values``,
    before the per-rank literal table)."""
    units = []
    for p, q in map(num_den, values):
        if p * n % q:
            raise DomainError(f"curve value {p}/{q} is off the 1/{n} grid")
        units.append(p * n // q)
    return curve_units_by_columns(i, n, units)


def curve_module_to_json_by_ratio_str(m: CurveModule) -> dict:
    """A curve module's JSON, each unit written by ``ratio_str`` (formerly
    ``jsonio.curve_module_to_json``, before the per-rank literal table)."""
    return {"n": m.n, "i": m.i, "kind": m.kind.value,
            "curve": [ratio_str(u, m.n) for u in m.curve.units]}


def word_curves_by_strip(word, n: int, vertices) -> tuple[tuple[int, ...], ...]:
    """word_curves as a fold of strip_curves over the letters, every curve
    rebuilt per letter (formerly ``finite.word_curves``)."""
    word = tuple(word)
    if not symgroup.is_reduced(word, n):
        raise DomainError(f"{word} is not reduced")
    curves = tuple(_diamond(i, n)[0] for i in vertices)
    for letter in word:
        curves = strip_curves(curves, letter)
    return curves


def cum_by_row_and_column_loops(m: int, den: int, cells) -> tuple[tuple[int, ...], ...]:
    """The ``cum`` table GridPermuton._fill builds, its sums checked one row
    and one column at a time, with the same errors in the same order
    (formerly the checks of ``GridPermuton._fill``)."""
    if min(map(min, cells)) < 0:
        raise DomainError("cell masses must be nonnegative")
    cum = [(0,) * (m + 1)]
    for row in cells:
        cum.append(tuple(map(add, cum[-1], itertools.accumulate(row, initial=0))))
    target = den // m
    for r in range(m):
        if cum[r + 1][m] - cum[r][m] != target:
            raise DomainError(f"row {r} does not sum to 1/{m}")
    for c in range(m):
        if cum[m][c + 1] - cum[m][c] != target:
            raise DomainError(f"column {c} does not sum to 1/{m}")
    return tuple(cum)


def load_json_by_text_mode(path: str):
    """A JSON file read through a UTF-8 text-mode file object, or the
    ParseError it gives (formerly ``cli._load_json``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def plfunc_to_json_by_breakpoints(f: PLFunc) -> dict:
    """A PLFunc's JSON, each breakpoint a pair of Fractions through ``rat_str``
    (formerly ``jsonio.plfunc_to_json``)."""
    return {"breakpoints": [[rat_str(x), rat_str(y)] for x, y in f.breakpoints]}


def plfunc_pts_by_fractions(breakpoints) -> tuple[tuple[int, int, int], ...]:
    """The integer points ``PLFunc(breakpoints)`` stores, each literal read as
    a Fraction by ``frac`` and the order and domain checked on Fractions
    (formerly ``PLFunc.__init__``); it raises what that raised."""
    pts = [(frac(x), frac(y)) for x, y in breakpoints]
    if len(pts) < 2:
        raise DomainError("need breakpoints at x=0 and x=1")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 >= x1:
            raise DomainError("breakpoint x-coordinates must strictly increase")
    if pts[0][0] != 0 or pts[-1][0] != 1:
        raise DomainError("domain must be exactly [0,1]")
    return _merged((x.numerator * y.denominator, y.numerator * x.denominator,
                    x.denominator * y.denominator) for x, y in pts)


def homvanish_apexes_by_all_pairs(mu: GridPermuton) -> list | None:
    """The apex witness of check homvanish by the former loop over all 400
    ordered pairs of the apexes t/21: the first (s, t) whose difference of
    row steps ``plfunc.rises_class`` calls NEITHER, or None."""
    rows = [permuton.boundary_row(mu, t, 21) for t in range(1, 21)]
    steps = [[b - a for a, b in zip(row, row[1:])] for row in rows]
    return next(([s, t] for s, a in enumerate(steps, 1) for t, b in enumerate(steps, 1)
                 if plfunc.rises_class([x - y for x, y in zip(a, b)])
                 is MonotoneClass.NEITHER), None)


def generators_by_slopes(s: Sheet) -> tuple[Fraction, ...]:
    """The breakpoints of the upper boundary inside the support whose left
    slope is < 1 and right slope is > -1, read on Fraction breakpoints and
    slopes (the former ``Sheet.generators`` scan)."""
    slopes = slopes_by_fractions(s.up.f)
    pts = s.up.f.breakpoints
    return tuple(pts[t][0] for t in range(1, len(pts) - 1)
                 if slopes[t - 1] < 1 and slopes[t] > -1
                 and any(lo < pts[t][0] < hi for lo, hi in s.support))


def elementary_exists_by_at(s: Sheet, s_prime: Sheet, y, a) -> bool:
    """The elementary-morphism verdict with its former pointwise pre-check
    up'(y) <= a + up(y) < down'(y), read by ``at``, and the interval test
    behind it on up shifted twice (the former ``sheets.elementary_exists``)."""
    y, a = frac(y), frac(a)
    if not (s_prime.up.f.at(y) <= a + s.up.f.at(y) < s_prime.down.f.at(y)):
        return False
    interval = b_interval(s, s_prime, y, a)
    if interval is None:
        return False
    lo, hi = interval
    return (_leq_on(s_prime.up.f, vshift(s.up.f, a), lo, hi)
            and _leq_on(s_prime.down.f, vshift(s.down.f, a), lo, hi))


def ideal_curves_by_accumulate(one_line) -> tuple[tuple[int, ...], ...]:
    """The curves of the ideal of w, each accumulated from its vertex over
    the steps +-1 of w's one-line notation (formerly ``finite.ideal_curves``)."""
    return tuple(tuple(itertools.accumulate([1 if v > i else -1 for v in one_line], initial=i))
                 for i in range(1, len(one_line)))


def min_coset_line_by_counters(one_line, i: int) -> tuple[int, ...]:
    """The minimal coset representative's one-line notation, drawn from two
    counters by a generator (formerly ``symgroup.min_coset_line``)."""
    low, high = itertools.count(1), itertools.count(i + 1)
    return tuple(next(low) if v <= i else next(high) for v in one_line)


def perm_refusal_by_any(one_line) -> str | None:
    """The DomainError text the former ``Perm`` type test (one ``type`` test
    per value, then the sorted values) gives one_line, or None."""
    ol = tuple(one_line)
    if any(type(v) is not int for v in ol) or sorted(ol) != list(range(1, len(ol) + 1)):
        return f"not a permutation of 1..{len(ol)}: {ol}"
    return None


def from_perm_by_cells(w: Perm) -> GridPermuton:
    """The permuton of w from a zero matrix with a 1 set in row w(i), column
    i, for each i (formerly ``permuton.from_perm``)."""
    n = w.n
    cells = [[0] * n for _ in range(n)]
    for i, v in enumerate(w.one_line):
        cells[v - 1][i] = 1
    return GridPermuton.__new__(GridPermuton)._fill(n, n, tuple(map(tuple, cells)))


def bridge_column_by_zip(discrete, row, scale: int) -> int | None:
    """The first column c with discrete[c] * scale != row[c], or None, read
    pair by pair (the former end of ``continuous.bridge_mismatch``)."""
    return next((c for c, (u, v) in enumerate(zip(discrete, row)) if u * scale != v), None)


def staircase_by_at(b: BFunc, n: int) -> CurveModule:
    """The staircase of b on the 1/n grid, each column's value read by
    ``PLFunc.at`` as a Fraction (formerly ``continuous.staircase``)."""
    permuton._check_size(n)
    k = b.k
    if (k * n).denominator != 1:
        raise DomainError(f"apex {k} not on the 1/{n} grid")
    i = int(k * n)
    units = []
    for j in range(n + 1):
        t = b.f.at(Fraction(j, n)) * n
        fl = t.numerator // t.denominator
        if (fl - i - j) % 2:
            fl -= 1
        units.append(fl)
    return CurveModule(Kind.SUB, DiamondCurve(i, n, tuple(units)))


def tau_rigid_witness_by_memo(curves, memo: dict | None = None) -> tuple[int, int] | None:
    """The first pair (i, j) with Hom(M^i, tau M^j) != 0, read through a memo
    {sub's curve: {quotient's curve: Hom vanishes}} that callers may share
    across cases: the quotients packed lazily, once, when some pair is
    missing, and one pass for each sub with a missing pair (formerly
    ``finite.tau_rigid_witness``)."""
    memo = {} if memo is None else memo
    quots = None
    for key in curves:
        known = memo.setdefault(key, {})
        vanishes = list(map(known.get, curves))  # None: not known yet
        if None in vanishes:
            n = len(key) - 1
            quots = quots or HomLanes([(_diamond(c[0], n)[0], c) for c in curves])
            vanishes = [d == 0 for d in quots.dims((key, _diamond(key[0], n)[1]))]
            known.update(zip(curves, vanishes))
        if not all(vanishes):
            return key[0], curves[vanishes.index(False)][0]
    return None


def rank_curves_by_bits(n: int) -> list[tuple[int, ...]]:
    """The 2^n - 2 curves at rank n, i + j - 2 |D & [1, j]| for the bitmasks
    d = 1 .. 2^n - 2 of D, each accumulated over its steps (formerly a
    comprehension in ``cli._taurigid_tasks``)."""
    return [tuple(itertools.accumulate([-1 if d >> j & 1 else 1 for j in range(n)],
                                       initial=d.bit_count()))
            for d in range(1, 2 ** n - 1)]
