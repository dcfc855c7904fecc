"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own exact arithmetic over ``Fraction``: it
imports nothing from ``preproj``, so the program under test only ever sees
the argv lists and JSON files built from these values, and the reference
answers computed here are independent of the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------- rationals


def rat(value) -> str:
    """The library's wire format: "p/q", or "p" for integers."""
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def perm_arg(perm: list[int]) -> str:
    """Command-line form of a permutation: digits up to n = 9, JSON beyond."""
    if len(perm) <= 9:
        return "".join(str(v) for v in perm)
    return json.dumps(perm, separators=(",", ":"))


# ---------------------------------------------------------------- permutations


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def random_perm_of_length(rng: random.Random, n: int, length: int) -> list[int]:
    """A random permutation with exactly ``length`` inversions: a random walk
    up the weak order, each step swapping a random ascent."""
    line = list(range(1, n + 1))
    for _ in range(length):
        i = rng.choice([i for i in range(n - 1) if line[i] < line[i + 1]])
        line[i], line[i + 1] = line[i + 1], line[i]
    return line


def random_reduced_word(rng: random.Random, perm: list[int]) -> list[int]:
    """A reduced word for perm from a random descent walk to the identity.

    Swapping a right descent at positions i, i+1 removes one inversion, i.e.
    w = w' s_i; the letters taken in reverse order spell w as a product of
    adjacent transpositions.
    """
    line = list(perm)
    letters = []
    while True:
        descents = [i for i in range(len(line) - 1) if line[i] > line[i + 1]]
        if not descents:
            return letters[::-1]
        i = rng.choice(descents)
        line[i], line[i + 1] = line[i + 1], line[i]
        letters.append(i + 1)


def bruhat_below(rng: random.Random, perm: list[int], steps: int) -> list[int]:
    """A permutation below perm in Bruhat order: undo a few inversions
    (each swap of an inverted pair is a reflection that shortens)."""
    line = list(perm)
    for _ in range(steps):
        pairs = [
            (i, j)
            for i in range(len(line))
            for j in range(i + 1, len(line))
            if line[i] > line[j]
        ]
        if not pairs:
            break
        i, j = rng.choice(pairs)
        line[i], line[j] = line[j], line[i]
    return line


# ---------------------------------------------------------------- grid permutons

Mass = list[list[Fraction]]


def mixture(m: int, perms: list[list[int]], weights: list[int]) -> Mass:
    """Convex combination of permutation matrices; mass 1/m sits in row
    perm(c), column c, as in ``preproj.permuton.from_perm``."""
    total = sum(weights)
    mass = [[Fraction(0)] * m for _ in range(m)]
    for perm, weight in zip(perms, weights):
        cell = Fraction(weight, total * m)
        for c, value in enumerate(perm):
            mass[value - 1][c] += cell
    return mass


def random_mixture(rng: random.Random, m: int, count: int = 0) -> Mass:
    """2-4 random permutation matrices (or ``count``) with weights 1..9."""
    count = count or rng.randint(2, 4)
    perms = [random_perm(rng, m) for _ in range(count)]
    return mixture(m, perms, [rng.randint(1, 9) for _ in range(count)])


def permuton_json(mass: Mass) -> dict:
    return {"m": len(mass), "mass": [[rat(v) for v in row] for row in mass]}


class Cdf:
    """Exact CDF of a grid permuton: corner prefix sums plus bilinear
    interpolation inside each cell, where the mass is uniform."""

    def __init__(self, mass: Mass) -> None:
        m = len(mass)
        table = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
        for r in range(m):
            for c in range(m):
                table[r + 1][c + 1] = (
                    table[r][c + 1] + table[r + 1][c] - table[r][c] + mass[r][c]
                )
        self.m = m
        self.table = table

    def __call__(self, a: Fraction, b: Fraction) -> Fraction:
        m, t = self.m, self.table
        c, r = min(int(a * m), m - 1), min(int(b * m), m - 1)
        fx, fy = a * m - c, b * m - r
        p00, p01 = t[r][c], t[r][c + 1]
        p10, p11 = t[r + 1][c], t[r + 1][c + 1]
        return (
            p00
            + fx * (p01 - p00)
            + fy * (p10 - p00)
            + fx * fy * (p11 - p10 - p01 + p00)
        )


def bruhat_leq(mu: Mass, nu: Mass) -> bool:
    """mu <= nu in the permuton Bruhat order (cdf(mu) >= cdf(nu) everywhere).

    On each cell of the union of the two grids both CDFs are bilinear, so
    their difference takes its extremes at the cell corners.
    """
    f, g = Cdf(mu), Cdf(nu)
    xs = sorted({Fraction(k, len(mu)) for k in range(len(mu) + 1)}
                | {Fraction(k, len(nu)) for k in range(len(nu) + 1)})
    return all(f(x, y) >= g(x, y) for x in xs for y in xs)


def boundary_samples(mass: Mass, y: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The ideal summand's boundary f(x) = -2 cdf(x, y) + y + x at the column
    boundaries x = c/m; f is linear in between."""
    cdf, m = Cdf(mass), len(mass)
    return [
        (Fraction(c, m), -2 * cdf(Fraction(c, m), y) + y + Fraction(c, m))
        for c in range(m + 1)
    ]


def pl_at(points: list[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Value at x of the piecewise-linear function through sorted points."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside the domain")


def bottom_points(k: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Lower boundary of the diamond of P_k: 1 - |1 - k - x|."""
    return [(Fraction(0), k), (1 - k, Fraction(1)), (Fraction(1), 1 - k)]


def positive_intervals(
    f: list[tuple[Fraction, Fraction]], g: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals where g - f > 0, for piecewise-linear f, g."""
    xs = sorted({x for x, _ in f} | {x for x, _ in g})
    diff = [(x, pl_at(g, x) - pl_at(f, x)) for x in xs]
    pts = []
    for (x0, d0), (x1, d1) in zip(diff, diff[1:]):
        pts.append((x0, d0))
        if d0 * d1 < 0:
            pts.append((x0 + (x1 - x0) * d0 / (d0 - d1), Fraction(0)))
    pts.append(diff[-1])
    # No piece changes sign inside, so d0 + d1 > 0 means positive throughout;
    # a zero at a shared endpoint splits the support there.
    out: list[tuple[Fraction, Fraction]] = []
    start = None
    for (x0, d0), (x1, d1) in zip(pts, pts[1:]):
        if d0 + d1 > 0:
            if start is None:
                start = x0
            if d1 == 0 or x1 == pts[-1][0]:
                out.append((start, x1))
                start = None
    return out


# ---------------------------------------------------------------- curve modules


def factor_depths(i: int, n: int, j: int) -> range:
    """Depths of the simple factors of P_i in column j (units of 1/n)."""
    return range(abs(j - i) + 1, n - abs(j - (n - i)), 2)


def random_curve_units(rng: random.Random, i: int, n: int) -> list[int]:
    """A +-1 lattice path across the diamond of P_i, in units of 1/n."""
    units = [i]
    for j in range(1, n + 1):
        top, bottom = abs(j - i), n - abs(n - i - j)
        units.append(rng.choice([u for u in (units[-1] + 1, units[-1] - 1)
                                 if top <= u <= bottom]))
    return units


def sub_is_deep(i: int, n: int, units: list[int]) -> bool:
    """Does a length-two loop act nonzero on the submodule below the curve?

    The loop at column j sends the factor (j, d) through (j+1, d+1) to
    (j, d+2); it is nonzero when all three lie in the submodule.
    """
    def present(j: int, d: int) -> bool:
        return d in factor_depths(i, n, j) and d > units[j]

    return any(
        present(j, d) and present(j + 1, d + 1) and present(j, d + 2)
        for j in range(1, n - 1)
        for d in factor_depths(i, n, j)
    )


def curve_module_json(i: int, n: int, units: list[int]) -> dict:
    return {
        "type": "curve_module",
        "n": n,
        "i": i,
        "kind": "sub",
        "curve": [rat(Fraction(u, n)) for u in units],
    }


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    """One call of ``preproj.cli.main``: its argv, what the validator needs to
    judge the output, and the object size the call works on."""

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    size: int = 0
    large: bool = False

    @property
    def is_check(self) -> bool:
        return self.argv[0] == "check"


@dataclass
class Workload:
    """Cycles of ops, every one with the same sizes; a run executes them all."""

    cycles: list[list[Op]]
    warmup: Op


SWEEP_CASES = {
    "mizuno": 120,
    "taurigid": 120,
    "bridge": 480,
    "bruhat": 14400,
    "twosided": 122,
    "homvanish": 4,
}


def sweep_exhaustive(seed: int, workdir: Path, cycles: int) -> Workload:
    """The six exhaustive sweeps over S_5 (homvanish on its default
    permutons); the seed only rotates their order within the round."""
    names = list(SWEEP_CASES)
    shift = seed % len(names)
    names = names[shift:] + names[:shift]
    cycle = []
    for name in names:
        argv = ["check", name] + ([] if name == "homvanish" else ["--n", "5"])
        cycle.append(Op(f"check-{name}", argv + ["--jobs", "1"],
                        {"cases": SWEEP_CASES[name]}, size=5))
    warmup = Op("check-bridge", ["check", "bridge", "--n", "3", "--jobs", "1"],
                {"cases": 12}, size=3)
    return Workload([cycle] * cycles, warmup)


# Every cycle of a workload has the same sizes; the seed picks the objects.
# A run executes whole cycles, so its size mix depends on neither the seed
# nor the number of cycles.
IDEAL_N = (12, 16, 20)
TAURIGID_N = (10, 12, 14)
BRIDGE_N = (8, 9, 10)
# P_{n/2} three times at each of three sizes: the middle block holds the median.
PROJECTIVE_N = (12, 12, 12, 16, 16, 16, 20, 20, 20)
DEEP_N = tuple(range(12, 21))


def _write(workdir: Path, name: str, obj: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def targeted_large(seed: int, workdir: Path, cycles: int) -> Workload:
    """Few, large objects: ideals at n = 12..20, targeted taurigid and bridge
    checks beyond the default guard, and brick checks on deep modules.

    Each cycle has nine heavy calls and 18 cheap brick checks, so the median
    call sits inside the brick group, on the seed-independent P_8 at n = 16.
    The heavy calls take permutations of half the maximal length: the cost
    of ideal_of follows the inversions, and a free length would let the seed
    move it threefold.
    """
    rng = random.Random(seed)
    out = []
    for c in range(cycles):
        ops = []
        for n in IDEAL_N:
            w = random_perm_of_length(rng, n, n * (n - 1) // 4)
            ops.append(Op("ideal-perm", ["ideal", "perm", perm_arg(w)],
                          {"perm": w, "word": random_reduced_word(rng, w)}, n, n >= 16))
        for n in TAURIGID_N:
            w = random_perm_of_length(rng, n, n * (n - 1) // 4)
            ops.append(Op("check-taurigid", ["check", "taurigid", "--perm", perm_arg(w),
                                             "--jobs", "1"], {"cases": 1}, n, n >= 12))
        for n in BRIDGE_N:
            w = random_perm_of_length(rng, n, n * (n - 1) // 4)
            ops.append(Op("check-bridge", ["check", "bridge", "--perm", perm_arg(w),
                                           "--jobs", "1"], {"cases": n - 1}, n, n >= 9))
        for t, n in enumerate(PROJECTIVE_N):
            i = n // 2
            top = [abs(j - i) for j in range(n + 1)]
            path = _write(workdir, f"projective-{c}-{t}.json", curve_module_json(i, n, top))
            ops.append(Op("brick-projective", ["brick", "check", path],
                          {"brick": False, "deep": True, "end_dim": min(i, n - i)},
                          n, n >= 16))
        for t, n in enumerate(DEEP_N):
            while True:
                i = rng.randint(2, n - 2)
                units = random_curve_units(rng, i, n)
                if sub_is_deep(i, n, units):
                    break
            path = _write(workdir, f"deep-{c}-{t}.json", curve_module_json(i, n, units))
            ops.append(Op("brick-deep", ["brick", "check", path],
                          {"brick": False, "deep": True}, n, n >= 16))
        out.append(ops)
    return Workload(out, warmup=out[0][9])


PAIR_SIZES = ((6, 7), (8, 9), (12, 13))
GRID_M = (5, 8, 11)
# Ideal summands per grid permuton, on and off the grid each; the block at
# m = 11 holds the median call.
APEXES = {5: 3, 8: 3, 11: 9}
HOMVANISH_M = (5,)
PERM_PAIR_N = (5, 7, 9, 11, 13)


def _pair(rng: random.Random, sizes: tuple[int, int], comparable: bool):
    """A coprime-size pair of grid permutons with known comparability.

    A comparable pair puts the identity or anti-identity permuton on one
    side, which bounds the CDF of its grid from above or below; candidates
    are drawn until the reference order agrees with the wanted kind.
    """
    m, m2 = sizes
    if rng.random() < 0.5:
        m, m2 = m2, m
    while True:
        if comparable:
            line = list(range(1, m + 1))
            extreme = mixture(m, [line if rng.random() < 0.5 else line[::-1]], [1])
            a, b = extreme, random_mixture(rng, m2)
        else:
            a, b = random_mixture(rng, m), random_mixture(rng, m2)
        leq, geq = bruhat_leq(a, b), bruhat_leq(b, a)
        if (leq or geq) == comparable:
            if rng.random() < 0.5:
                a, b, leq, geq = b, a, geq, leq
            return a, b, leq, geq


def permuton_orders(seed: int, workdir: Path, cycles: int) -> Workload:
    """Grid permutons with m = 5..13: the two orders on coprime grids, ideal
    summands, two-sidedness, hom-vanishing and sheets.

    Each cycle holds one comparable and one incomparable pair per size pair
    (half the pairs comparable), three grid permutons (mixtures of 2, 3 and 4
    permutations) with their checks, and cheap queries on them: 30 ideal
    summands, 9 sheets and 10 orders of permutation permutons, so the median
    call sits inside the cheap group, on the summands at m = 11.  homvanish,
    the costliest check (a fixed 20 x 20 grid of certificates), runs on the
    smallest permuton only.
    """
    rng = random.Random(seed)
    out = []
    for c in range(cycles):
        ops = []
        for sizes in PAIR_SIZES:
            for comparable in (True, False):
                a, b, leq, geq = _pair(rng, sizes, comparable)
                tag = f"{c}-{sizes[0]}-{int(comparable)}"
                pa = _write(workdir, f"pair-{tag}-a.json", permuton_json(a))
                pb = _write(workdir, f"pair-{tag}-b.json", permuton_json(b))
                big = max(sizes) >= 12
                ops.append(Op("order-permuton", ["order", "permuton", pa, pb],
                              {"leq": leq, "geq": geq, "comparable": comparable},
                              max(sizes), big))
                # ideal inclusion is the permuton order reversed
                ops.append(Op("order-ideal", ["order", "ideal", pa, pb],
                              {"leq": geq, "geq": leq, "comparable": comparable},
                              max(sizes), big))
        for count, m in enumerate(GRID_M, start=2):
            mass = random_mixture(rng, m, count)
            path = _write(workdir, f"grid-{c}-{m}.json", permuton_json(mass))
            ops.append(Op("check-twosided", ["check", "twosided", "--files", path,
                                             "--jobs", "1"], {"cases": 1}, m, m >= 10))
            if m in HOMVANISH_M:
                ops.append(Op("check-homvanish", ["check", "homvanish", "--files", path,
                                                  "--jobs", "1"], {"cases": 1}, m, m >= 10))
            apexes = [Fraction(r, m) for r in rng.sample(range(1, m), APEXES[m])]
            apexes += [Fraction(2 * r + 1, 2 * m) for r in rng.sample(range(m), APEXES[m])]
            for apex in apexes:
                ops.append(Op("ideal-permuton",
                              ["ideal", "permuton", path, "--at", rat(apex)],
                              {"k": apex, "points": boundary_samples(mass, apex)},
                              m, m >= 10))
            for t in range(3):
                ops.append(_sheet_op(rng, workdir, f"{c}-{m}-{t}", mass))
        for n in PERM_PAIR_N:
            for comparable in (True, False):
                v = random_perm(rng, n)
                u = (bruhat_below(rng, v, rng.randint(1, 3)) if comparable
                     else random_perm(rng, n))
                if rng.random() < 0.5:
                    u, v = v, u
                tag = f"{c}-{n}-{int(comparable)}"
                pu = _write(workdir, f"perm-{tag}-u.json", permuton_json(mixture(n, [u], [1])))
                pv = _write(workdir, f"perm-{tag}-v.json", permuton_json(mixture(n, [v], [1])))
                ops.append(Op("order-permuton-perm", ["order", "permuton", pu, pv],
                              {"u": u, "v": v}, n, n >= 10))
        out.append(ops)
    return Workload(out, warmup=out[0][14])


def _sheet_op(rng: random.Random, workdir: Path, tag: str, mass: Mass) -> Op:
    """A sheet cut from a boundary function: the ideal summand at apex k
    (upper curve) inside P_k (lower curve = the diamond's bottom)."""
    m = len(mass)
    while True:
        k = Fraction(rng.randint(1, m - 1), m)
        up = boundary_samples(mass, k)
        down = bottom_points(k)
        support = positive_intervals(up, down)
        candidates = [Fraction(t, 2 * m) for t in range(1, 2 * m)]
        inside = [y for y in candidates if any(lo < y < hi for lo, hi in support)]
        if inside:
            break
    y = rng.choice(inside)
    a = Fraction(rng.randint(0, 2), 2 * m)
    sheet = {
        "k": rat(k),
        "up": {"k": rat(k), "breakpoints": [[rat(x), rat(v)] for x, v in up]},
        "down": {"k": rat(k), "breakpoints": [[rat(x), rat(v)] for x, v in down]},
    }
    path = _write(workdir, f"sheet-{tag}.json", sheet)
    pair = f"{rat(y)},{rat(a)}"
    return Op("sheet-analyze", ["sheet", "analyze", path, "--cone", pair, "--codep", pair],
              {"y": y, "a": a, "support": support}, m, m >= 10)


WORKLOADS = {
    "sweep-exhaustive": sweep_exhaustive,
    "targeted-large": targeted_large,
    "permuton-orders": permuton_orders,
}

# PREPROJ_MAX_N for the benchmark process; None keeps the default guard.
MAX_N = {"sweep-exhaustive": None, "targeted-large": 20, "permuton-orders": None}

# Seconds one cycle takes on the reference machine (Python 3.11, 2 shared
# cores).  ``--seconds`` becomes a fixed number of cycles, so two commits
# measured with the same settings run exactly the same calls.
NOMINAL_CYCLE_S = {"sweep-exhaustive": 28.0, "targeted-large": 7.0,
                   "permuton-orders": 12.5}


def cycle_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[name]))
