"""Answer checks, run outside the timed region.

Each checker takes the op, the call's exit code and captured stdout, and the
imported program (for the reference routes that live in other layers of the
library) and returns None when the answer is right, or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import Op, pl_at, rat


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def check_summary(op: Op, out: str, lib) -> str | None:
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    want = op.expect["cases"]
    if not (summary.get("summary") and summary.get("pass") is True):
        return f"summary does not pass: {summary}"
    if summary.get("cases") != want or len(lines) != want + 1:
        return f"expected {want} cases, got {summary.get('cases')}"
    return None


def check_ideal_perm(op: Op, out: str, lib) -> str | None:
    """Against stripping along a random reduced word (ideal_via_word), a
    different route from ideal_of's coset-representative words."""
    got = _last_json(out)
    n = len(op.expect["perm"])
    reference = lib.finite.ideal_via_word(tuple(op.expect["word"]), n)
    want = [[rat(v) for v in m.curve.values] for m in reference]
    curves = [s["curve"] for s in got["summands"]]
    if got["n"] != n or curves != want:
        return "ideal curves differ from ideal_via_word on a random reduced word"
    if [s["i"] for s in got["summands"]] != list(range(1, n)):
        return "summands are not indexed by the vertices 1..n-1"
    return None


def check_brick(op: Op, out: str, lib) -> str | None:
    got = _last_json(out)
    for key, value in op.expect.items():
        if got.get(key) != value:
            return f"{key}: expected {value}, got {got.get(key)}"
    return None


def check_order(op: Op, out: str, lib) -> str | None:
    got = _last_json(out)
    if got != op.expect:
        return f"expected {op.expect}, got {got}"
    return None


def check_order_perm(op: Op, out: str, lib) -> str | None:
    """Permutation permutons against the Bruhat order of S_n."""
    u, v = lib.symgroup.Perm(op.expect["u"]), lib.symgroup.Perm(op.expect["v"])
    leq, geq = lib.symgroup.bruhat_leq(u, v), lib.symgroup.bruhat_leq(v, u)
    want = {"leq": leq, "geq": geq, "comparable": leq or geq}
    got = _last_json(out)
    if got != want:
        return f"expected {want}, got {got}"
    return None


def _points(pairs) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(y)) for x, y in pairs]


def check_ideal_permuton(op: Op, out: str, lib) -> str | None:
    """Against the benchmark's own CDF: both sides are piecewise linear, so
    they agree everywhere when they agree on the union of breakpoints."""
    got = _last_json(out)
    if Fraction(got["k"]) != op.expect["k"]:
        return f"apex {got['k']} differs from {rat(op.expect['k'])}"
    mine, theirs = op.expect["points"], _points(got["breakpoints"])
    xs = {x for x, _ in mine} | {x for x, _ in theirs}
    if any(pl_at(mine, x) != pl_at(theirs, x) for x in xs):
        return "boundary function differs from the reference CDF"
    return None


def check_sheet(op: Op, out: str, lib) -> str | None:
    """The support against the benchmark's own computation, and the cone and
    codependence answers for consistency with it."""
    got = _last_json(out)
    support = [(Fraction(lo), Fraction(hi)) for lo, hi in got["support"]]
    if support != op.expect["support"]:
        return f"support {got['support']} differs from the reference"
    gens = [Fraction(g) for g in got["generators"]]
    if not all(any(lo < g < hi for lo, hi in support) for g in gens):
        return "a generator lies outside the support"
    if got["deep"] != bool(support):
        return "deep flag disagrees with the support"
    y, a = op.expect["y"], op.expect["a"]
    cone, codep = got["cone"], got["codependence"]
    if Fraction(cone["y"]) != y or Fraction(cone["a"]) != a:
        return "cone echoes the wrong (y, a)"
    interval = cone["b_interval"]
    if interval is not None and not Fraction(interval[0]) < y < Fraction(interval[1]):
        return "headroom interval does not contain y"
    cls = [Fraction(z) for z in codep["class"]]
    if any(z not in gens for z in cls):
        return "codependence class contains a non-generator"
    if interval is None and cls:
        return "codependence class without a headroom interval"
    return None


CHECKERS = {
    "ideal-perm": check_ideal_perm,
    "brick-projective": check_brick,
    "brick-deep": check_brick,
    "order-permuton": check_order,
    "order-ideal": check_order,
    "order-permuton-perm": check_order_perm,
    "ideal-permuton": check_ideal_permuton,
    "sheet-analyze": check_sheet,
}


def validate(op: Op, code: int | None, out: str, lib) -> str | None:
    """None when the call exited 0 and its answer is right."""
    if code != 0:
        return f"exit code {code}"
    checker = check_summary if op.is_check else CHECKERS[op.kind]
    try:
        return checker(op, out, lib)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable answer: {exc!r}"
