"""Command-line front end.

Commands::

    preproj ideal perm <w> [--svg FILE]
    preproj ideal permuton <file.json> --at <rat>
    preproj order bruhat <u> <v>
    preproj order permuton <A.json> <B.json>
    preproj order ideal <A.json> <B.json>
    preproj check <name> [--n N] [--perm W] [--sample K] [--files F ...] [--jobs J]
    preproj brick check <file.json>
    preproj sheet analyze <file.json> [--against FILE] [--cone y,a] [--codep y,a]
    preproj render <spec.json> -o out.svg

argv is read against one table, _COMMANDS, keyed by (command, what): a
check's name is its what, and render has none.  Flags may come in any order
after the what; a flag takes the next token as its value, even one like -1,
except --files, which takes the tokens up to the next flag of the command
(one at least); --flag=value is the same as --flag value, the last of a
repeated flag wins, -o is --output, --jobs defaults to 1, and flags are never
abbreviated.  -h or --help prints the command list above.  Every malformed
argv (unknown command, check or flag, missing or non-integer value, missing
--at or -o, wrong number of operands) exits 2 with an error line on stderr.

Permutations are digit strings for n <= 9 ("25341") and JSON arrays
otherwise.  Check reports are JSON lines followed by a summary record; the
exit code is 0 exactly when every case passed.  A flag the check does not
read (README lists them) is an error, and so are --perm beside --sample, an
--n that differs from the size of --perm, an empty --perm and flags that
leave the check with no cases.  Sweeps over all of
S_n, a --sample as large as S_n included, stop at n = PREPROJ_MAX_N - 1 (5
by default); --perm and smaller --sample runs stop at n = PREPROJ_MAX_N.

A check runs tasks: a permutation (mizuno, bridge), a permutation w and the
Hom rows it reads (taurigid), a source (rows, i) against every target
(bruhat), or a permutation or a (label, permuton) (twosided, homvanish).  A
runner decides on integers (curve units, one-line tuples, boundary rows),
itself or by a decider of the library, and validates no curve but
homvanish's staircase summands; it returns its task's lines (a passing one
spliced from pieces, a bruhat row's encoded once per sweep; a failing record
by _line) and its counts of cases and failures; cmd_check writes them as
they come, serially or from --jobs workers (capped at the CPU and task
counts).  Per-sweep memos, cleared before and after each check, do each
weak-order node (mizuno) and stripped summand (bridge) once per process; a
taurigid run over all of S_n reads every case off one finite.vanishing_rows
of every curve at rank n.  A reader closing the pipe early exits 141.
"""

from __future__ import annotations

import json
import os
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import factorial
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple

from . import continuous, finite, jsonio, permuton, render, sheets, symgroup
from .errors import ParseError, PreprojError
from .lanes import Lanes
from .limits import guard
from .rat import frac, rat_str
from .symgroup import Perm


def parse_perm(text: str) -> Perm:
    text = text.strip()
    try:
        w = Perm(json.loads(text)) if text.startswith("[") else Perm(map(int, text))
    except (ValueError, RecursionError, PreprojError) as exc:
        raise ParseError(f"cannot parse permutation {text[:40]!r}") from exc
    if w.n == 0:
        raise ParseError(f"cannot parse permutation {text[:40]!r}: it is empty")
    return w


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb", buffering=0) as fh:  # decoded once, newlines as text mode's
            text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _load_permuton(path: str) -> permuton.GridPermuton:
    return jsonio.permuton_from_json(_load_json(path))


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


# json.dumps' own C encoder for its default arguments, built once (json.dumps
# itself where the C accelerator is missing): the same bytes, no per-call set-up
_ENCODE = c_make_encoder and c_make_encoder(
    {}, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ", ",
    False, False, True)


def _line(obj) -> str:
    """json.dumps(obj) and a newline: one output line."""
    return ("".join(_ENCODE(obj, 0)) if _ENCODE else json.dumps(obj)) + "\n"


def _emit(obj: dict) -> None:
    """One line to the sys.stdout of the moment (test capture swaps it)."""
    sys.stdout.write(_line(obj))


# ---------------------------------------------------------------- ideal


def cmd_ideal_perm(args) -> int:
    w = parse_perm(args.w)
    summands = finite.ideal_of(w)
    if args.svg:  # first, so a figure that cannot be written leaves stdout empty
        spec = render.RenderSpec(1000, tuple(("curve_module", m) for m in summands))
        _write_text(args.svg, render.render_svg(spec))
    _emit({"w": str(w), "n": w.n, "summands": [
        {**jsonio.curve_module_to_json(m), "zero": finite.is_zero(m)} for m in summands]})
    return 0


def cmd_ideal_permuton(args) -> int:
    mu = _load_permuton(args.file)
    _emit(jsonio.bfunc_to_json(permuton.boundary_function(mu, args.at)))
    return 0


# ---------------------------------------------------------------- order


# what -> (operand loader, order)
_ORDERS = {
    "bruhat": (parse_perm, symgroup.bruhat_leq),
    "permuton": (_load_permuton, permuton.permuton_bruhat_leq),
    "ideal": (_load_permuton, continuous.ideal_leq),
}


def cmd_order(args) -> int:
    load, leq = _ORDERS[args.what]
    a, b = load(args.a), load(args.b)
    below, above = leq(a, b), leq(b, a)
    _emit({"leq": below, "geq": above, "comparable": below or above})
    return 0


# ---------------------------------------------------------------- check


class _Sized:
    """Tasks made as the sweep reaches them, and their number: cmd_check
    sizes the pool and its chunks by len(), and holds none ahead."""

    def __init__(self, tasks: Iterable, size: int) -> None:
        self.tasks, self.size = tasks, size

    def __iter__(self) -> Iterator:
        return iter(self.tasks)

    def __len__(self) -> int:
        return self.size


def _perms(args, default_n: int) -> list[Perm] | _Sized:
    """--perm W alone, or all of S_n as the sweep reaches it, or a seeded
    --sample of S_n, with n = --n or default_n; guarded at the size
    enumerated.  --perm takes no --sample, and an --n beside it is W's size."""
    if args.perm is not None:
        w = parse_perm(args.perm)
        if args.sample is not None:
            raise ParseError("--perm does not combine with --sample")
        if args.n is not None and args.n != w.n:
            raise ParseError(f"--n {args.n} differs from the size {w.n} of --perm {w}")
        guard(w.n)
        return [w]
    n = args.n or default_n
    guard(n, exhaustive=args.sample is None)
    size = factorial(n)
    if args.sample is None or args.sample >= size:
        guard(n, exhaustive=True)  # a sample as large as S_n is a full sweep
        return _Sized(symgroup.all_perms(n), size)
    picked = random.Random(0).sample(range(size), args.sample)
    return [symgroup.perm_at(n, t) for t in sorted(picked)]


def _permutons(args, default_perms) -> _Sized:
    """The permutations of default_perms() (which reads --perm, --n, --sample)
    and (path, permuton) for each of --files, which alone takes no
    permutations; without --perm and --files, also the uniform permutons on
    2 x 2 and 4 x 4 cells."""
    alone = args.files is not None and (args.perm, args.n, args.sample) == (None,) * 3
    perms = [] if alone else default_perms()
    uniforms = [] if args.perm is not None or args.files is not None else [
        (f"uniform:{m}", permuton.uniform(m)) for m in (2, 4)]
    files = [(path, _load_permuton(path)) for path in args.files or []]
    return _Sized(chain(perms, files, uniforms), len(perms) + len(files) + len(uniforms))


def _lines(check: str, key: str, cases: list, **counters) -> tuple[str, int, int]:
    """The lines of cases [(case, witness)], ok if witness is None, else naming it
    under key after the int counters, and their numbers of cases and failures:
    a failing record encoded by _line, a passing line spliced from its parts."""
    head = '{"check": "' + check + '", "case": '
    tail = ', "ok": true' + "".join([f', "{k}": {v}' for k, v in counters.items()]) + "}\n"
    lines, failures = [], 0
    for case, found in cases:
        if found is None:
            lines.append(head + encode_basestring_ascii(case) + tail)
        else:
            lines.append(_line({"check": check, "case": case, "ok": False, **counters, key: found}))
            failures += 1
    return "".join(lines), len(lines), failures


# each distinct curve of a sweep (2^n - 2 at most) once, emptied by cmd_check
_CURVES: dict[finite.Units, finite.Units] = {}


@lru_cache(maxsize=None)
def _weak_node(ol: tuple[int, ...]) -> tuple[tuple, tuple | None, int]:
    """(ideal_curves(ol), the first failing edge (v, s) of the lower right
    weak interval [e, w] or None, the number of reduced words of w) for the
    w with one-line notation ol.

    Reduced words of w are the saturated chains e -> w of the right weak
    order, so ideal_of agrees with stripping along every reduced word of
    every element of [e, w] exactly when it is stripping's empty word at e
    and every cover edge v s -> v (s a right descent of v) strips letter s
    from ideal_of(v s) to ideal_of(v).  The base fails as (e, None).  One
    call per permutation and sweep: cmd_check clears it before and after each."""
    curves = finite.ideal_curves(ol)
    ideal = tuple(map(_CURVES.setdefault, curves, curves))
    below = {s: _weak_node((*ol[:s - 1], ol[s], ol[s - 1], *ol[s + 1:]))
             for s in range(1, len(ol)) if ol[s - 1] > ol[s]}
    if not below:
        base_ok = ideal == finite.word_curves((), len(ol), range(1, len(ol)))
        return ideal, None if base_ok else (Perm(ol).label, None), 1
    witness = next((node[1] for node in below.values() if node[1]), None)
    if witness is None:
        witness = next(((Perm(ol).label, s) for s, (lower, _, _) in below.items()
                        if finite.strip_curves(lower, s) != ideal), None)
    return ideal, witness, sum(node[2] for node in below.values())


def _case_mizuno(w: Perm) -> tuple[str, int, int]:
    _, witness, words = _weak_node(w.one_line)
    return _lines("mizuno", "edge", [(w.label, witness)], words=words)


def _taurigid_tasks(args) -> _Sized:
    """(rows, w) for each w of the run: a run over all of S_n reads every
    curve at rank n, so rows are theirs, made once; any other run's rows are
    None, and each case reads its own curves'."""
    perms, n = _perms(args, 4), args.n or 4
    rows = finite.vanishing_rows(finite.rank_curves(n)) if len(perms) == factorial(n) else None
    return _Sized(((rows, w) for w in perms), len(perms))


def _case_taurigid(task: tuple[dict | None, Perm]) -> tuple[str, int, int]:
    rows, w = task
    pair = finite.tau_rigid_witness(finite.ideal_curves(w.one_line), rows)
    return _lines("taurigid", "pair", [(w.label, pair)])


# one strip per (min coset rep's one-line notation, vertex) and sweep
_stripped = lru_cache(maxsize=None)(continuous.stripped_summand)


def _case_bridge(w: Perm) -> tuple[str, int, int]:
    mu, label = permuton.from_perm(w), w.label
    return _lines("bridge", "column", [(f"{label}@{i}", continuous.bridge_mismatch(
        w, i, mu, _stripped)) for i in range(1, w.n)])


class _Rows(NamedTuple):
    """A bruhat sweep's two routes, the Ehresmann tableaux (symgroup) and the
    permutons' interior CDF corners (permuton), as sources and in lanes of one
    width, one per permutation; each permutation's label, and the end of a
    passing line with it as the target, JSON-encoded."""

    labels: list[str]
    tails: list[str]
    tableaux: Lanes
    cdfs: Lanes
    sources: list[tuple[tuple[int, ...], tuple[int, ...]]]


# the end of a bruhat line after its target's label: passing, and failing
# with the tableau route's verdict (the key order json.dumps keeps)
_PASS = ', "ok": true}\n'
_FAIL = {True: ', "ok": false, "tableau": true, "cdf": false}\n',
         False: ', "ok": false, "tableau": false, "cdf": true}\n'}


def _sources(perms: Iterable[Perm]) -> list[tuple[_Rows, int]]:
    """(rows, i) for each source perms[i], rows their one _Rows, packed up
    front; each permuton is built once, to read its corners.  A permutation's
    permuton has den = n, so its corners are its interior and every entry of
    either route is at most n."""
    perms = list(perms)
    top = perms[0].n  # the two routes' lanes have one width
    labels = [w.label for w in perms]
    tableaux = [w.tableau for w in perms]
    cdfs = [permuton.from_perm(w).interior for w in perms]
    rows = _Rows(labels, [encode_basestring_ascii(v)[1:] + _PASS for v in labels],
                 Lanes(tableaux, top), Lanes(cdfs, top), list(zip(tableaux, cdfs)))
    return [(rows, i) for i in range(len(perms))]


def _case_bruhat(task: tuple[_Rows, int]) -> tuple[str, int, int]:
    """Source i against every target j, one packed pass per route: the guard
    bit of lane j is set in a route's row when it puts perms[i] below
    perms[j], and a failing line carries each route's verdict.  Every line
    is the source's prefix and a target's tail: JSON escapes a string
    character by character, so these are json.dumps' bytes."""
    (labels, tails, tableaux, cdfs, sources), i = task
    tableau = tableaux.at_least(sources[i][0])
    differ = tableau ^ cdfs.at_most(sources[i][1])
    failures, tails = differ.bit_count(), tails.copy()
    while differ:  # the guard bits of the targets where the routes disagree
        bit = differ.bit_length() - 1
        j = bit // tableaux.width
        tails[j] = tails[j][:-len(_PASS)] + _FAIL[bool(tableau >> bit & 1)]
        differ ^= 1 << bit
    prefix = '{"check": "bruhat", "case": ' + encode_basestring_ascii(labels[i])[:-1] + "<="
    return prefix + prefix.join(tails), len(tails), failures


def _labelled(task) -> tuple[str, permuton.GridPermuton]:
    """A twosided or homvanish task's label and permuton; a permutation's is
    built here, as the sweep reaches it."""
    if isinstance(task, Perm):
        return f"perm:{task}", permuton.from_perm(task)
    return task


def _case_twosided(task) -> tuple[str, int, int]:
    label, mu = _labelled(task)
    return _lines("twosided", "pair", [(label, continuous.twosided_witness(mu))])


def _case_homvanish(task) -> tuple[str, int, int]:
    # the witness: the first apex pair (s, t) without a certificate, else
    # the first staircase pair (i, j) whose Hom does not vanish, for m <= 4:
    label, mu = _labelled(task)
    apexes = continuous.uncertified_apexes(mu)
    if apexes:
        return _lines("homvanish", "apexes", [(label, apexes)])
    # Hom on the curves (HomLanes) of the summands' staircases at the apexes t/8
    summands = [continuous.staircase(permuton.boundary_function(mu, Fraction(t, 8)), 8)
                for t in range(1, 8) if mu.m <= 4 and t * mu.m % 8 == 0]
    pair = finite.tau_rigid_witness([m.curve.units for m in summands])
    return _lines("homvanish", "pair", [(label, pair)])


# name -> (task runner, task source, flags the check does not read)
_CHECKS = {
    "mizuno": (_case_mizuno, lambda args: _perms(args, 4), ("files",)),
    "taurigid": (_case_taurigid, _taurigid_tasks, ("files",)),
    "bridge": (_case_bridge, lambda args: _perms(args, 5), ("files",)),
    "bruhat": (_case_bruhat, lambda args: _sources(_perms(args, 4)), ("files",)),
    "twosided": (
        _case_twosided, lambda args: _permutons(args, lambda: _perms(args, 4)), ()
    ),
    "homvanish": (
        _case_homvanish,
        lambda args: _permutons(args, lambda: _perms(args, 0) if args.perm is not None
                                else [parse_perm("25341"), parse_perm("2413")]),
        ("n", "sample"),
    ),
}


def _clear_memos() -> None:
    """Empty the per-sweep memos."""
    for clear in (_weak_node.cache_clear, _stripped.cache_clear, _CURVES.clear):
        clear()


def Pool(jobs: int):
    from multiprocessing import Pool  # imported only when a check asks for workers
    return Pool(jobs)


def cmd_check(args) -> int:
    name = args.what
    run, source, unread = _CHECKS[name]
    for flag in ("n", "sample", "jobs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ParseError(f"--{flag} must be at least 1, got {value}")
    for flag in unread:
        if getattr(args, flag) is not None:
            raise ParseError(f"check {name} does not read --{flag}")
    tasks = source(args)
    _clear_memos()
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:  # os.cpu_count reads sysfs: only a pool asks for it
        jobs = min(jobs, os.cpu_count() or 1)
    cases = failures = 0
    try:
        with Pool(jobs) if jobs > 1 else nullcontext() as pool:
            # Pool.map's chunks, ceil(tasks / 4 jobs); workers return finished text
            results = (pool.imap(run, tasks, -(-len(tasks) // (4 * jobs))) if pool
                       else map(run, tasks))
            for text, count, failed in results:
                sys.stdout.write(text)
                cases += count
                failures += failed
    finally:
        _clear_memos()  # no later caller in this process reads this sweep's entries
    if not cases:  # nothing was written
        raise ParseError(f"check {name} has no cases for these flags")
    _emit({"summary": True, "check": name, "cases": cases,
           "failures": failures, "pass": failures == 0})
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- brick / sheet


def cmd_brick_check(args) -> int:
    obj = _load_json(args.file)
    module = jsonio.module_from_json(obj)
    end_dim = sheets.end_dim(module)
    record = {"type": obj["type"], "brick": end_dim == 1}
    if isinstance(module, finite.CurveModule):
        record.update(end_dim=end_dim, deep=sheets.is_deep(module))
    _emit(record)
    return 0


def _parse_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'y,a', got {text!r}")
    return frac(parts[0]), frac(parts[1])


def cmd_sheet_analyze(args) -> int:
    sheet = jsonio.sheet_from_json(_load_json(args.file))
    against = (
        jsonio.sheet_from_json(_load_json(args.against)) if args.against else sheet
    )
    out: dict = {
        "support": [[rat_str(lo), rat_str(hi)] for lo, hi in sheet.support],
        "generators": [rat_str(g) for g in sheet.generators],
        "deep": sheets.is_deep(sheet),
    }
    if args.cone:
        y, a = _parse_pair(args.cone)
        interval = sheets.b_interval(sheet, against, y, a)
        out["cone"] = {
            "y": rat_str(y),
            "a": rat_str(a),
            "b_interval": None if interval is None else [*map(rat_str, interval)],
            "elementary": y in sheet.generators
            and sheets.elementary_exists(sheet, against, y, a),
        }
    if args.codep:
        y, a = _parse_pair(args.codep)
        cls = sheets.codependence_class(sheet, against, y, a)
        out["codependence"] = {
            "y": rat_str(y),
            "a": rat_str(a),
            "class": [rat_str(z) for z in cls],
        }
    _emit(out)
    return 0


# ---------------------------------------------------------------- render


def cmd_render(args) -> int:
    spec = render.spec_from_json(_load_json(args.spec))
    _write_text(args.output, render.render_svg(spec))
    return 0


# ---------------------------------------------------------------- wiring


_CHECK_FLAGS = {"--n": ("n", int), "--perm": ("perm", str), "--sample": ("sample", int),
                "--files": ("files", list), "--jobs": ("jobs", int)}

# (command, what) -> (handler, positional names, {flag: (dest, kind)}, required
# dests); what is the check's name for check, and None for render
_COMMANDS = {
    ("ideal", "perm"): (cmd_ideal_perm, ("w",), {"--svg": ("svg", str)}, ()),
    ("ideal", "permuton"): (cmd_ideal_permuton, ("file",), {"--at": ("at", str)}, ("at",)),
    **{("order", what): (cmd_order, ("a", "b"), {}, ()) for what in _ORDERS},
    **{("check", name): (cmd_check, (), _CHECK_FLAGS, ()) for name in _CHECKS},
    ("brick", "check"): (cmd_brick_check, ("file",), {}, ()),
    ("sheet", "analyze"): (cmd_sheet_analyze, ("file",), {
        "--against": ("against", str), "--cone": ("cone", str), "--codep": ("codep", str)}, ()),
    ("render", None): (cmd_render, ("spec",),
                       {"-o": ("output", str), "--output": ("output", str)}, ("output",)),
}


def cmd_help(args) -> int:
    sys.stdout.write(__doc__.split("\n\n")[2] + "\n")  # the command list
    return 0


def parse_args(argv: list[str]):
    """(handler, args) for argv, read against _COMMANDS by the rules of the
    module docstring; a malformed argv raises ParseError."""
    if "-h" in argv or "--help" in argv:
        return cmd_help, None
    key = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else (*argv[:1], None)
    if key not in _COMMANDS:
        raise ParseError(f"unknown command {' '.join(argv[:2])!r}; see preproj --help")
    handler, names, flags, required = _COMMANDS[key]
    shape = " ".join(filter(None, key))
    rest = [part for token in argv[1 if key[1] is None else 2:]  # --flag=value: two tokens
            for part in (token.split("=", 1) if token[:1] == "-" else (token,))]
    values = {dest: 1 if dest == "jobs" else None for dest, _ in flags.values()}
    positional, i = [], 0
    while i < len(rest):
        token, i = rest[i], i + 1
        if token[:1] != "-" or token == "-":
            positional.append(token)
            continue
        if token not in flags:
            raise ParseError(f"{shape} takes no flag {token!r}")
        (dest, kind), start = flags[token], i  # one token, or a list up to a known flag
        i = start + 1 if kind is not list else next(
            (j for j in range(i, len(rest)) if rest[j] in flags), len(rest))
        if not rest[start:i]:
            raise ParseError(f"{token} needs a value")
        try:
            values[dest] = rest[start:i] if kind is list else kind(rest[start])
        except ValueError:
            raise ParseError(f"{token} takes an integer, got {rest[start][:40]!r}") from None
    if len(positional) != len(names):
        raise ParseError(f"{shape} takes {len(names)} positional argument(s) "
                         f"({' '.join(names).upper() or 'none'}), got {len(positional)}")
    missing = [flag for flag, (dest, _) in flags.items()
               if dest in required and values[dest] is None]
    if missing:
        raise ParseError(f"{shape} needs {' or '.join(missing)}")
    return handler, SimpleNamespace(what=key[1], **dict(zip(names, positional)), **values)


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except PreprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: 128 + SIGPIPE, as the shell reports
        # the rest of the buffer goes to devnull, so shutdown's flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
