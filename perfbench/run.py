"""preproj benchmark: closed-loop calls of ``preproj.cli.main`` in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Workloads (see ``gen.py``):

  sweep-exhaustive  the six ``check`` sweeps over S_5 at the default guard
  targeted-large    single large objects, PREPROJ_MAX_N raised to 20
  permuton-orders   grid permutons with m = 5..13, the two orders, sheets

One call runs at a time, checks with ``--jobs 1``, stdout captured.  Set-up
(import, input generation, JSON files, one untimed warm-up call) is repeated
and its median reported.  The run then makes every call of a fixed number of
cycles of the workload's ops (every cycle has the same sizes); ``--seconds``
sets that number through the nominal cycle time in ``gen.py``, so two
commits measured alike make the same calls; each call is timed once.  Every
answer is checked outside the timed region.

The gated times are reference seconds.  A shared host's speed drifts by a
quarter and more, over seconds and between runs, and the drift moves process
CPU time as much as wall time.  So in the untraced run an interval timer
(``HostSpeed``) interrupts the process every 100 ms to time a small fixed
pure-Python probe, no ``preproj`` code.  Each call's and set-up's wall time,
less the probes that ran inside it, is scaled by the probe's reference time
over the median probe timed during it or within 0.3 s of it.  A change to
the program moves the call and not the probe; a slower host moves both.  The
wall-time figures, which include the probes' share of about 5%, are printed
beside the gated ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each op
untraced and traced, in alternating order, and reports the per-layer metrics
from the traced calls and the tracing overhead from the pair.  Every metric is
printed as ``name = value unit``; the last line of stdout is one JSON object
with the metrics of the chosen mode.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import gen
from tracer import PACKAGE, Tracer
from validate import validate

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
MODULES = ("cli", "symgroup", "finite", "linalg", "permuton", "continuous",
           "plfunc", "sheets", "jsonio")

# The metrics of the final JSON line (BENCHMARK.json lists the same names);
# the times behind them are reference seconds (see ``HostSpeed``).  The call
# latencies (median and tail) are printed but not gated: on a shared two-core
# machine they moved by more than the bound from run to run, while the
# throughputs, summed over every call of a run, stayed within it.
END_TO_END = {
    "setup_s": "s",
    "check_cases_per_s": "cases/s",
    "calls_per_s": "calls/s",
    "peak_rss_mb": "MB",
}
# Only the layer metrics that are nonzero on every workload; the others (the
# finite, symgroup, linalg, sheets and jsonio figures and the function
# counters) are printed by the traced run.
PER_LAYER = {
    "cli.self_s": "s",
    "permuton.self_s": "s",
    "continuous.self_s": "s",
    "plfunc.self_s": "s",
    "permuton.boundary_function.self_s": "s",
    "cli.calls": "count",
    "permuton.calls": "count",
    "continuous.calls": "count",
    "plfunc.calls": "count",
    "permuton.cdf.calls": "count",
}


class Program:
    """The imported ``preproj`` modules, freshly loaded from ``ROOT/src``."""

    def __init__(self) -> None:
        src = str(ROOT / "src")
        if sys.path[0] != src:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))
        origin = Path(sys.modules[PACKAGE].__file__).resolve()
        if ROOT / "src" not in origin.parents:
            raise ImportError(f"{PACKAGE} was imported from {origin}, not {src}")


class HostSpeed:
    """Samples the host's speed while the untraced run works.

    ``SIGALRM`` fires every ``EVERY_S``; its handler runs between two
    bytecodes of the main thread and times ``_work`` there, with the garbage
    collector off so the program's heap does not enter the probe.  ``_work``
    is pure-Python work of the kind the program does (``Fraction``
    arithmetic, tuple-keyed dicts, sorting); on the reference machine
    (Python 3.11, 2 shared cores) it takes about ``REF_PROBE_S``.  Use as a
    context manager around the timed work.
    """

    EVERY_S = 0.1
    WINDOW_S = 0.3
    REF_PROBE_S = 0.005

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._probing = False
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._work()  # warm the probe's own code paths
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def _work() -> int:
        acc, table = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, 2 * i + 7) ** 2 - Fraction(1, i)
            table[i % 37, i % 11] = acc
        order = sorted(range(1500), key=lambda x: (x * 7919) % 1501)
        return len(table) + sum(x for x in order[::7] if x % 3)

    def _probe(self, *_signal) -> None:
        if self._probing:  # a late signal during a probe
            return
        self._probing, collecting = True, gc.isenabled()
        gc.disable()
        start = perf_counter()
        self._work()
        self.samples.append((start, perf_counter() - start))
        if collecting:
            gc.enable()
        self._probing = False

    def ref_seconds(self, start: float, end: float) -> float:
        """The wall interval [start, end], less the probes inside it, in
        reference seconds."""
        inside = sum(secs for t, secs in self.samples if start <= t <= end)
        near = [secs for t, secs in self.samples
                if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return (end - start - inside) * self.REF_PROBE_S / statistics.median(near)


class Record(NamedTuple):
    """One timed op: wall seconds and the time they ended, the failure if
    any, and the untraced wall seconds of the same op in a traced run."""

    op: gen.Op
    seconds: float
    end: float
    failure: str | None
    plain: float | None


def call(program: Program, argv: list[str],
         span=None) -> tuple[int | None, str, float]:
    """One in-process CLI call: exit code (None if it raised), stdout, seconds.

    ``span`` (a ``Tracer.op``) wraps only the timed region, so a traced and
    an untraced call time the same work; the collection and the capture
    set-up before it are in neither.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            span or contextlib.nullcontext():
        start = perf_counter()
        try:
            code = program.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        seconds = perf_counter() - start
    if code != 0:
        sys.stderr.write(f"call {argv} failed: {err.getvalue().strip()[-300:]}\n")
    return code, out.getvalue(), seconds


class Checker:
    """Validates each distinct answer once; a repeated op with the same output
    reuses the verdict."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.seen: dict[int, tuple[str, str | None]] = {}

    def __call__(self, op: gen.Op, code: int | None, out: str) -> str | None:
        cached = self.seen.get(id(op))
        if code == 0 and cached is not None and cached[0] == out:
            return cached[1]
        verdict = validate(op, code, out, self.program)
        if code == 0:
            self.seen[id(op)] = (out, verdict)
        if verdict is not None:
            sys.stderr.write(f"wrong answer for {op.argv}: {verdict}\n")
        return verdict


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Of N sorted samples that is the (N-10)-th, at percentile 100 (N-10)/N,
    with ten samples above it.  With fewer than 20 samples even the median
    has fewer than ten beyond it; then the maximum is returned, with none
    beyond it.  Returns (value, percentile, samples beyond).
    """
    xs = sorted(samples)
    rank = len(xs) - 10
    if 2 * rank < len(xs):
        return xs[-1], 100.0, 0
    return xs[rank - 1], 100.0 * rank / len(xs), 10


def ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": nproc,
        "PREPROJ_MAX_N": os.environ.get("PREPROJ_MAX_N", "default"),
        "jobs": 1,
    }


# ---------------------------------------------------------------- phases


def set_up(name: str, seed: int, seconds: float, workdir: Path):
    """Import, generate, write the JSON files and make one warm-up call;
    repeated.  Returns the (start, end) wall interval of each repetition."""
    spans, failures = [], 0
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program = Program()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = gen.WORKLOADS[name](seed, workdir, gen.cycle_count(name, seconds))
        code, out, _ = call(program, workload.warmup.argv)
        spans.append((start, perf_counter()))
        if validate(workload.warmup, code, out, program) is not None:
            failures += 1
    return program, workload, spans, failures


def measure(program: Program, workload: gen.Workload, tracer=None):
    """Every call of every cycle, each timed once; one ``Record`` per op."""
    check = Checker(program)
    records = []
    for cycle in workload.cycles:
        for op in cycle:
            if tracer is None:
                code, out, dt = call(program, op.argv)
                end = perf_counter()
                records.append(Record(op, dt, end, check(op, code, out), None))
            else:
                records.append(_traced(program, check, tracer, op, len(records)))
    return records


def _traced(program: Program, check, tracer, op: gen.Op, op_id: int):
    """One op untraced and traced, in alternating order."""
    traced_first = op_id % 2 == 1
    if traced_first:
        code_t, out_t, dt = call(program, op.argv, tracer.op(op_id))
    code, out, plain = call(program, op.argv)
    if not traced_first:
        code_t, out_t, dt = call(program, op.argv, tracer.op(op_id))
    return Record(op, dt, perf_counter(),
                  check(op, code, out) or check(op, code_t, out_t), plain)


def end_to_end(records, setup_spans, speed: HostSpeed) -> tuple[dict, dict]:
    """The gated metrics (reference seconds) and the printed-only ones (wall
    seconds)."""
    refs = [speed.ref_seconds(r.end - r.seconds, r.end) for r in records]
    latencies = [r.seconds for r in records]
    checks = [(r, ref) for r, ref in zip(records, refs) if r.op.is_check]
    queries = [r.seconds for r in records if not r.op.is_check]
    cases = sum(r.op.expect["cases"] for r, _ in checks)
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(speed.ref_seconds(*span) for span in setup_spans),
        "check_cases_per_s": ratio(cases, sum(ref for _, ref in checks)),
        "calls_per_s": len(records) / sum(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probes = statistics.quantiles([secs for _, secs in speed.samples], n=4)
    extra = {"wall_setup_s": (statistics.median(b - a for a, b in setup_spans), "s"),
             "wall_check_cases_per_s": (ratio(cases, sum(r.seconds for r, _ in checks)),
                                        "cases/s"),
             "wall_calls_per_s": (len(records) / sum(latencies), "calls/s"),
             "host_probe_p50_ms": (1000 * probes[1], "ms"),
             "host_probe_iqr_share": ((probes[2] - probes[0]) / probes[1], "ratio"),
             "host_probes": (len(speed.samples), "count"),
             "call_p50_ms": (1000 * statistics.median(latencies), "ms"),
             "call_tail_ms": (1000 * value, "ms"), "call_tail_percentile": (pct, "%"),
             "call_tail_beyond": (beyond, "count"), "calls": (len(latencies), "count")}
    for kind in sorted({r.op.kind for r in records}):
        mine = [r.seconds for r in records if r.op.kind == kind]
        extra[f"{kind}.p50_ms"] = (1000 * statistics.median(mine), "ms")
    for name in sorted({r.op.argv[1] for r, _ in checks}):
        mine = [(r, ref) for r, ref in checks if r.op.argv[1] == name]
        extra[f"{name}_cases_per_s"] = (
            ratio(sum(r.op.expect["cases"] for r, _ in mine),
                  sum(ref for _, ref in mine)), "cases/s")
    if queries:
        q_value, q_pct, q_beyond = tail(queries)
        extra["query_p50_ms"] = (1000 * statistics.median(queries), "ms")
        extra["query_tail_ms"] = (1000 * q_value, "ms")
        extra["query_tail_percentile"] = (q_pct, "%")
        extra["query_tail_beyond"] = (q_beyond, "count")
        extra["queries"] = (len(queries), "count")
    return metrics, extra


def per_layer(records, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the traced calls, and the overhead summary."""
    totals = tracer.layer_totals()
    calls, self_time, counts = tracer.calls, tracer.self_time, tracer.counts
    found = {}
    for layer, (n, secs) in totals.items():
        found[f"{layer}.calls"] = n
        found[f"{layer}.self_s"] = secs
    for fn in ("symgroup.all_reduced_words", "finite.ideal_via_word", "finite.ideal_of",
               "finite.to_rep", "finite.hom_dim", "linalg.rank_of_sparse_rows",
               "permuton.boundary_function", "permuton.permuton_bruhat_leq",
               "continuous.ideal_leq", "sheets.is_brick"):
        found[f"{fn}.self_s"] = self_time.get(fn, 0.0)
    for fn in ("finite.top_removable", "finite.strip", "finite.ideal_of",
               "permuton.from_perm", "permuton.cdf"):
        found[f"{fn}.calls"] = calls.get(fn, 0)
    for key in ("symgroup.reduced_words", "finite.hom_dim.unknowns", "linalg.rows",
                "permuton.refine.cells", "continuous.ideal_leq.apexes"):
        found[key] = counts.get(key, 0)
    found["finite.strip_ratio"] = ratio(calls.get("finite.strip", 0),
                                        calls.get("finite.top_removable", 0))
    found["finite.hom_dim.zero_ratio"] = ratio(counts.get("finite.hom_dim.zero", 0),
                                               calls.get("finite.hom_dim", 0))
    found["permuton.from_perm.distinct_ratio"] = ratio(
        len(tracer.distinct_perms), calls.get("permuton.from_perm", 0))

    traced = sum(r.seconds for r in records)
    plain = sum(r.plain for r in records)
    layered = sum(secs for _, secs in totals.values())
    summary = {
        "traced_wall_s": (traced, "s"),
        "untraced_wall_s": (plain, "s"),
        "tracing_overhead_s": (traced - plain, "s"),
        "tracing_overhead_share": (ratio(traced - plain, plain), "ratio"),
        "layer_self_sum_s": (layered, "s"),
        "layer_self_coverage": (ratio(layered, traced), "ratio"),
        "spans_kept": (len(tracer.spans), "count"),
        "spans_dropped": (tracer.dropped, "count"),
    }
    heaviest = sorted(self_time.items(), key=lambda kv: -kv[1])[:12]
    for name, secs in heaviest:
        summary[f"top.{name}.self_s"] = (secs, "s")
        summary[f"top.{name}.calls"] = (calls[name], "count")
    return found, summary


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def mix(records) -> dict:
    """Measured input shares: comparable order pairs, large-n objects."""
    pairs = [r.op for r in records if r.op.kind in ("order-permuton", "order-ideal")]
    return {
        "comparable_pair_share": (ratio(sum(op.expect["comparable"] for op in pairs),
                                        len(pairs)), "ratio"),
        "large_n_share": (ratio(sum(r.op.large for r in records), len(records)),
                          "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        Program()
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1

    workdir = WORK / args.workload
    max_n = gen.MAX_N[args.workload]
    if max_n is None:
        os.environ.pop("PREPROJ_MAX_N", None)
    else:
        os.environ["PREPROJ_MAX_N"] = str(max_n)

    # the traced run measures no reference seconds, so no probe perturbs it
    speed = HostSpeed()
    with contextlib.nullcontext() if args.trace else speed:
        program, workload, setup_spans, setup_failures = set_up(
            args.workload, args.seed, args.seconds, workdir)
        tracer = Tracer() if args.trace else None
        records = measure(program, workload, tracer)

    failed = setup_failures + sum(r.failure is not None for r in records)
    attempted = SETUP_REPEATS + len(records)
    env = environment()
    printed = {"fail_ratio": (ratio(failed, attempted), "failed/attempted"),
               **mix(records)}
    if tracer is None:
        metrics, extra = end_to_end(records, setup_spans, speed)
        printed.update(extra)
        shown = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        found, summary = per_layer(records, tracer)
        printed.update(summary)
        shown = {k: (v, unit_of(k)) for k, v in sorted(found.items())}
        result = {k: {"value": found[k], "unit": unit} for k, unit in PER_LAYER.items()}
        tracer.write(workdir / "trace.jsonl")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit) in {**shown, **printed}.items():
        print(f"{name} = {value!r} {unit}")
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": {**shown, **printed}}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
