"""Tests of the benchmark itself (not of preproj).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from validate import validate  # noqa: E402


def _generate(name: str, seed: int, workdir: Path) -> gen.Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return gen.WORKLOADS[name](seed, workdir, 2)


def _shape(workload: gen.Workload, workdir: Path):
    """argv with the work directory factored out, and every JSON file."""
    argvs = [[a.replace(str(workdir), "<dir>") for a in op.argv]
             for cycle in workload.cycles for op in cycle]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs_other_seed_same_mix(name, tmp_path):
    first = _generate(name, 11, tmp_path / "a")
    again = _generate(name, 11, tmp_path / "b")
    other = _generate(name, 12, tmp_path / "c")
    assert _shape(first, tmp_path / "a") == _shape(again, tmp_path / "b")
    mix = [sorted((op.kind, op.size) for op in c) for c in first.cycles]
    assert mix == [sorted((op.kind, op.size) for op in c) for c in other.cycles]
    # every cycle has the same sizes, so any number of cycles keeps the mix
    assert all(c == mix[0] for c in mix)


def test_reduced_word_and_orders_agree_with_definitions():
    rng = random.Random(5)
    for n in (4, 7, 10):
        w = gen.random_perm(rng, n)
        word = gen.random_reduced_word(rng, w)
        line = list(range(1, n + 1))
        for j in word:
            line[j - 1], line[j] = line[j], line[j - 1]
        assert line == w
        assert len(word) == sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))
        v = gen.random_perm_of_length(rng, n, n * (n - 1) // 4)
        assert sorted(v) == list(range(1, n + 1))
        assert sum(v[i] > v[j] for i in range(n) for j in range(i + 1, n)) == n * (n - 1) // 4
    ident = gen.mixture(6, [list(range(1, 7))], [1])
    anti = gen.mixture(7, [list(range(7, 0, -1))], [1])
    assert gen.bruhat_leq(ident, anti) and not gen.bruhat_leq(anti, ident)


@pytest.fixture(scope="module")
def program():
    return run.Program()


def _op_output(program, op):
    code, out, _ = run.call(program, op.argv)
    assert code == 0
    return out


def test_validator_flags_corrupted_answers(program, tmp_path):
    rng = random.Random(3)
    w = gen.random_perm(rng, 6)
    ideal = gen.Op("ideal-perm", ["ideal", "perm", gen.perm_arg(w)],
                   {"perm": w, "word": gen.random_reduced_word(rng, w)}, 6)
    out = _op_output(program, ideal)
    assert validate(ideal, 0, out, program) is None
    record = json.loads(out)
    curve = record["summands"][2]["curve"]
    curve[3] = "0" if curve[3] != "0" else "1"
    assert validate(ideal, 0, json.dumps(record), program) is not None
    assert validate(ideal, 2, out, program) is not None

    workload = gen.permuton_orders(4, tmp_path, 1)
    for op in workload.cycles[0]:
        if op.kind in ("ideal-permuton", "order-permuton", "sheet-analyze"):
            out = _op_output(program, op)
            assert validate(op, 0, out, program) is None
            record = json.loads(out)
            if op.kind == "ideal-permuton":
                record["breakpoints"][1][1] = "1/1000"
            elif op.kind == "order-permuton":
                record["leq"] = not record["leq"]
            else:
                record["support"] = []
            assert validate(op, 0, json.dumps(record), program) is not None

    sweep = gen.Op("check-mizuno", ["check", "mizuno", "--n", "3", "--jobs", "1"],
                   {"cases": 6}, 3)
    out = _op_output(program, sweep)
    assert validate(sweep, 0, out, program) is None
    assert validate(sweep, 0, out.replace('"pass": true', '"pass": false'),
                    program) is not None
    assert validate(sweep, 0, out.split("\n", 1)[1], program) is not None


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(v) for v in range(1, 31)]
    random.Random(0).shuffle(samples)
    value, pct, beyond = run.tail(samples)
    assert (value, beyond) == (20.0, 10)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    # the next order statistic up would leave only nine beyond it
    assert sum(s > 21.0 for s in samples) == 9
    assert run.tail([float(v) for v in range(20)])[1:] == (50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_reference_seconds_follow_the_probe():
    speed = run.HostSpeed()
    ref = speed.REF_PROBE_S
    # the host at full speed, then at half speed from t = 10
    speed.samples = [(t / 10, ref) for t in range(100)]
    speed.samples += [(10 + t / 10, 2 * ref) for t in range(100)]
    # the probes inside a call are taken out of its time
    assert speed.ref_seconds(2.0, 4.0) == pytest.approx(2.0 - 21 * ref)
    assert speed.ref_seconds(12.0, 16.0) == pytest.approx((4.0 - 41 * 2 * ref) / 2)
    # a call shorter than the sampling interval takes the probes around it
    assert speed.ref_seconds(15.01, 15.02) == pytest.approx(0.005)
    assert speed.ref_seconds(30.0, 31.0) == pytest.approx(0.5)


def test_probe_timer_samples_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as speed:
        time.sleep(0.35)
    assert len(speed.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_untraced_run_leaves_layer_functions_unwrapped(program, tmp_path):
    rng = random.Random(8)
    w = gen.random_perm(rng, 7)
    op = gen.Op("ideal-perm", ["ideal", "perm", gen.perm_arg(w)],
                {"perm": w, "word": gen.random_reduced_word(rng, w)}, 7)
    workload = gen.Workload([[op]], op)
    records = run.measure(program, workload)
    assert records[0].failure is None
    assert tracer.wrapped_functions() == []

    traced = tracer.Tracer()
    with traced.op(0):
        inside = tracer.wrapped_functions()
    assert "preproj.finite.ideal_of" in inside
    assert "preproj.continuous.ideal_of" in inside
    assert "preproj.plfunc.PLFunc.at" in inside
    assert tracer.wrapped_functions() == []


def test_traced_self_times_cover_the_call(program):
    traced = tracer.Tracer()
    code, _, wall = run.call(program, ["check", "bridge", "--n", "4", "--jobs", "1"],
                             traced.op(0))
    assert code == 0
    totals = traced.layer_totals()
    assert sum(secs for _, secs in totals.values()) == pytest.approx(wall, rel=1e-3)
    assert totals["finite"][0] > 0 and totals["permuton"][0] > 0
    assert traced.calls["finite.ideal_of"] == 72  # one per (perm, vertex) case


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
