import io
import json
import os
import pickle
import random
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction as F
from functools import cached_property
from math import factorial
from multiprocessing.pool import Pool
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bruhat_by_covers, bruhat_by_subwords, bruhat_row_by_records,
                      frac_by_fraction_parse, hom_vanishing_cert, homvanish_apexes_by_all_pairs,
                      homvanish_by_plfuncs, line_by_dumps, load_json_by_text_mode,
                      mizuno_by_words, permuton_to_json, random_permuton, record_by_dict,
                      sample_by_listing, sheet_to_json, twosided_by_plfuncs,
                      twosided_pair_by_plfuncs)
from preproj import cli, continuous, finite, jsonio, permuton, plfunc, sheets, symgroup
from preproj.cli import main, parse_perm
from preproj.errors import CertificateFailure, ParseError
from preproj.finite import projective
from preproj.lanes import Lanes
from preproj.limits import scale_limit
from preproj.permuton import from_perm, uniform
from preproj.plfunc import BFunc, PLFunc, bottom_curve, top_curve
from preproj.rat import rat_str
from preproj.sheets import Sheet
from preproj.symgroup import Perm, all_perms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


def records(result) -> list[dict]:
    """A runner's records, read back from its lines; its counts of cases and
    failures must be theirs."""
    text, cases, failures = result
    out = [json.loads(line) for line in text.splitlines()]
    assert (cases, failures) == (len(out), sum(not r["ok"] for r in out))
    return out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def count_lanes(monkeypatch) -> tuple[list, list]:
    """Record each HomLanes packing (its targets) and each pair (source,
    target) that a pass computes, in order."""
    packings, pairs = [], []
    init, dims = finite.HomLanes.__init__, finite.HomLanes.dims

    def packing(self, targets):
        init(self, targets)
        packings.append(self.targets)

    def counting(self, a):
        pairs.extend((a, b) for b in self.targets)
        return dims(self, a)

    monkeypatch.setattr(finite.HomLanes, "__init__", packing)
    monkeypatch.setattr(finite.HomLanes, "dims", counting)
    return packings, pairs


class TestParsePerm:
    def test_digits(self):
        assert parse_perm("25341") == Perm((2, 5, 3, 4, 1))

    def test_json_array(self):
        assert parse_perm("[10,2,3,4,5,6,7,8,9,1]").n == 10

    def test_junk(self):
        with pytest.raises(ParseError):
            parse_perm("99")

    @pytest.mark.parametrize("text", ["", "  ", "[]"])
    def test_empty_permutation_rejected(self, text):
        with pytest.raises(ParseError, match="empty"):
            parse_perm(text)


class TestIdealCommands:
    def test_ideal_perm(self, capsys, tmp_path):
        svg_path = tmp_path / "out.svg"
        code, lines = run(capsys, "ideal", "perm", "25341", "--svg", str(svg_path))
        assert code == 0
        (payload,) = lines
        assert payload["w"] == "25341"
        assert payload["summands"][0]["zero"] is True
        assert payload["summands"][1]["curve"] == ["2/5", "1/5", "2/5", "3/5", "4/5", "3/5"]
        assert svg_path.read_text().startswith("<?xml")

    def test_ideal_perm_identity(self, capsys):
        code, lines = run(capsys, "ideal", "perm", "12345")
        assert code == 0
        assert all(not s["zero"] for s in lines[0]["summands"])

    def test_ideal_permuton(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "mu.json", permuton_to_json(from_perm(Perm((2, 5, 3, 4, 1))))
        )
        code, lines = run(capsys, "ideal", "permuton", path, "--at", "2/5")
        assert code == 0
        assert lines[0]["k"] == "2/5"
        assert lines[0]["breakpoints"][0] == ["0", "2/5"]

    def test_parse_error_exit_code(self, capsys):
        assert main(["ideal", "perm", "99"]) == 2

    def test_huge_exponent_at_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "mu.json", permuton_to_json(uniform(2)))
        assert main(["ideal", "permuton", path, "--at", "1e999999999"]) == 2

    def test_too_many_digits_at_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "mu.json", permuton_to_json(uniform(2)))
        assert main(["ideal", "permuton", path, "--at", "1e-4300"]) == 2
        assert "more than 4300 digits" in capsys.readouterr().err

    @staticmethod
    def text_mode_error(path) -> str:
        """The error line of a file read in text mode, the route it replaced."""
        with pytest.raises(ParseError) as exc:
            load_json_by_text_mode(str(path))
        assert str(exc.value).startswith(f"cannot read JSON from {path}: ")
        return f"error: {exc.value}\n"

    @pytest.mark.parametrize(
        "content",
        [b'{"m": ' + b"1" * 5000 + b', "mass": []}', b"\xff\xfe{",
         b'\xef\xbb\xbf{"m": 1, "mass": [["1"]]}', b'{"m": 1, "mass": [["1"',
         b'{"m": 1,\r\n "mass":\r\n [["1"]],,\r\n}', b'{"m": 1,\r "mass":\r [["1"]],,\r}',
         b'{"m": 1, "mass": [["\r\n"]]}', b" " * 9000 + b'{"m": 1, "mass": \xe2\x82'],
        ids=["integer-over-digit-limit", "not-utf8", "utf8-bom", "truncated", "crlf-syntax",
             "cr-syntax", "crlf-in-string", "cut-utf8-past-a-buffer"],
    )
    def test_unreadable_json_file(self, capsys, tmp_path, content):
        path = tmp_path / "mu.json"
        path.write_bytes(content)
        assert main(["ideal", "permuton", str(path), "--at", "1/2"]) == 2
        assert capsys.readouterr() == ("", self.text_mode_error(path))

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_json_path(self, capsys, tmp_path, where):
        path = tmp_path / "m.json"
        if where == "directory":
            path.mkdir()
        assert main(["brick", "check", str(path)]) == 2
        assert capsys.readouterr() == ("", self.text_mode_error(path))

    def test_newlines_read_as_text_mode_reads_them(self, capsys, tmp_path):
        payload = {"type": "curve_module", **jsonio.curve_module_to_json(projective(2, 5))}
        path = tmp_path / "m.json"
        path.write_bytes(json.dumps(payload, indent=1).replace("\n", "\r\n").encode())
        assert main(["brick", "check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["end_dim"] == 2

    @pytest.mark.parametrize(
        "text", ["[1,2.7,3]", "[true,2]", '["1","2"]', "[1,[2]]", "", "[]"]
    )
    def test_non_integer_entries_rejected(self, capsys, text):
        assert main(["ideal", "perm", text]) == 2

    @pytest.mark.parametrize(
        "payload", [{"m": 1, "mass": 5}, {"m": "x", "mass": [["1"]]}]
    )
    def test_malformed_permuton_file(self, capsys, tmp_path, payload):
        path = write_json(tmp_path, "mu.json", payload)
        assert main(["ideal", "permuton", path, "--at", "1/2"]) == 2


class TestOrderCommands:
    def test_bruhat(self, capsys):
        code, lines = run(capsys, "order", "bruhat", "2143", "3412")
        assert code == 0
        assert lines[0] == {"leq": True, "geq": False, "comparable": True}

    def test_permuton(self, capsys, tmp_path):
        a = write_json(tmp_path, "a.json", permuton_to_json(from_perm(Perm((1, 2)))))
        b = write_json(tmp_path, "b.json", permuton_to_json(uniform(2)))
        code, lines = run(capsys, "order", "permuton", a, b)
        assert code == 0
        assert lines[0]["leq"] is True and lines[0]["geq"] is False

    def test_ideal(self, capsys, tmp_path):
        a = write_json(
            tmp_path, "a.json", permuton_to_json(from_perm(Perm((3, 2, 1))))
        )
        b = write_json(
            tmp_path, "b.json", permuton_to_json(from_perm(Perm((2, 3, 1))))
        )
        code, lines = run(capsys, "order", "ideal", a, b)
        assert code == 0
        assert lines[0] == {"leq": True, "geq": False, "comparable": True}


class TestIdealCrossCheck:
    """ideal_leq reads both of its routes off permuton when it is called, so
    either one planted wrong there makes them disagree: CertificateFailure,
    and order ideal exits 2 with its error line and nothing on stdout."""

    @pytest.mark.parametrize("route", ["boundary_function", "permuton_bruhat_leq"])
    def test_a_wrong_route_fails_the_cross_check(self, capsys, tmp_path, monkeypatch, route):
        i321, i231 = from_perm(Perm((3, 2, 1))), from_perm(Perm((2, 3, 1)))
        true = getattr(permuton, route)
        monkeypatch.setattr(permuton, route, {
            "boundary_function": lambda mu, y: BFunc(y, top_curve(y)),  # always P_y
            "permuton_bruhat_leq": lambda mu, nu: not true(mu, nu),
        }[route])
        with pytest.raises(CertificateFailure, match="curve and CDF routes disagree"):
            continuous.ideal_leq(i231, i321)  # I_231 is not inside I_321
        a = write_json(tmp_path, "a.json", permuton_to_json(i321))
        b = write_json(tmp_path, "b.json", permuton_to_json(i231))
        assert main(["order", "ideal", a, b]) == 2
        assert capsys.readouterr() == (
            "", "error: curve and CDF routes disagree on ideal inclusion\n")


def _off_canonical(literal: str, k: int) -> str:
    """An equal cell literal off the wire's canonical form, chosen by k."""
    q = F(literal)
    return [f"{3 * q.numerator}/{3 * q.denominator}", f" +{literal} ",
            "-0" if q == 0 else f"{q.numerator}_0/{q.denominator}0",
            "0.0e1" if q == 0 else f"0{q.numerator}/00{q.denominator}"][k % 4]


class TestCellLiterals:
    """Permuton files with non-canonical cells print the same bytes as the
    canonical file; a rejected cell exits 2 with the former reader's text."""

    def write_pair(self, tmp_path, mu, nu):
        for folder, reform in (("canonical", False), ("wire", True)):
            (tmp_path / folder).mkdir()
            for name, p in (("mu.json", mu), ("nu.json", nu)):
                wire = permuton_to_json(p)
                if reform:
                    wire["mass"] = [[_off_canonical(v, r * p.m + c)
                                     for c, v in enumerate(row)]
                                    for r, row in enumerate(wire["mass"])]
                write_json(tmp_path / folder, name, wire)

    @pytest.mark.parametrize("argv", [
        ("order", "permuton", "mu.json", "nu.json"),
        ("order", "ideal", "mu.json", "nu.json"),
        ("order", "ideal", "nu.json", "mu.json"),
        ("ideal", "permuton", "mu.json", "--at", "3/7"),
        ("ideal", "permuton", "nu.json", "--at", "2/5"),
        ("check", "twosided", "--perm", "2413", "--files", "mu.json", "nu.json"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_same_bytes_as_canonical(self, capsys, tmp_path, monkeypatch, argv):
        rng = random.Random(29)
        self.write_pair(tmp_path, random_permuton(rng, 5, 9), random_permuton(rng, 7, 9))
        outs = []
        for folder in ("canonical", "wire"):
            monkeypatch.chdir(tmp_path / folder)
            code = main(list(argv))
            outs.append((code, capsys.readouterr()))
        assert outs[0][0] == 0 and outs[0][1].out.strip()
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("cell", ["1/0", "1/5/2", "1" * 4301],
                             ids=["zero-den", "two-slashes", "4301-digits"])
    def test_rejected_cell_exits_2(self, capsys, tmp_path, cell):
        wire = permuton_to_json(uniform(2))
        wire["mass"][1][0] = cell
        path = write_json(tmp_path, "mu.json", wire)
        with pytest.raises(ParseError) as former:
            frac_by_fraction_parse(cell)
        assert str(former.value) == f"bad rational literal {cell!r}"
        # the same error, its literal cut at 40 characters like the other caps'
        error = f"error: bad rational literal {cell[:40]!r}\n"
        assert len(error) < 80
        for argv in (("ideal", "permuton", path, "--at", "1/2"),
                     ("order", "permuton", path, path),
                     ("check", "twosided", "--perm", "21", "--files", path)):
            assert main(list(argv)) == 2
            assert capsys.readouterr() == ("", error)


class TestCheckCommand:
    @pytest.mark.parametrize(
        "name,n",
        [("mizuno", 3), ("taurigid", 3), ("bridge", 3), ("bruhat", 3), ("twosided", 3)],
    )
    def test_small_sweeps_pass(self, capsys, name, n):
        code, lines = run(capsys, "check", name, "--n", str(n))
        assert code == 0
        summary = lines[-1]
        assert summary["summary"] and summary["pass"] and summary["failures"] == 0

    def test_single_perm(self, capsys):
        code, lines = run(capsys, "check", "taurigid", "--perm", "25341", "--n", "5")
        assert code == 0
        assert lines[0]["case"] == "25341" and lines[0]["ok"]

    def test_homvanish_with_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "mu.json", permuton_to_json(uniform(2)))
        code, lines = run(capsys, "check", "homvanish", "--files", path)
        assert code == 0
        assert lines[-1]["pass"]

    def test_homvanish_builds_each_apex_rep_once(self, capsys, monkeypatch):
        packings, homs = count_lanes(monkeypatch)
        code, lines = run(capsys, "check", "homvanish", "--perm", "2143")
        assert code == 0 and lines[-1]["pass"]
        # grid m = 4 at n = 8: apexes 1/4, 1/2, 3/4, one lane per (sub, quot)
        # pair, the three quotients packed once, counted on the curves
        assert len(homs) == 9 and len(packings) == 1
        assert len({m for pair in homs for m in pair}) == 6

    @staticmethod
    def count_boundary_rows(monkeypatch) -> list:
        # the checks read rows directly, boundary_function reads them too
        calls = []
        original = permuton.boundary_row

        def counting(mu, p, q):
            calls.append((p, q))
            return original(mu, p, q)

        monkeypatch.setattr(permuton, "boundary_row", counting)
        return calls

    def test_homvanish_builds_each_curve_once(self, capsys, monkeypatch):
        calls = self.count_boundary_rows(monkeypatch)
        code, lines = run(capsys, "check", "homvanish", "--perm", "2143")
        assert code == 0 and lines[-1]["pass"]
        # 20 apexes t/21, then the staircase summands at 1/4, 1/2, 3/4
        assert len(calls) == 23 and len({F(p, q) for p, q in calls}) == 23

    def test_twosided_builds_each_curve_once(self, capsys, monkeypatch):
        calls = self.count_boundary_rows(monkeypatch)
        code, lines = run(capsys, "check", "twosided", "--perm", "25341")
        assert code == 0 and lines[-1]["pass"]
        assert calls == [(r, 5) for r in range(1, 5)]

    def test_homvanish_verdict_matches_per_pair_certificates(self):
        rng = random.Random(5)
        grid = [F(t, 21) for t in range(1, 21)]

        def by_pairs(mu) -> bool:
            try:
                for a in grid:
                    for b in grid:
                        continuous.tau_rigidity_cert(mu, a, b)
            except CertificateFailure:
                return False
            return True

        for _ in range(4):
            mu = random_permuton(rng, rng.randint(5, 9))
            [record] = records(cli._case_homvanish(("mu", mu)))
            assert record["ok"] == by_pairs(mu)
            for _ in range(20):
                a, b = (F(rng.randint(1, d - 1), d) for d in rng.choices(range(2, 50), k=2))
                assert hom_vanishing_cert(
                    permuton.boundary_function(mu, a), permuton.boundary_function(mu, b)
                ) is continuous.tau_rigidity_cert(mu, a, b)

    def test_homvanish_fails_without_certificate(self, monkeypatch):
        mu = from_perm(Perm((2, 5, 3, 4, 1)))
        bad = (F(4, 21), F(11, 21))
        # the check classifies f - g by the rises of its samples at c/m
        f, g = (permuton.boundary_row(mu, t, 21) for t in (4, 11))
        d = [a - b for a, b in zip(f, g)]
        bad_rises = [b - a for a, b in zip(d, d[1:])]
        cert = continuous._difference_class

        def one_missing(a, b):
            # tau_rigidity_cert scales the rises of both rows at t/21 by 21^2
            if [x - y for x, y in zip(a, b)] == [441 * r for r in bad_rises]:
                return plfunc.MonotoneClass.NEITHER
            return cert(a, b)

        with monkeypatch.context() as mp:
            mp.setattr(continuous, "_difference_class", one_missing)
            with pytest.raises(CertificateFailure):
                continuous.tau_rigidity_cert(mu, *bad)
        classify, hits = plfunc.rises_class, []

        def one_unclassified(rises):
            if list(rises) == bad_rises:
                hits.append(rises)
                return plfunc.MonotoneClass.NEITHER
            return classify(rises)

        record = {"check": "homvanish", "case": "mu", "ok": True}
        assert records(cli._case_homvanish(("mu", mu))) == [record]
        monkeypatch.setattr(plfunc, "rises_class", one_unclassified)
        assert records(cli._case_homvanish(("mu", mu))) == [
            {**record, "ok": False, "apexes": [4, 11]}]
        assert len(hits) == 1

    def test_parser_built_once_and_flags_do_not_leak(self, capsys, monkeypatch, tmp_path):
        seen = []
        permutons = cli._permutons

        def recording(args, default_perms):
            seen.append(args.files)
            return permutons(args, default_perms)

        monkeypatch.setattr(cli, "_permutons", recording)
        path = write_json(tmp_path, "mu.json", permuton_to_json(uniform(2)))
        code, lines = run(capsys, "check", "twosided", "--files", path)
        assert code == 0 and lines[-1]["cases"] == 1
        code, lines = run(capsys, "check", "twosided", "--n", "3")
        assert code == 0 and lines[-1]["cases"] == 8
        assert seen == [[path], None]

    @pytest.mark.parametrize("flags,perms", [
        (["--n", "3"], 6), (["--n", "4", "--sample", "2"], 2), (["--sample", "3"], 3),
        (["--perm", "2413"], 1), ([], 0)])
    def test_twosided_runs_selected_perms_and_files(self, capsys, tmp_path, flags, perms):
        path = write_json(tmp_path, "mu.json", permuton_to_json(uniform(3)))
        code, lines = run(capsys, "check", "twosided", "--files", path, *flags)
        assert code == 0 and lines[-1]["cases"] == perms + 1
        assert [r["case"].startswith("perm:") for r in lines[:-1]] == [True] * perms + [False]

    @pytest.mark.parametrize("name", list(cli._CHECKS))
    def test_parallel_matches_serial(self, capsys, name):
        flags = [] if name == "homvanish" else ["--n", "3"]
        code1, serial = run(capsys, "check", name, *flags)
        code2, parallel = run(capsys, "check", name, *flags, "--jobs", "2")
        assert code1 == code2 == 0
        assert serial == parallel

    @pytest.mark.parametrize(
        "name,flags",
        [(name, ["--files", "missing.json"])
         for name in ("mizuno", "taurigid", "bridge", "bruhat")]
        + [("homvanish", ["--n", "9"]), ("homvanish", ["--sample", "2"])],
    )
    def test_unread_flags_rejected(self, capsys, name, flags):
        assert main(["check", name, *flags]) == 2
        assert f"check {name} does not read {flags[0]}" in capsys.readouterr().err

    def test_perm_and_sample_flags_are_read(self, capsys):
        code, lines = run(capsys, "check", "bruhat", "--perm", "21")
        assert code == 0 and [r["case"] for r in lines[:-1]] == ["21<=21"]
        code, lines = run(capsys, "check", "bridge", "--n", "4", "--sample", "1")
        assert code == 0 and lines[-1]["cases"] == 3
        code, lines = run(capsys, "check", "twosided", "--n", "4", "--sample", "2")
        assert code == 0 and lines[-1]["cases"] == 4

    @pytest.mark.parametrize(
        "flags",
        [["--sample", "-3"], ["--sample", "0"], ["--n", "0"], ["--n", "-1"],
         ["--jobs", "-2"], ["--jobs", "0"]],
    )
    def test_bad_flag_values(self, capsys, flags):
        assert main(["check", "mizuno", *flags]) == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,named",
        [(["--perm", "2413", "--sample", "3"], "--sample"),
         (["--perm", "2413", "--n", "5"], "--n 5")],
    )
    def test_perm_conflicts_rejected(self, capsys, flags, named):
        assert main(["check", "mizuno", *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,flags",
        [("bridge", ["--perm", "1"]), ("bridge", ["--n", "1"]),
         ("bridge", ["--n", "1", "--sample", "1"])],
    )
    def test_check_without_cases_rejected(self, capsys, name, flags):
        assert main(["check", name, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"check {name} has no cases" in captured.err

    @pytest.mark.parametrize("name", ["mizuno", "twosided", "homvanish"])
    def test_empty_perm_flag_rejected(self, capsys, name):
        assert main(["check", name, "--perm", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty" in captured.err

    @pytest.mark.parametrize("name", ["twosided", "homvanish"])
    def test_files_flag_needs_a_path(self, capsys, name):
        assert main(["check", name, "--files"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --files needs a value\n"

    def test_workers_imported_only_when_asked_for(self):
        src = Path(cli.__file__).parents[1]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [path])])}
        program = ("import sys; from preproj.cli import main; code = main(); "
                   "print('multiprocessing' in sys.modules); sys.exit(code)")
        # --jobs 2 starts workers wherever there are two cores to run them
        for jobs, imported in (("1", "False"), ("2", str((os.cpu_count() or 1) > 1))):
            argv = [sys.executable, "-c", program, "check", "taurigid", "--n", "3",
                    "--jobs", jobs]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == imported

    def test_jobs_capped_at_case_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-case check started worker processes")

        monkeypatch.setattr(cli, "Pool", no_pool)
        code, lines = run(capsys, "check", "taurigid", "--perm", "2413", "--jobs", "64")
        assert code == 0 and lines[-1]["cases"] == 1

    def test_cpu_count_read_only_for_a_pool(self, capsys, monkeypatch):
        def no_count():
            raise AssertionError("--jobs 1 read the CPU count")

        monkeypatch.setattr(os, "cpu_count", no_count)
        code, lines = run(capsys, "check", "bridge", "--n", "3", "--jobs", "1")
        assert code == 0 and lines[-1]["cases"] == 12
        # with more jobs asked for, the pool is still capped at the CPU count
        pools = []
        monkeypatch.setattr(cli, "Pool", lambda jobs: pools.append(jobs) or nullcontext())
        for cpus in (None, 1, 2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, lines = run(capsys, "check", "bridge", "--n", "3", "--jobs", "64")
            assert code == 0 and lines[-1]["cases"] == 12
        assert pools == [2, 3]

    def test_bruhat_builds_each_permuton_once_per_sweep(self, capsys, monkeypatch):
        built = []

        def counting(w):
            built.append(w.one_line)
            return from_perm(w)

        monkeypatch.setattr(permuton, "from_perm", counting)
        for _ in range(2):
            code, lines = run(capsys, "check", "bruhat", "--n", "3")
            assert code == 0 and lines[-1]["cases"] == 36
        assert len(built) == 12 and len(set(built)) == 6

    def test_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "4")
        assert main(["check", "bridge", "--n", "5"]) == 2
        assert ("n=5 exceeds the guard (3); set PREPROJ_MAX_N to override"
                in capsys.readouterr().err)

    def test_exhaustive_guard_is_tighter_than_targeted(self, capsys):
        # default limits: exhaustive sweeps stop at n=5, single-perm runs at n=6
        assert main(["check", "bridge", "--n", "6"]) == 2
        assert main(["check", "taurigid", "--n", "6", "--sample", "720"]) == 2
        code, lines = run(capsys, "check", "bridge", "--perm", "253416")
        assert code == 0 and lines[-1]["pass"]

    def test_bad_guard_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "six")
        with pytest.raises(ParseError):
            scale_limit()
        assert main(["check", "taurigid", "--perm", "2413"]) == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_guard_below_one_refused(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PREPROJ_MAX_N", value)
        with pytest.raises(ParseError, match="must be at least 1"):
            scale_limit()
        assert main(["check", "bruhat", "--n", "3"]) == 2
        assert "PREPROJ_MAX_N must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sample_picks_what_the_listing_picked(self, monkeypatch, n):
        monkeypatch.setenv("PREPROJ_MAX_N", "8")
        for k in sorted({1, 2, 5, 17, factorial(n) - 1} & set(range(1, factorial(n)))):
            args = SimpleNamespace(perm=None, n=n, sample=k)
            assert cli._perms(args, 4) == sample_by_listing(n, k)

    def test_sample_lists_no_symmetric_group(self, capsys, monkeypatch):
        def no_listing(n):
            raise AssertionError(f"a --sample run listed S_{n}")

        monkeypatch.setenv("PREPROJ_MAX_N", "12")
        monkeypatch.setattr(symgroup, "all_perms", no_listing)
        start = time.perf_counter()
        code, lines = run(capsys, "check", "taurigid", "--n", "12", "--sample", "5")
        elapsed = time.perf_counter() - start
        picked = sorted(random.Random(0).sample(range(factorial(12)), 5))
        assert code == 0 and [r["case"] for r in lines[:-1]] == [
            str(symgroup.perm_at(12, t)) for t in picked]
        assert elapsed < 10  # listing S_12 would take about 100 GB

    def test_guard_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "3")
        assert main(["check", "mizuno", "--n", "3"]) == 2  # exhaustive limit is 2
        monkeypatch.setenv("PREPROJ_MAX_N", "4")
        code, lines = run(capsys, "check", "mizuno", "--n", "3")
        assert code == 0 and lines[-1]["pass"]


def raised_by_letters(n: int, letters) -> Perm:
    """The permutation reached from the identity by applying each letter as a
    swap of positions s, s+1 when that raises the length, and skipping it
    otherwise: at most len(letters) inversions."""
    ol = list(range(1, n + 1))
    for s in letters:
        if ol[s - 1] < ol[s]:
            ol[s - 1], ol[s] = ol[s], ol[s - 1]
    return Perm(ol)


class TestMizunoWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_records_match_all_words_oracle(self, capsys, n):
        code, lines = run(capsys, "check", "mizuno", "--n", str(n))
        assert code == 0
        assert lines[:-1] == [{"check": "mizuno", **mizuno_by_words(w)}
                              for w in all_perms(n)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(6, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=12))))
    def test_perm_record_matches_all_words_oracle(self, n_letters):
        w = raised_by_letters(*n_letters)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PREPROJ_MAX_N", "7")
            assert records(cli._case_mizuno(w)) == [{"check": "mizuno",
                                                     **mizuno_by_words(w)}]

    def test_planted_fault_names_an_edge_into_it(self, capsys, monkeypatch):
        u = Perm((2, 4, 1, 3))
        true_ideal_curves = finite.ideal_curves

        def planted(ol):
            return true_ideal_curves(tuple(sorted(ol)) if ol == u.one_line else ol)

        monkeypatch.setattr(finite, "ideal_curves", planted)
        code, lines = run(capsys, "check", "mizuno", "--n", "4")
        failed = [r for r in lines[:-1] if not r["ok"]]
        assert code == 1 and "2413" in [r["case"] for r in failed]
        descents = [s for s in range(1, 4) if u(s) > u(s + 1)]
        assert all(r["edge"][0] == "2413" and r["edge"][1] in descents
                   for r in failed)
        assert all("edge" not in r for r in lines[:-1] if r["ok"])

    def test_planted_fault_at_the_identity_fails_the_base(self, capsys, monkeypatch):
        true_ideal_curves = finite.ideal_curves
        monkeypatch.setattr(finite, "ideal_curves", lambda ol: true_ideal_curves(
            (1, 3, 2) if ol == (1, 2, 3) else ol))
        code, lines = run(capsys, "check", "mizuno", "--perm", "213")
        assert code == 1 and lines[0]["edge"] == ["123", None]

    def test_each_permutation_walked_once(self, capsys, monkeypatch):
        calls = []
        true_ideal_curves = finite.ideal_curves

        def counting(ol):
            calls.append(ol)
            return true_ideal_curves(ol)

        def no_word_lists(w):
            raise AssertionError("the mizuno check listed reduced words")

        monkeypatch.setattr(finite, "ideal_curves", counting)
        monkeypatch.setattr(symgroup, "all_reduced_words", no_word_lists)
        code, lines = run(capsys, "check", "mizuno", "--n", "5")
        assert code == 0 and lines[-1]["cases"] == 120
        assert len(calls) == len(set(calls)) == 120

    def test_reaches_all_of_s6(self, capsys, monkeypatch):
        monkeypatch.setenv("PREPROJ_MAX_N", "7")
        start = time.perf_counter()
        code, lines = run(capsys, "check", "mizuno", "--n", "6")
        elapsed = time.perf_counter() - start
        assert code == 0 and lines[-1] == {"summary": True, "check": "mizuno",
                                           "cases": 720, "failures": 0, "pass": True}
        assert lines[-2] == {"check": "mizuno", "case": "654321", "ok": True,
                             "words": 292864}
        assert elapsed < 20  # listing its 1 095 266 reduced words took 106 s


def plant_tableau(monkeypatch, wrong) -> None:
    """Perm.tableau becomes wrong(w, the true tableau of w), still a plain
    property, so wrong runs on each read."""
    true = Perm.tableau.fget
    monkeypatch.setattr(Perm, "tableau", property(lambda w: wrong(w, true(w))))


class TestBruhatTables:
    def test_each_table_built_once_per_sweep(self, capsys, monkeypatch):
        tableaux, grids, passes = [], [], []
        plant_tableau(monkeypatch, lambda w, t: tableaux.append(w.one_line) or t)
        monkeypatch.setattr(permuton, "_cdf_ints",
                            lambda *args: grids.append(args) or [])
        for name in ("at_least", "at_most"):
            true = getattr(Lanes, name)
            monkeypatch.setattr(Lanes, name, lambda self, a, true=true, name=name:
                                passes.append(name) or true(self, a))
        code, lines = run(capsys, "check", "bruhat", "--n", "5")
        assert code == 0 and lines[-1]["cases"] == 14400
        assert len(tableaux) == len(set(tableaux)) == 120
        assert grids == []
        # one row per source and route, each over all 120 targets
        assert sorted(passes) == ["at_least"] * 120 + ["at_most"] * 120

    def test_each_label_built_once_per_sweep(self, capsys, monkeypatch):
        # a plain property: the sweep reads each permutation's label once
        built = []
        label = Perm.label.fget

        def counting(w):
            built.append(w.one_line)
            return label(w)

        monkeypatch.setattr(Perm, "label", property(counting))
        code, lines = run(capsys, "check", "bruhat", "--n", "5")
        assert code == 0 and lines[-1]["cases"] == 14400
        assert len(built) == len(set(built)) == 120
        digits = ["".join(map(str, w.one_line)) for w in all_perms(5)]
        assert [r["case"] for r in lines[:-1]] == [f"{u}<={v}" for u in digits
                                                   for v in digits]

    def test_one_wrong_tableau_entry_fails(self, capsys, monkeypatch):
        # the identity's first entry raised to 2: its pairs, and no others, fail
        order = bruhat_by_covers(4)
        plant_tableau(monkeypatch, lambda w, t: (2,) + t[1:] if w.label == "1234" else t)
        code, lines = run(capsys, "check", "bruhat", "--n", "4")
        failing = [r for r in lines[:-1] if not r["ok"]]
        assert code == 1 and lines[-1]["failures"] == len(failing) > 0
        for record in failing:
            u, v = record["case"].split("<=")
            assert "1234" in (u, v)
            truth = order[(tuple(map(int, u)), tuple(map(int, v)))]
            assert record["cdf"] is truth and record["tableau"] is not truth

    def test_failure_witness_names_each_route(self, capsys, monkeypatch):
        # only the first entry kept: u <= v whenever u(1) <= v(1)
        plant_tableau(monkeypatch, lambda w, t: t[:1] * len(t))
        code, lines = run(capsys, "check", "bruhat", "--n", "3")
        wrong = sum(u[0] <= v[0] and not leq for (u, v), leq in bruhat_by_covers(3).items())
        assert code == 1 and lines[-1]["failures"] == wrong == 5
        for record in lines[:-1]:
            keys = ["check", "case", "ok"] + ([] if record["ok"] else ["tableau", "cdf"])
            assert list(record) == keys
            if not record["ok"]:
                assert record["tableau"] is not record["cdf"]

    @pytest.mark.parametrize("n,cases", [(1, ["1<=1"]), (2, ["12<=12", "12<=21",
                                                            "21<=12", "21<=21"])])
    def test_edge_sizes(self, capsys, n, cases):
        rows = cli._sources(list(all_perms(n)))[0][0]
        assert rows.tableaux.length == n * (n - 1) // 2
        assert rows.cdfs.length == (n - 1) ** 2
        code, lines = run(capsys, "check", "bruhat", "--n", str(n))
        assert code == 0 and [r["case"] for r in lines[:-1]] == cases
        assert all(r["ok"] for r in lines[:-1])

    def test_perm_and_sample_span_only_their_perms(self, capsys):
        code, full = run(capsys, "check", "bruhat", "--n", "4")
        verdicts = {r["case"]: r for r in full[:-1]}
        code, one = run(capsys, "check", "bruhat", "--perm", "2413")
        assert code == 0 and one[:-1] == [verdicts["2413<=2413"]]
        code, some = run(capsys, "check", "bruhat", "--n", "4", "--sample", "5")
        labels = {r["case"].split("<=")[0] for r in some[:-1]}
        assert code == 0 and len(labels) == 5 and some[-1]["cases"] == 25
        assert some[:-1] == [verdicts[f"{u}<={v}"] for u in sorted(labels)
                             for v in sorted(labels)]
        tasks = cli._sources([parse_perm(w) for w in sorted(labels)])
        assert [i for _, i in tasks] == list(range(5)) and tasks[0][0].tableaux.size == 5

    def test_pickled_chunk_carries_the_lanes_once(self):
        chunk = cli._sources(list(all_perms(5)))[:30]
        rows = chunk[0][0]
        expected = [cli._case_bruhat(task) for task in chunk]
        data = pickle.dumps(chunk)
        assert b"GridPermuton" not in data and b"Perm" not in data
        assert data.count(b"_Rows") == 1 and data.count(b"Lanes") == 1
        back = pickle.loads(data)
        assert len({id(task[0]) for task in back}) == 1
        copy = back[0][0]
        assert copy.labels == rows.labels
        for lanes, original in ((copy.tableaux, rows.tableaux), (copy.cdfs, rows.cdfs)):
            assert (lanes.width, lanes.cols, lanes.guard) == (
                original.width, original.cols, original.guard)
        assert [cli._case_bruhat(task) for task in back] == expected

    def test_records_match_the_subword_oracle(self, capsys, monkeypatch):
        # the CDF route negated: every pair fails, and its record names the
        # tableau route's verdict
        at_most = Lanes.at_most
        monkeypatch.setattr(Lanes, "at_most", lambda self, a: self.guard ^ at_most(self, a))
        code, lines = run(capsys, "check", "bruhat", "--n", "4")
        assert code == 1 and lines[-1]["failures"] == 576
        verdicts = {tuple(tuple(map(int, side)) for side in r["case"].split("<=")):
                    r["tableau"] for r in lines[:-1]}
        assert verdicts == bruhat_by_subwords(4)


    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_spliced_rows_match_the_record_route(self, data):
        # any verdicts of the two routes on each lane, and digit, array or
        # arbitrary labels: the spliced row is the records' json.dumps bytes
        n = data.draw(st.sampled_from([1, 3, 5, 10, 12]))
        perms = [Perm(ol) for ol in data.draw(st.lists(
            st.permutations(range(1, n + 1)), min_size=1, max_size=7))]
        texts = data.draw(st.none() | st.lists(st.text(max_size=5), min_size=len(perms),
                                               max_size=len(perms)))
        verdicts = data.draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                                      min_size=len(perms), max_size=len(perms)))
        with pytest.MonkeyPatch.context() as mp:
            if texts is not None:
                label = cached_property(lambda w: texts[perms.index(w)])
                label.__set_name__(Perm, "label")
                mp.setattr(Perm, "label", label)
            tasks = cli._sources(perms)
            width = tasks[0][0].tableaux.width
            rows = [sum(1 << (j + 1) * width - 1 for j, pair in enumerate(verdicts)
                        if pair[route]) for route in (0, 1)]
            mp.setattr(Lanes, "at_least", lambda self, a: rows[0])
            mp.setattr(Lanes, "at_most", lambda self, a: rows[1])
            failures = sum(t is not c for t, c in verdicts)
            for task in tasks:
                assert cli._case_bruhat(task) == (bruhat_row_by_records(task),
                                                  len(perms), failures)

    def test_passing_sweep_encodes_only_its_summary(self, capsys, monkeypatch):
        encoded, line = [], cli._line
        monkeypatch.setattr(cli, "_line", lambda obj: encoded.append(obj) or line(obj))
        code, lines = run(capsys, "check", "bruhat", "--n", "5")
        assert code == 0 and encoded == [lines[-1]] and lines[-1]["cases"] == 14400


class TestBridgePermutons:
    def test_each_permuton_built_once_per_sweep(self, capsys, monkeypatch):
        built = []
        true_from_perm = permuton.from_perm

        def counting(w):
            built.append(w.one_line)
            return true_from_perm(w)

        monkeypatch.setattr(permuton, "from_perm", counting)
        code, lines = run(capsys, "check", "bridge", "--n", "5")
        assert code == 0 and lines[-1]["cases"] == 480
        assert len(built) == len(set(built)) == 120

    def test_permutons_built_as_the_sweep_reaches_them(self, capsys, monkeypatch):
        events = []
        true_from_perm, true_compare = permuton.from_perm, continuous.bridge_mismatch
        monkeypatch.setattr(permuton, "from_perm",
                            lambda w: events.append(str(w)) or true_from_perm(w))
        monkeypatch.setattr(continuous, "bridge_mismatch",
                            lambda w, i, mu, strip: events.append(f"{w}@{i}")
                            or true_compare(w, i, mu, strip))
        code, lines = run(capsys, "check", "bridge", "--n", "4")
        assert code == 0 and lines[-1]["cases"] == 24 * 3
        # each permuton just before its w's three cases, none held ahead
        assert events == [e for w in all_perms(4)
                          for e in (str(w), f"{w}@1", f"{w}@2", f"{w}@3")]


class TestPermutonTasks:
    @pytest.mark.parametrize("name,flags,perms", [
        ("twosided", ["--n", "3"], [str(w) for w in all_perms(3)]),
        ("homvanish", [], ["25341", "2413"])])
    def test_permutons_built_as_the_sweep_reaches_them(self, monkeypatch, name, flags,
                                                       perms):
        events = []

        class Recording(io.StringIO):
            def write(self, text):
                events.extend(("line", json.loads(line).get("case", "summary"))
                              for line in text.splitlines())
                return super().write(text)

        true_from_perm = permuton.from_perm
        monkeypatch.setattr(permuton, "from_perm",
                            lambda w: events.append(("built", f"perm:{w}"))
                            or true_from_perm(w))
        monkeypatch.setattr(sys, "stdout", Recording())
        assert main(["check", name, *flags]) == 0
        # each permuton just before its task's record, none held ahead
        assert events == [e for w in perms for e in (("built", f"perm:{w}"),
                                                     ("line", f"perm:{w}"))] + [
            ("line", "uniform:2"), ("line", "uniform:4"), ("line", "summary")]


class TestLazySweeps:
    @pytest.mark.parametrize("name,after", [("mizuno", 1), ("taurigid", 1), ("bridge", 3),
                                            ("twosided", 1)])
    def test_full_sweeps_make_each_perm_as_they_reach_it(self, monkeypatch, name, after):
        made, written = [], []
        true_all_perms = symgroup.all_perms

        def recording(n):
            for w in true_all_perms(n):
                made.append(w)
                yield w

        class Recording(io.StringIO):
            def write(self, text):
                written.extend([len(made)] * text.count("\n"))
                return super().write(text)

        monkeypatch.setattr(symgroup, "all_perms", recording)
        monkeypatch.setattr(sys, "stdout", Recording())
        assert main(["check", name, "--n", "4"]) == 0
        # the k-th permutation's lines are written before the next one is made
        assert written[:24 * after] == [k for k in range(1, 25) for _ in range(after)]
        assert len(made) == 24


class TestWindowedFeed:
    """Under --jobs the pool gets the tasks in Pool.map's chunks (windows)
    of ceil(tasks / 4 jobs), and each worker returns its tasks' finished text."""

    @staticmethod
    def chunked(monkeypatch, force=None) -> list:
        """Record (tasks, workers, chunk) of each pool's imap; with force,
        hand the pool chunks of that size instead."""
        seen = []

        class Chunked(Pool):
            def imap(self, func, iterable, chunksize=1):
                seen.append((len(iterable), self._processes, chunksize))
                return super().imap(func, iterable, force or chunksize)

        monkeypatch.setattr(cli, "Pool", Chunked)
        return seen

    @pytest.mark.parametrize("name,tasks", [("taurigid", 24), ("bridge", 24),
                                            ("bruhat", 24), ("twosided", 26)])
    def test_chunks_follow_pool_map(self, capsys, monkeypatch, name, tasks):
        assert main(["check", name, "--n", "4"]) == 0
        serial = capsys.readouterr().out
        seen = self.chunked(monkeypatch)
        assert main(["check", name, "--n", "4", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert seen == [(tasks, 2, -(-tasks // 8))]

    @pytest.mark.parametrize("name", ["taurigid", "bridge", "bruhat"])
    def test_small_windows_keep_lines_and_order(self, capsys, monkeypatch, name):
        assert main(["check", name, "--n", "4"]) == 0
        serial = capsys.readouterr().out
        self.chunked(monkeypatch, force=1)
        assert main(["check", name, "--n", "4", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial and serial.count("\n") > 24

    @pytest.mark.parametrize("name,flags", [
        ("mizuno", ["--n", "4"]), ("taurigid", ["--n", "4"]), ("bridge", ["--n", "4"]),
        ("bruhat", ["--n", "4"]), ("twosided", ["--n", "4"]), ("homvanish", [])])
    def test_planted_failures_come_back_from_the_workers(self, capsys, monkeypatch,
                                                         name, flags):
        u, rep0 = Perm((2, 4, 1, 3)), Perm((1, 3, 2, 4))
        true_ideal_curves, word_of = finite.ideal_curves, symgroup.canonical_reduced_word_of_rep
        witness = finite.tau_rigid_witness
        monkeypatch.setattr(finite, "ideal_curves", lambda ol: true_ideal_curves(
            tuple(sorted(ol)) if ol == u.one_line else ol))
        # a zero first summand: its curve is the diamond's bottom at vertex 1
        monkeypatch.setattr(finite, "tau_rigid_witness", lambda curves, rows=None: (
            (1, 1) if curves and curves[0] == finite._diamond(1, len(curves[0]) - 1)[1]
            else witness(curves, rows)))
        monkeypatch.setattr(symgroup, "canonical_reduced_word_of_rep",
                            lambda w, i: () if (w, i) == (rep0, 2) else word_of(w, i))
        plant_tableau(monkeypatch, lambda w, t: (2,) + t[1:] if w.label == "1234" else t)
        # a homvanish task reads 20 curves, a twosided one n - 1
        share = F(1, 20) if name == "homvanish" else F(1, 4)
        monkeypatch.setattr(permuton, "boundary_row", perturbed_rows(6, share))
        outputs = []
        for jobs in ("1", "2"):
            assert main(["check", name, *flags, "--jobs", jobs]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lines = [json.loads(line) for line in outputs[0].splitlines()]
        failed = sum(not r["ok"] for r in lines[:-1])
        assert 0 < failed < len(lines) - 1 and lines[-1]["failures"] == failed


def perturbed_rows(seed: int, share: F):
    """A boundary_row that moves one interior sample of a seeded share of the
    curves to a random value that keeps the curve 1-Lipschitz.  The choice
    depends on the permuton and the apex, not on how p/q is written."""
    true_row = permuton.boundary_row

    def row(mu, p, q):
        apex = F(p, q)
        scale = (q // apex.denominator) ** 2
        out = true_row(mu, apex.numerator, apex.denominator)
        rng = random.Random(f"{seed}:{apex}:{mu.cum}")
        if rng.random() < share:
            c, h = rng.randrange(1, mu.m), apex.denominator ** 2 * mu.den
            a, b = out[c - 1], out[c + 1]
            out[c] = rng.randint(max(a, b) - h, min(a, b) + h)
        return [v * scale for v in out]

    return row


def lowest_sample(apex: F, c: int):
    """A boundary_row whose curve at apex dips at column c as low as a
    1-Lipschitz curve can: one perturbed sample."""
    true_row = permuton.boundary_row

    def row(mu, p, q):
        out = true_row(mu, p, q)
        if F(p, q) == apex:
            out[c] = max(out[c - 1], out[c + 1]) - q * q * mu.den
        return out

    return row


class TestSummandRows:
    """twosided and homvanish on integer rows against their PLFunc oracles."""

    @staticmethod
    def verdicts(mu) -> tuple[bool, bool, bool, bool]:
        [two], [hom] = (records(runner(("mu", mu)))
                        for runner in (cli._case_twosided, cli._case_homvanish))
        return two["ok"], twosided_by_plfuncs(mu), hom["ok"], homvanish_by_plfuncs(mu)

    def test_all_of_s6_matches_oracles(self, monkeypatch):
        monkeypatch.setattr(permuton, "boundary_row", perturbed_rows(6, F(1, 4)))
        seen = set()
        for w in all_perms(6):
            two, two_oracle, hom, hom_oracle = self.verdicts(from_perm(w))
            assert (two, hom) == (two_oracle, hom_oracle), w
            seen.add((two, hom))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_random_mixtures_match_oracles(self):
        rng = random.Random(11)
        seen = set()
        for t in range(120):
            mu = random_permuton(rng, rng.randint(2, 13), rng.choice([4, 10**6]))
            share = rng.choice([0, F(1, 10), F(1, 3)])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(permuton, "boundary_row", perturbed_rows(t, share))
                two, two_oracle, hom, hom_oracle = self.verdicts(mu)
            assert (two, hom) == (two_oracle, hom_oracle), (t, mu)
            assert two and hom or share
            seen.add((two, hom))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("apex,c,check", [(F(3, 5), 2, 0), (F(10, 21), 2, 2)])
    def test_planted_sample_fails_kernel_and_oracle(self, capsys, monkeypatch,
                                                    apex, c, check):
        mu = from_perm(Perm((2, 5, 3, 4, 1)))
        assert self.verdicts(mu) == (True,) * 4
        monkeypatch.setattr(permuton, "boundary_row", lowest_sample(apex, c))
        verdicts = self.verdicts(mu)
        assert verdicts[check] is verdicts[check + 1] is False
        name = "twosided" if check == 0 else "homvanish"
        code, lines = run(capsys, "check", name, "--perm", "25341")
        assert code == 1 and lines[-1]["failures"] == 1

    def test_swapped_class_fails_kernel_and_oracle(self, monkeypatch):
        # the kernel classifies the pairs s < t, whose differences start at
        # (s - t)/21 < 0 and end at (t - s)/21 > 0: never constant, and
        # increasing on a passing permuton, so that is the class swapped
        mu = from_perm(Perm((2, 5, 3, 4, 1)))
        classify = plfunc.rises_class
        swap = {plfunc.MonotoneClass.WEAKLY_INCREASING: plfunc.MonotoneClass.NEITHER,
                plfunc.MonotoneClass.NEITHER: plfunc.MonotoneClass.WEAKLY_INCREASING}

        def swapped(rises):
            cls = classify(rises)
            return swap.get(cls, cls)

        monkeypatch.setattr(plfunc, "rises_class", swapped)
        assert self.verdicts(mu)[2:] == (False, False)

    def test_boundary_row_is_the_curve_over_its_denominator(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(1, 13)
            mu = random_permuton(rng, m, rng.choice([4, 10**6]))
            for p, q in [(r, m) for r in range(1, m)] + [(3, 7), (2, 14), (1, 2)]:
                row = permuton.boundary_row(mu, p, q)
                f = permuton.boundary_function(mu, F(p, q)).f
                assert [F(v, q * q * mu.den * m) for v in row] == [
                    f.at(F(c, m)) for c in range(m + 1)]


class TestSummandMemos:
    """taurigid and bridge do each distinct summand's work once per sweep."""

    @staticmethod
    def summand_pairs(n: int) -> set:
        """The (sub, quotient) band pairs of the sweep's cases."""
        return {(finite.band(a), finite.band(finite.tau_sub(b))) for w in all_perms(n)
                for a in finite.ideal_of(w) for b in finite.ideal_of(w)}

    @staticmethod
    def passes_per_case(perms) -> tuple[int, int]:
        """(packings, passes) of the per-case route over perms, one memo: a
        case packs its quotients when some pair is missing, and each sub
        with a missing pair makes one pass over all its lanes."""
        known, packings, passes = set(), 0, 0
        for w in perms:
            curves = finite.ideal_curves(w.one_line)
            missing = [a for a in curves if any((a, b) not in known for b in curves)]
            packings += bool(missing)
            passes += len(missing)
            known |= {(a, b) for a in missing for b in curves}
        return packings, passes

    def test_taurigid_solves_each_curve_pair_once(self, capsys, monkeypatch):
        # a sweep over all of S_5 packs one Hom table of every curve at rank
        # 5, 2^5 - 2 = 30 lanes, and each distinct sub curve makes one pass
        # over all of it, where the per-case route made 240 passes of 4 lanes
        packings, homs = count_lanes(monkeypatch)
        pairs = self.summand_pairs(5)
        curves = {c for w in all_perms(5) for c in finite.ideal_curves(w.one_line)}
        assert len(curves) == 2 ** 5 - 2 and len(pairs) == 330
        assert self.passes_per_case(all_perms(5)) == (93, 240)
        for sweep in (1, 2):  # a second check recomputes: the memo is emptied
            code, lines = run(capsys, "check", "taurigid", "--n", "5")
            assert code == 0 and lines[-1]["cases"] == 120
            assert len(packings) == sweep and len(packings[-1]) == 30
            assert {c for _, c in packings[-1]} == curves  # as quotients (top, c)
            assert len(homs) == sweep * 30 * 30
        half = len(homs) // 2
        assert set(homs[:half]) == set(homs[half:]) >= pairs
        assert sorted(a[0] for a, _ in homs[:half:30]) == sorted(curves)

    @pytest.mark.parametrize("flags,sweep", [(["--perm", "25341"], False),
                                             (["--n", "5", "--sample", "7"], False),
                                             (["--n", "4", "--sample", "24"], True),
                                             (["--n", "4", "--sample", "99"], True)])
    def test_only_a_sweep_over_all_of_s_n_packs_the_table(self, capsys, monkeypatch,
                                                         flags, sweep):
        packings, homs = count_lanes(monkeypatch)
        code, lines = run(capsys, "check", "taurigid", *flags)
        assert code == 0
        if sweep:  # one table of all 2^4 - 2 curves, one pass per sub curve
            assert [len(p) for p in packings] == [14] and len(homs) == 14 * 14
            return
        perms = [Perm(tuple(map(int, r["case"]))) for r in lines[:-1]]
        expected = self.passes_per_case(perms)
        assert expected == ((1, 4) if flags[0] == "--perm" else (7, 28))
        assert (len(packings), len(homs)) == (expected[0], 4 * expected[1])
        assert {len(p) for p in packings} == {4}

    def test_targeted_taurigid_at_14_packs_its_own_case(self, capsys, monkeypatch):
        # never the 2^14 - 2 lanes of a table: one case, 13 lanes
        monkeypatch.setenv("PREPROJ_MAX_N", "14")
        packings, homs = count_lanes(monkeypatch)
        w = [5, 12, 1, 9, 14, 3, 7, 11, 2, 13, 6, 10, 4, 8]
        code, lines = run(capsys, "check", "taurigid", "--perm", json.dumps(w))
        assert code == 0 and lines[-1]["cases"] == 1
        assert [len(p) for p in packings] == [13] and len(homs) <= 13 * 13

    def test_targeted_runs_build_no_rank_curves(self, capsys, monkeypatch, tmp_path):
        # only a run over all of S_n reads the 2^n - 2 curves at rank n
        monkeypatch.setenv("PREPROJ_MAX_N", "14")
        calls, rank_curves = [], finite.rank_curves
        monkeypatch.setattr(finite, "rank_curves", lambda n: calls.append(n) or rank_curves(n))
        path = write_json(tmp_path, "p.json", {"type": "curve_module",
                                               **jsonio.curve_module_to_json(projective(5, 12))})
        assert run(capsys, "brick", "check", path)[0] == 0
        w = [5, 12, 1, 9, 14, 3, 7, 11, 2, 13, 6, 10, 4, 8]
        assert run(capsys, "check", "taurigid", "--perm", json.dumps(w))[0] == 0
        assert calls == []
        assert run(capsys, "check", "taurigid", "--n", "4")[0] == 0 and calls == [4]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_table_gives_each_case_its_per_case_witness(self, capsys, monkeypatch, n):
        # with a planted fault in HomLanes.dims that gives some pairs a
        # Hom of dimension 1 or 2, the table and the per-case route still
        # agree on every case's verdict and witness
        monkeypatch.setenv("PREPROJ_MAX_N", "8")
        dims = finite.HomLanes.dims

        def planted(self, a):
            return [1 + sum(b[1]) % 2 if (sum(a[0]) * 3 + sum(b[1])) % 11 == 0 else d
                    for b, d in zip(self.targets, dims(self, a))]

        monkeypatch.setattr(finite.HomLanes, "dims", planted)
        code, lines = run(capsys, "check", "taurigid", "--n", str(n))
        expected = [finite.tau_rigid_witness(finite.ideal_curves(w.one_line))
                    for w in all_perms(n)]
        got = [None if r["ok"] else tuple(r["pair"]) for r in lines[:-1]]
        assert [r["case"] for r in lines[:-1]] == [str(w) for w in all_perms(n)]
        assert got == expected
        failed = sum(p is not None for p in expected)
        assert lines[-1]["failures"] == failed and (failed > 0) is (n >= 3)
        assert code == (1 if failed else 0)

    @pytest.mark.parametrize("quot_vertex,count", [(None, 12), (4, 4)])
    def test_planted_hom_fails_every_case_with_that_summand(self, capsys, monkeypatch,
                                                            quot_vertex, count):
        # a wrong Hom from one summand into every quotient, or into one
        ideal = finite.ideal_of(Perm((2, 4, 1, 5, 3)))
        sub = ideal[1]
        other = ideal[quot_vertex - 1] if quot_vertex else sub
        assert not finite.is_zero(sub) and not finite.is_zero(other)
        # HomLanes reads bands
        source, quot = finite.band(sub), finite.band(finite.tau_sub(other))
        dims = finite.HomLanes.dims

        def planted(self, a):
            return [1 if a == source and (quot_vertex is None or b == quot) else d
                    for b, d in zip(self.targets, dims(self, a))]

        monkeypatch.setattr(finite.HomLanes, "dims", planted)
        code, lines = run(capsys, "check", "taurigid", "--n", "5")
        failed = {r["case"] for r in lines[:-1] if not r["ok"]}
        expected = {str(w) for w in all_perms(5)
                    if sub in finite.ideal_of(w) and other in finite.ideal_of(w)}
        assert code == 1 and failed == expected and len(expected) == count
        # the witness: the first pair (i, j) with Hom(M^i, tau M^j) != 0
        pair = [sub.i, quot_vertex or 1]
        assert all(r["pair"] == pair for r in lines[:-1] if not r["ok"])
        assert not any("pair" in r for r in lines[:-1] if r["ok"])

    def test_bridge_strips_each_coset_rep_once(self, capsys, monkeypatch):
        words = []
        true_summand_via_word = continuous.summand_via_word

        def counting(word, n, i):
            words.append((tuple(word), n, i))
            return true_summand_via_word(word, n, i)

        monkeypatch.setattr(continuous, "summand_via_word", counting)
        for sweep in (1, 2):
            code, lines = run(capsys, "check", "bridge", "--n", "5")
            assert code == 0 and lines[-1]["cases"] == 480
            assert len(words) == sweep * (2 ** 5 - 2)  # one per (rep, i)
        assert sorted(words[:30]) == sorted(words[30:])

    def test_bridge_at_10_builds_perms_only_for_w_and_each_strip(self, capsys, monkeypatch):
        # the canonical words are read and checked on one-line lists: a Perm
        # for the parsed w and one per strip memo miss, none thrown away
        built = []
        init = Perm.__init__

        def counting(self, one_line):
            init(self, one_line)
            built.append(self.one_line)

        monkeypatch.setattr(Perm, "__init__", counting)
        monkeypatch.setenv("PREPROJ_MAX_N", "10")
        ol = (3, 10, 1, 7, 5, 2, 9, 4, 8, 6)
        code, lines = run(capsys, "check", "bridge", "--perm", json.dumps(ol))
        assert code == 0 and lines[-1]["cases"] == 9
        assert built == [ol] + [symgroup.min_coset_line(ol, i) for i in range(1, 10)]

    def test_planted_strip_fails_every_case_with_that_summand(self, capsys, monkeypatch):
        rep0, i0 = Perm((1, 3, 4, 2, 5)), 2
        word_of = symgroup.canonical_reduced_word_of_rep
        monkeypatch.setattr(symgroup, "canonical_reduced_word_of_rep",
                            lambda u, i: () if (u, i) == (rep0, i0) else word_of(u, i))
        code, lines = run(capsys, "check", "bridge", "--n", "5")
        failed = {r["case"] for r in lines[:-1] if not r["ok"]}
        below = {a for a in range(1, 6) if rep0(a) <= i0}
        expected = {f"{w}@{i0}" for w in all_perms(5)
                    if {a for a in range(1, 6) if w(a) <= i0} == below}
        assert code == 1 and failed == expected and len(expected) == 2 * 6

    @pytest.mark.parametrize("name", ["taurigid", "bridge", "twosided"])
    def test_parallel_output_is_byte_identical(self, capsys, name):
        outputs = []
        for jobs in ("1", "2"):
            assert main(["check", name, "--n", "4", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") > 24


class TestFailureWitnesses:
    """A failing bridge, twosided or homvanish record names where the check
    broke: the column, or the pair of apexes or of summands.  A passing
    record carries no witness."""

    def test_homvanish_names_the_first_apex_pair_without_a_certificate(self, capsys,
                                                                      monkeypatch):
        mu = from_perm(Perm((2, 5, 3, 4, 1)))
        steps = {t: [b - a for a, b in zip(row, row[1:])]
                 for t in range(1, 21) for row in [permuton.boundary_row(mu, t, 21)]}
        difference = {(s, t): [a - b for a, b in zip(steps[s], steps[t])]
                      for s in steps for t in steps}
        # planted as rises_class classifies: (11, 4) and its negation (4, 11)
        bad = (difference[11, 4], difference[4, 11])
        classify = plfunc.rises_class
        monkeypatch.setattr(plfunc, "rises_class", lambda rises: (
            plfunc.MonotoneClass.NEITHER if list(rises) in bad else classify(rises)))
        code, lines = run(capsys, "check", "homvanish", "--perm", "25341")
        # the first pair, in order, whose difference was planted
        first = next([s, t] for s in range(1, 21) for t in range(1, 21)
                     if difference[s, t] in bad)
        assert code == 1 and first[0] <= 11
        assert lines[0] == {"check": "homvanish", "case": "perm:25341", "ok": False,
                            "apexes": first}

    def test_homvanish_names_the_staircase_pair(self, capsys, monkeypatch):
        code, lines = run(capsys, "check", "homvanish")
        assert code == 0 and all(r.keys() == {"check", "case", "ok"} for r in lines[:-1])
        witness = finite.tau_rigid_witness
        monkeypatch.setattr(finite, "tau_rigid_witness", lambda curves, memo=None: (
            witness(curves, memo) or (curves[-1][0], curves[0][0]) if curves else None))
        code, lines = run(capsys, "check", "homvanish", "--perm", "2143")
        # grid m = 4 at n = 8: the staircase summands at the apexes 2/8, 4/8, 6/8
        assert code == 1 and lines[0] == {"check": "homvanish", "case": "perm:2143",
                                          "ok": False, "pair": [6, 2]}

    def test_bridge_names_the_first_column_of_a_planted_strip(self, capsys, monkeypatch):
        rep0, i0 = Perm((1, 3, 4, 2, 5)), 2
        word_of = symgroup.canonical_reduced_word_of_rep
        monkeypatch.setattr(symgroup, "canonical_reduced_word_of_rep",
                            lambda u, i: () if (u, i) == (rep0, i0) else word_of(u, i))
        code, lines = run(capsys, "check", "bridge", "--n", "5")
        top = projective(i0, 5).curve.units  # the empty word strips nothing
        failed = [r for r in lines[:-1] if not r["ok"]]
        assert code == 1 and len(failed) == 12
        for r in failed:
            true = finite.ideal_of(parse_perm(r["case"].split("@")[0]))[i0 - 1].curve.units
            assert r["column"] == next(c for c, (a, b) in enumerate(zip(top, true)) if a != b)
        assert not any("column" in r for r in lines[:-1] if r["ok"])

    def test_bridge_names_the_first_column_of_a_perturbed_row(self, monkeypatch):
        monkeypatch.setattr(permuton, "boundary_row", perturbed_rows(3, F(1, 3)))
        cli._stripped.cache_clear()  # the runner reads the sweep's memo, as a sweep does
        seen = set()
        for w in all_perms(5):
            for i, r in enumerate(records(cli._case_bridge(w)), start=1):
                # the curve the permuton route reads, against the ideal's own
                f = permuton.boundary_function(from_perm(w), F(i, 5)).f
                wrong = [c for c, v in enumerate(finite.ideal_of(w)[i - 1].curve.values)
                         if f.at(F(c, 5)) != v]
                assert r.get("column") == (wrong[0] if wrong else None), (w, i)
                assert r["ok"] is not wrong
                seen.add(r["ok"])
        assert seen == {True, False}

    def test_twosided_names_the_first_failing_pair(self, monkeypatch):
        monkeypatch.setattr(permuton, "boundary_row", perturbed_rows(6, F(1, 4)))
        seen = set()
        for w in all_perms(5):
            [r] = records(cli._case_twosided(w))
            pair = twosided_pair_by_plfuncs(from_perm(w))
            assert r.get("pair") == pair and r["ok"] == (pair is None), w
            seen.add(pair and pair[0])
        assert {None, 1, 2} <= seen

    def test_twosided_names_an_apex_that_leaves_its_diamond(self, monkeypatch):
        # the curve at apex 2/5 lifted above the diamond's bottom at column 2;
        # no 1-Lipschitz curve with the right ends can, so the rows are raw
        mu, true_row = from_perm(Perm((2, 5, 3, 4, 1))), permuton.boundary_row
        unit = 5 * 5 * mu.den  # 1/5 over the rows' denominator

        def raised(mu, p, q):
            out = true_row(mu, p, q)
            if F(p, q) == F(2, 5):
                out[2] = (5 - abs(5 - 2 - 2)) * unit + 2 * unit
            return out

        assert records(cli._case_twosided(("mu", mu))) == [
            {"check": "twosided", "case": "mu", "ok": True}]
        monkeypatch.setattr(permuton, "boundary_row", raised)
        assert records(cli._case_twosided(("mu", mu))) == [
            {"check": "twosided", "case": "mu", "ok": False, "pair": [2, None]}]


class TestTwosidedOnAdjacentApexes:
    """twosided decides on the bottoms and the adjacent apexes; its record
    equals the all-pairs PLFunc oracle's, witness included."""

    @staticmethod
    def pair(mu) -> list | None:
        [r] = records(cli._case_twosided(("mu", mu)))
        return r.get("pair")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 24), st.sampled_from([1, 4, 10**15]),
           st.sampled_from([0, F(1, 10), F(1, 3)]), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    def test_matches_all_pairs_oracle(self, m, max_weight, share, seed, rng):
        mu = random_permuton(rng, m, max_weight)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permuton, "boundary_row", perturbed_rows(seed, share))
            assert self.pair(mu) == twosided_pair_by_plfuncs(mu)

    def test_first_witness_may_be_far_apart(self):
        # a planted row can fail first against an apex two or more rows
        # away, while its neighbours still hold
        rng, gaps = random.Random(2), set()
        for t in range(80):
            mu = random_permuton(rng, rng.randint(3, 12), rng.choice([4, 10**6]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(permuton, "boundary_row", perturbed_rows(t, F(1, 3)))
                pair = self.pair(mu)
                assert pair == twosided_pair_by_plfuncs(mu), t
            if pair and pair[1] is not None:
                gaps.add(abs(pair[0] - pair[1]))
        assert 1 in gaps and max(gaps) >= 2

    def test_rows_lifted_together_fail_on_the_bottom(self, monkeypatch):
        # the reversal's curves are the diamonds' bottoms; lifting every row
        # at one column keeps the adjacent differences, so only the bottoms
        # see it (raw rows: no 1-Lipschitz curve with these ends can)
        mu, true_row = from_perm(Perm((5, 4, 3, 2, 1))), permuton.boundary_row
        assert self.pair(mu) is None
        monkeypatch.setattr(permuton, "boundary_row", lambda mu, p, q: [
            v + (c == 3) for c, v in enumerate(true_row(mu, p, q))])
        assert self.pair(mu) == [1, None]


class TestMemosAfterASweep:
    """cmd_check empties the per-sweep memos after a sweep, as well as before
    it, whether the sweep passed, failed or stopped: no later caller in the
    process reads its entries."""

    FLAGS = {"mizuno": ["--n", "4"], "taurigid": ["--n", "4"], "bridge": ["--n", "4"],
             "homvanish": []}
    # the checks that keep a per-sweep memo: taurigid and homvanish fill none
    FILLS = {"mizuno", "bridge"}

    @staticmethod
    def sizes() -> tuple[int, int, int]:
        return (cli._weak_node.cache_info().currsize, cli._stripped.cache_info().currsize,
                len(cli._CURVES))

    def sweep(self, capsys, monkeypatch, name) -> tuple[int, list]:
        """Run the check in process, recording the memo sizes after each task."""
        seen = []
        run_task, source, unread = cli._CHECKS[name]
        monkeypatch.setitem(cli._CHECKS, name, (
            lambda task: (run_task(task), seen.append(self.sizes()))[0], source, unread))
        code, _ = run(capsys, "check", name, *self.FLAGS[name])
        return code, seen

    @staticmethod
    def plant(monkeypatch, name) -> None:
        """A fault that fails some of the check's cases and leaves its memos filled."""
        if name == "mizuno":
            strip = finite.strip_curves
            monkeypatch.setattr(finite, "strip_curves",
                                lambda curves, s: curves if s == 2 else strip(curves, s))
        elif name == "bridge":
            monkeypatch.setattr(symgroup, "canonical_reduced_word_of_rep", lambda u, i: ())
        else:
            witness = finite.tau_rigid_witness
            monkeypatch.setattr(finite, "tau_rigid_witness",
                                lambda curves, rows=None: witness(curves, rows) or (0, 0))

    @pytest.mark.parametrize("name", list(FLAGS))
    @pytest.mark.parametrize("fault", [False, True])
    def test_memos_empty_after_the_sweep(self, capsys, monkeypatch, name, fault):
        if fault:
            self.plant(monkeypatch, name)
        code, seen = self.sweep(capsys, monkeypatch, name)
        assert code == (1 if fault else 0)
        assert any(map(any, seen)) is (name in self.FILLS)  # filled, where the check has one
        assert self.sizes() == (0, 0, 0)
        assert cli._CURVES == {}

    @pytest.mark.parametrize("name", list(FLAGS))
    def test_memos_empty_after_a_stopped_sweep(self, capsys, monkeypatch, name):
        run_task = cli._CHECKS[name][0]
        tasks = []

        def stops(task):
            tasks.append(task)
            out = run_task(task)
            if len(tasks) == 2:
                assert any(self.sizes()) is (name in self.FILLS)  # stopped with its memo filled
                raise ParseError("stopped")
            return out

        monkeypatch.setitem(cli._CHECKS, name, (stops, *cli._CHECKS[name][1:]))
        assert main(["check", name, *self.FLAGS[name]]) == 2
        assert self.sizes() == (0, 0, 0)


class TestBrickAndSheet:
    def test_brick_check_simple(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", {"type": "simple", "x": "1/3"})
        code, lines = run(capsys, "brick", "check", path)
        assert code == 0 and lines[0]["brick"] is True

    def test_brick_check_malformed_vertex(self, capsys, tmp_path):
        payload = {"type": "curve_module", **jsonio.curve_module_to_json(projective(2, 5))}
        path = write_json(tmp_path, "m.json", {**payload, "i": "x"})
        assert main(["brick", "check", path]) == 2

    @pytest.mark.parametrize("n,curve,line", [
        (0, ["0"], "vertex 1 outside 1..-1"),
        (-1, [], "vertex 1 outside 1..-2"),
        (10**9, ["0", "1"], "expected 1000000001 grid values, got 2"),
        (4, ["1/4", "x", "1/4"], "bad rational literal 'x'"),
    ], ids=["rank-0", "rank-minus-1", "rank-1e9", "count-and-literal"])
    def test_brick_check_malformed_curve_module(self, capsys, tmp_path, monkeypatch,
                                                 n, curve, line):
        # the literal table is built only for a curve that can be valid
        asked, table = [], finite._literals

        def spy(n):  # never builds a table for a huge rank
            asked.append(n)
            assert 2 <= n <= 64, f"literal table asked for at rank {n}"
            return table(n)

        monkeypatch.setattr(finite, "_literals", spy)
        path = write_json(tmp_path, "m.json", {"type": "curve_module", "n": n, "i": 1,
                                               "kind": "sub", "curve": curve})
        start = time.perf_counter()
        assert main(["brick", "check", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: {line}\n") and asked == []

    def test_brick_check_projective(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "m.json",
            {"type": "curve_module", **jsonio.curve_module_to_json(projective(2, 5))},
        )
        code, lines = run(capsys, "brick", "check", path)
        assert code == 0
        assert lines[0] == {
            "type": "curve_module", "brick": False, "end_dim": 2, "deep": True,
        }

    def test_brick_check_solves_one_endomorphism_space(self, capsys, tmp_path,
                                                         monkeypatch):
        homs, hom_dims = [], finite.hom_dims
        for module in (finite, sheets):
            monkeypatch.setattr(module, "hom_dims", lambda a, targets: homs.append(
                (a, *targets)) or hom_dims(a, targets))
        path = write_json(
            tmp_path,
            "m.json",
            {"type": "curve_module", **jsonio.curve_module_to_json(projective(3, 8))},
        )
        code, lines = run(capsys, "brick", "check", path)
        assert code == 0 and lines[0]["end_dim"] == 3 and lines[0]["deep"]
        # one endomorphism count on the curve; deepness read off its band
        assert len(homs) == 1
        assert homs == [(projective(3, 8),) * 2]

    def test_sheet_analyze(self, capsys, tmp_path):
        h = F(1, 2)
        sheet = Sheet(h, BFunc(h, top_curve(h)), BFunc(h, bottom_curve(h)))
        path = write_json(tmp_path, "s.json", sheet_to_json(sheet))
        code, lines = run(
            capsys, "sheet", "analyze", path,
            "--cone", "1/2,0", "--codep", "1/2,0",
        )
        assert code == 0
        out = lines[0]
        assert out["support"] == [["0", "1"]]
        assert out["generators"] == ["1/2"]
        assert out["cone"]["b_interval"] == ["0", "1"]
        assert out["cone"]["elementary"] is True
        assert out["codependence"]["class"] == ["1/2"]

    def test_sheet_analyze_scans_generators_once(self, capsys, tmp_path, monkeypatch):
        scans = []
        scan = sheets.Sheet.generators.func

        def counting(sheet):
            scans.append(sheet)
            return scan(sheet)

        counted = cached_property(counting)
        counted.__set_name__(sheets.Sheet, "generators")
        monkeypatch.setattr(sheets.Sheet, "generators", counted)
        h = F(1, 2)
        sheet = Sheet(h, BFunc(h, top_curve(h)), BFunc(h, bottom_curve(h)))
        path = write_json(tmp_path, "s.json", sheet_to_json(sheet))
        code, lines = run(capsys, "sheet", "analyze", path,
                          "--cone", "1/2,0", "--codep", "1/2,0")
        assert code == 0 and lines[0]["cone"]["elementary"] is True
        assert len(scans) == 1

    def test_sheet_analyze_finds_one_headroom_interval(self, capsys, tmp_path):
        h = F(1, 2)
        sheet = Sheet(h, BFunc(h, top_curve(h)), BFunc(h, bottom_curve(h)))
        path = write_json(tmp_path, "s.json", sheet_to_json(sheet))
        code, lines = run(capsys, "sheet", "analyze", path,
                          "--cone", "1/2,1/4", "--codep", "1/2,1/4")
        assert code == 0 and lines[0]["cone"]["b_interval"] == ["1/8", "7/8"]
        assert lines[0]["codependence"]["class"] == ["1/2"]

    def test_sheet_analyze_many_prime_denominators(self, capsys, tmp_path):
        # a zigzag through x_t = t/N + 1/(4 N p_t), p_t the first primes above
        # 1000: one denominator per breakpoint, which a shared denominator
        # over all breakpoints would multiply into every coordinate
        n, primes = 1000, []
        candidate = 1000
        while len(primes) < n - 1:
            candidate += 1
            if all(candidate % d for d in range(2, int(candidate ** 0.5) + 1)):
                primes.append(candidate)
        h = F(1, 2)
        xs = [F(t, n) + F(1, 4 * n * p) for t, p in enumerate(primes, start=1)]
        up = PLFunc([(0, h), *((x, h + F(t % 2, 4 * n)) for t, x in enumerate(xs, 1)),
                     (1, h)])
        sheet = Sheet(h, BFunc(h, up), BFunc(h, bottom_curve(h)))
        path = write_json(tmp_path, "s.json", sheet_to_json(sheet))
        y = rat_str(xs[n // 2])
        start = time.perf_counter()
        code, lines = run(capsys, "sheet", "analyze", path,
                          "--cone", f"{y},0", "--codep", f"{y},0")
        elapsed = time.perf_counter() - start
        # up < down on all of (0, 1), and every zigzag corner generates
        generators = [rat_str(x) for x in xs]
        assert code == 0 and lines[0] == {
            "support": [["0", "1"]],
            "generators": generators,
            "deep": True,
            "cone": {"y": y, "a": "0", "b_interval": ["0", "1"], "elementary": True},
            "codependence": {"y": y, "a": "0", "class": generators},
        }
        assert elapsed < 10  # over one shared denominator it took 20 s


def former_writer_agrees(capsys, argv) -> tuple[int, str]:
    """Runs argv through the CLI's encoder and through the former
    json.dumps(obj) encoder; both must give the same exit code and stdout.
    Returns the first."""
    ours = main(list(argv)), capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_line", line_by_dumps)
        former = main(list(argv)), capsys.readouterr().out
    assert ours == former
    return ours


CHECK_ARGVS = [
    ("check", name, "--n", str(n), *jobs)
    for name in ("mizuno", "taurigid", "bridge", "bruhat", "twosided")
    for n in (1, 2, 3, 4) for jobs in ((), ("--jobs", "2"))
] + [("check", "homvanish", *more) for more in ((), ("--jobs", "2"), ("--perm", "2413"))]


class TestWriter:
    """Every output line from the one encoder, byte for byte as json.dumps."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(31)
        write_json(tmp_path, "mu.json", permuton_to_json(random_permuton(rng, 4)))
        write_json(tmp_path, "nu.json", permuton_to_json(random_permuton(rng, 6)))
        write_json(tmp_path, "m.json", {"type": "curve_module",
                                         **jsonio.curve_module_to_json(projective(2, 5))})
        h = F(1, 2)
        up = PLFunc([(0, h), (F(1, 4), h + F(1, 8)), (F(1, 2), h), (1, h)])
        write_json(tmp_path, "s.json", sheet_to_json(
            Sheet(h, BFunc(h, up), BFunc(h, bottom_curve(h)))))
        return tmp_path

    @pytest.mark.parametrize("argv", CHECK_ARGVS, ids=" ".join)
    def test_checks(self, capsys, argv):
        code, out = former_writer_agrees(capsys, argv)
        assert code == (2 if argv[1:4] == ("bridge", "--n", "1") else 0)

    @pytest.mark.parametrize("argv", [
        ("ideal", "perm", "25341"),
        ("ideal", "perm", "[10,2,3,4,5,6,7,8,9,1]"),
        ("ideal", "permuton", "mu.json", "--at", "3/7"),
        ("order", "bruhat", "2143", "3412"),
        ("order", "permuton", "mu.json", "nu.json"),
        ("order", "ideal", "nu.json", "mu.json"),
        ("brick", "check", "m.json"),
        ("sheet", "analyze", "s.json", "--cone", "1/2,0", "--codep", "1/2,0"),
        ("sheet", "analyze", "s.json", "--against", "s.json"),
    ], ids=" ".join)
    def test_single_record_commands(self, capsys, files, argv):
        code, out = former_writer_agrees(capsys, argv)
        assert code == 0 and out.count("\n") == 1

    def test_failing_check(self, capsys, monkeypatch):
        # the tableau route planted to put every source below every target
        monkeypatch.setattr(Lanes, "at_least", lambda self, a: self.guard)
        code, out = former_writer_agrees(capsys, ("check", "bruhat", "--n", "3"))
        assert code == 1 and '"failures": 17' in out
        assert out.count('"ok": false, "tableau": true, "cdf": false}') == 17

    def test_label_with_escapes(self, capsys, files):
        name = 'm\u00fc "q" \\ \u00f8.json'
        (files / name).write_text((files / "mu.json").read_text(), encoding="utf-8")
        code, out = former_writer_agrees(capsys, ("check", "twosided", "--files", name))
        assert code == 0
        assert '"case": "m\\u00fc \\"q\\" \\\\ \\u00f8.json"' in out

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["mizuno", "taurigid", "bridge", "twosided", "homvanish"]),
           st.text() | st.sampled_from([10, 12]).flatmap(
               lambda n: st.permutations(range(1, n + 1))).map(lambda ol: Perm(ol).label),
           st.none() | st.integers(0, 30) | st.lists(st.integers(-1, 21), max_size=2)
           | st.tuples(st.text(max_size=6), st.none() | st.integers(1, 9)).map(list),
           st.none() | st.integers(0, 10**30))
    def test_spliced_lines_match_json_dumps(self, check, case, witness, words):
        # passing and failing records, any label (JSON arrays at n = 10, 12
        # among them), and the words counter
        key = {"mizuno": "edge", "bridge": "column", "homvanish": "apexes"}.get(check, "pair")
        counters = {} if words is None else {"words": words}
        assert cli._lines(check, key, [(case, witness)], **counters) == (
            line_by_dumps(record_by_dict(check, case, key, witness, **counters)), 1,
            witness is not None)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=6), st.none() | st.integers(0, 9)), max_size=6))
    def test_spliced_lines_of_many_cases(self, cases):
        # bridge's n - 1 cases per task: the lines in order, and their counts
        text, count, failed = cli._lines("bridge", "column", cases)
        assert text == "".join(line_by_dumps(record_by_dict("bridge", case, "column", c))
                               for case, c in cases)
        assert (count, failed) == (len(cases), sum(c is not None for _, c in cases))

    @pytest.mark.parametrize("name", ["taurigid", "bridge", "twosided"])
    @pytest.mark.parametrize("n", [10, 12])
    def test_array_labels_splice_as_json_dumps(self, capsys, monkeypatch, name, n):
        monkeypatch.setenv("PREPROJ_MAX_N", "12")
        code, out = former_writer_agrees(capsys, ("check", name, "--n", str(n), "--sample", "2"))
        cases = [json.loads(line).get("case", "") for line in out.splitlines()]
        assert code == 0 and sum("[" in case for case in cases) == (
            2 * (n - 1) if name == "bridge" else 2)
        assert all(line == json.dumps(json.loads(line)) for line in out.splitlines())

    @pytest.mark.parametrize("name", ["twosided", "homvanish"])
    def test_escaped_paths_splice_as_json_dumps(self, capsys, files, monkeypatch, name):
        # a path that JSON escapes, on a passing case and, with a planted
        # witness, a failing one
        path = 'p\u00e4th "\t" \\ \u2603.json'
        (files / path).write_text((files / "mu.json").read_text(), encoding="utf-8")
        code, out = former_writer_agrees(capsys, ("check", name, "--files", path))
        record = json.loads(out.splitlines()[0])
        assert code == 0 and record == {"check": name, "case": path, "ok": True}
        assert out.splitlines()[0] == json.dumps(record)
        decider = "twosided_witness" if name == "twosided" else "uncertified_apexes"
        monkeypatch.setattr(continuous, decider, lambda mu: [1, 2])
        code, out = former_writer_agrees(capsys, ("check", name, "--files", path))
        record = json.loads(out.splitlines()[0])
        assert code == 1 and record["case"] == path and record["ok"] is False
        assert out.splitlines()[0] == json.dumps(record)

    def test_case_lines_stream_before_the_sweep_ends(self, monkeypatch):
        out, seen = io.StringIO(), []
        runner, source, unread = cli._CHECKS["taurigid"]

        def watching(w):
            seen.append(out.getvalue())  # what is written when case w starts
            return runner(w)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setitem(cli._CHECKS, "taurigid", (watching, source, unread))
        assert main(["check", "taurigid", "--n", "3"]) == 0
        assert len(seen) == 6 and seen[0] == ""
        assert [json.loads(line)["case"] for line in seen[-1].splitlines()] == [
            "123", "132", "213", "231", "312"]

    def test_planted_separators_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_line", lambda obj: json.dumps(obj, separators=(",", ":")) + "\n")
        with pytest.raises(AssertionError):
            former_writer_agrees(capsys, ("check", "bruhat", "--n", "2"))


class TestClosedPipe:
    def test_reader_closing_early_ends_quietly(self):
        src = Path(cli.__file__).parents[1]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [path])])}
        program = "import sys; from preproj.cli import main; sys.exit(main())"
        argv = [sys.executable, "-c", program, "check", "bruhat", "--n", "5"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        first = proc.stdout.readline()  # of about 700 kB, far beyond the pipe's buffer
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert json.loads(first)["case"] == "12345<=12345"
        assert (code, err) == (141, b"")


class TestRenderCommand:
    def test_render_roundtrip(self, capsys, tmp_path):
        spec = {
            "width_px": 400,
            "items": [
                {"type": "curve_module", **jsonio.curve_module_to_json(projective(1, 4))}
            ],
        }
        spec_path = write_json(tmp_path, "spec.json", spec)
        out = tmp_path / "fig.svg"
        assert main(["render", spec_path, "-o", str(out)]) == 0
        first = out.read_bytes()
        assert main(["render", spec_path, "-o", str(out)]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("command", ["ideal", "render"])
    def test_unwritable_output(self, capsys, tmp_path, command):
        target = str(tmp_path / "missing" / "fig.svg")
        if command == "ideal":
            argv = ["ideal", "perm", "213", "--svg", target]
        else:
            spec = {"items": [{"type": "curve_module",
                               **jsonio.curve_module_to_json(projective(1, 4))}]}
            argv = ["render", write_json(tmp_path, "spec.json", spec), "-o", target]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert f"cannot write {target}" in err and out == ""

    @pytest.mark.parametrize(
        "spec",
        [[], {"items": 5}, {"items": [5]}, {"width_px": "x"}, {"width_px": 1.5},
         {"width_px": True}, {"items": [{"style": "bold"}]}],
    )
    def test_malformed_spec(self, capsys, tmp_path, spec):
        spec_path = write_json(tmp_path, "spec.json", spec)
        assert main(["render", spec_path, "-o", str(tmp_path / "fig.svg")]) == 2
        assert not (tmp_path / "fig.svg").exists()


class TestDeepJson:
    """Nesting past the interpreter's recursion limit is a parse error."""

    DEEP = "[" * 50000

    @pytest.mark.parametrize("argv", [
        ("brick", "check", "deep.json"),
        ("order", "permuton", "deep.json", "deep.json"),
        ("ideal", "permuton", "deep.json", "--at", "1/2"),
        ("render", "deep.json", "-o", "out.svg"),
        ("check", "twosided", "--files", "deep.json"),
        ("check", "homvanish", "--files", "deep.json"),
    ], ids=" ".join)
    def test_deep_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text(self.DEEP, encoding="utf-8")
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read JSON from deep.json" in captured.err
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("argv", [
        ("order", "bruhat", DEEP, "21"),
        ("ideal", "perm", DEEP),
        ("check", "mizuno", "--perm", DEEP),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_deep_permutation(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse permutation {self.DEEP[:40]!r}\n"


def test_readme_flag_table_matches_the_registry():
    """README's table of the flags each check reads is each check's options
    in the command table less its _CHECKS entry's unread flags."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| check | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        names, flags = row.strip("|").split("|")
        documented.update((name, re.findall(r"`(--\w+)`", flags))
                          for name in re.findall(r"`(\w+)`", names))
    options = {name: list(cli._COMMANDS["check", name][2]) for name in cli._CHECKS}
    assert documented == {name: [o for o in options[name] if o[2:] not in unread]
                          for name, (_, _, unread) in cli._CHECKS.items()}


# argv that the command table refuses: an unknown command, check or flag (no
# prefix abbreviations), a missing or non-integer value, a missing required
# flag and a wrong number of operands
BAD_ARGVS = [
    [], ["nope"], ["ideal"], ["ideal", "nope", "21"], ["check"], ["check", "nope"],
    ["check", "--n", "3", "mizuno"], ["order"], ["order", "bruhat", "21"],
    ["order", "bruhat", "21", "12", "3"], ["order", "bruhat", "-21", "12"],
    ["order", "bruhat", "21", "12", "--n", "3"], ["ideal", "perm"],
    ["ideal", "perm", "21", "--nope"], ["ideal", "perm", "21", "--svg"],
    ["ideal", "permuton", "mu.json"], ["ideal", "permuton", "mu.json", "--at"],
    ["ideal", "permuton", "--at", "1/2"], ["render", "spec.json"], ["render", "spec.json", "-o"],
    ["render", "-o", "out.svg"], ["render", "spec.json", "-o", "out.svg", "extra"],
    ["check", "mizuno", "--n"], ["check", "mizuno", "--n", "x"], ["check", "mizuno", "--n=x"],
    ["check", "mizuno", "--n", "3.0"], ["check", "mizuno", "--n", ""],
    ["check", "mizuno", "--sam", "3"],
    ["check", "mizuno", "--j", "1"], ["check", "mizuno", "-n", "3"], ["check", "mizuno", "extra"],
    ["check", "twosided", "--files"], ["check", "twosided", "--files", "--n", "3"],
    ["check", "twosided", "--files", "--jobs=1"], ["check", "mizuno", "--jobs", "2", "--jobs"],
    ["brick", "check"], ["brick", "check", "a.json", "b.json"], ["sheet", "analyze"],
    ["sheet", "analyze", "a.json", "--cone"], ["sheet", "analyze", "a.json", "--against"],
]


class TestCommandTable:
    """argv is read against one table; every malformed argv exits 2."""

    @pytest.mark.parametrize("argv", BAD_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
    def test_malformed_argv_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # no file is read or written
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["nope"], "unknown command 'nope'; see preproj --help"),
        (["check", "nope"], "unknown command 'check nope'; see preproj --help"),
        (["check", "mizuno", "--sam", "3"], "check mizuno takes no flag '--sam'"),
        (["check", "mizuno", "--n"], "--n needs a value"),
        (["check", "mizuno", "--n", "x"], "--n takes an integer, got 'x'"),
        (["order", "bruhat", "21"], "order bruhat takes 2 positional argument(s) (A B), got 1"),
        (["ideal", "permuton", "mu.json"], "ideal permuton needs --at"),
        (["render", "spec.json"], "render needs -o or --output"),
    ])
    def test_error_names_what_is_wrong(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_value_like_a_flag_is_a_value(self, capsys):
        for flag in ("--n", "--sample", "--jobs"):
            assert main(["check", "mizuno", flag, "-1"]) == 2
            assert capsys.readouterr().err == f"error: {flag} must be at least 1, got -1\n"
        assert main(["check", "mizuno", "--perm", "--n"]) == 2
        assert "cannot parse permutation '--n'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,same", [
        (["check", "mizuno", "--n=3", "--jobs=1"], ["check", "mizuno", "--n", "3", "--jobs", "1"]),
        (["check", "mizuno", "--n", "2", "--n", "3"], ["check", "mizuno", "--n", "3"]),
        (["check", "mizuno", "--jobs", "1", "--n", "3"], ["check", "mizuno", "--n", "3"]),
        (["check", "bridge", "--n", "4", "--sample", "2", "--sample", "1"],
         ["check", "bridge", "--sample", "1", "--n", "4"]),
        (["check", "mizuno", "--n", " 3 "], ["check", "mizuno", "--n", "3"]),
        (["ideal", "perm", "--svg=", "2413"], ["ideal", "perm", "2413"]),
    ])
    def test_equivalent_spellings(self, capsys, argv, same):
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(same) == 0
        assert capsys.readouterr() == first

    def test_output_aliases(self, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"items": [
            {"type": "curve_module", **jsonio.curve_module_to_json(projective(1, 4))}]})
        a, b, c, d, x = (str(tmp_path / f"{name}.svg") for name in "abcdx")
        for argv in (["-o", a], ["--output", b], [f"--output={c}"], ["-o", x, "--output", d]):
            assert main(["render", spec, *argv]) == 0
        assert len({Path(path).read_bytes() for path in (a, b, c, d)}) == 1
        assert not Path(x).exists()

    def test_files_take_tokens_up_to_the_next_flag(self, capsys, tmp_path):
        paths = [write_json(tmp_path, f"mu{m}.json", permuton_to_json(uniform(m)))
                 for m in (2, 3)]
        code, lines = run(capsys, "check", "twosided", "--files", *paths, "--jobs", "1")
        assert code == 0 and [r["case"] for r in lines[:-1]] == paths
        code, lines = run(capsys, "check", "twosided", "--files", paths[0], "--files", paths[1])
        assert code == 0 and [r["case"] for r in lines[:-1]] == paths[1:]
        code, lines = run(capsys, "check", "twosided", "--files=" + paths[0], "--perm", "21")
        assert code == 0 and [r["case"] for r in lines[:-1]] == ["perm:21", paths[0]]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "mizuno", "-h"],
                                      ["render", "--help"], ["nope", "--help"]])
    def test_help_prints_the_command_list(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        listed = cli.__doc__.split("Commands::\n\n", 1)[1].split("\n\n", 1)[0]
        assert captured.out == listed + "\n" and captured.err == ""
        assert len(captured.out.splitlines()) == 9
        assert all(line.startswith("    preproj ") for line in captured.out.splitlines())

    def test_every_shape_is_a_table_entry(self):
        assert set(cli._COMMANDS) == {
            ("ideal", "perm"), ("ideal", "permuton"), ("brick", "check"),
            ("sheet", "analyze"), ("render", None),
            *(("order", what) for what in cli._ORDERS),
            *(("check", name) for name in cli._CHECKS)}

    def test_argparse_not_imported(self):
        src = Path(cli.__file__).parents[1]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [path])])}
        program = ("import sys; from preproj.cli import main; "
                   "code = main(['order', 'bruhat', '21', '12']); "
                   "print('argparse' in sys.modules); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout.splitlines() == [
            '{"leq": false, "geq": true, "comparable": true}', "False"]


class TestHomvanishPairs:
    """homvanish classifies the 190 apex pairs s < t and names the same
    first failing pair as the loop over all 400 ordered pairs."""

    def test_each_unordered_pair_classified_once(self, monkeypatch):
        seen = []
        classify = plfunc.rises_class
        monkeypatch.setattr(plfunc, "rises_class", lambda rises: seen.append(1) or classify(rises))
        for w in ("25341", "2413"):
            seen.clear()
            assert records(cli._case_homvanish(parse_perm(w)))[0]["ok"]
            assert len(seen) == 190

    def test_witness_matches_all_pairs_loop(self, monkeypatch):
        rng = random.Random(23)
        kinds = set()
        for t in range(150):
            mu = random_permuton(rng, rng.randint(2, 9), rng.choice([4, 10**6]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(permuton, "boundary_row",
                           perturbed_rows(t, rng.choice([F(1, 20), F(1, 6), F(1, 2)])))
                [record] = records(cli._case_homvanish((f"mu{t}", mu)))
                expected = homvanish_apexes_by_all_pairs(mu)
            assert record.get("apexes") == expected, (t, mu)
            kinds.add(None if expected is None else min(expected[1] - expected[0], 2))
        assert kinds == {None, 1, 2}  # adjacent first pairs, and farther ones

    def test_planted_rows_over_s5(self, monkeypatch):
        monkeypatch.setattr(permuton, "boundary_row", perturbed_rows(5, F(1, 8)))
        failed = 0
        for w in all_perms(5):
            [record] = records(cli._case_homvanish(w))
            assert record.get("apexes") == homvanish_apexes_by_all_pairs(from_perm(w)), w
            failed += "apexes" in record
        assert failed > 20
