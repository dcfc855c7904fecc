"""Golden digests: the sha256 of stdout and the exit code of fixed commands.

The digests were taken from the program before curve modules were read and
written in integer units, so a change that claims the same output bytes is
held to them here.  They cover every check at n = 1..5, the mizuno,
taurigid, bridge and twosided sweeps at n = 6 under PREPROJ_MAX_N=7 (taken
from the program that still built a validated curve for every summand of
every case), the homvanish and twosided defaults, ideal perm at n = 12, 16, 20, and brick check on fixed
curve-module files at the same sizes.  Two sampled sweeps at n = 10, under
PREPROJ_MAX_N=10, pin the JSON-array form of the labels; their digests were
taken from the program that still picked a sample from the listed S_n.  The
taurigid and twosided sweeps at n = 7, under PREPROJ_MAX_N=8, were taken from
the program that still packed each taurigid case's own quotients, built a
permutation's cells from a zero matrix and its diamond bottoms per call, and
encoded every passing record through a dict.

Sheet analyze on fixed sheets (two bubbles, curves touching at a breakpoint,
curves crossing between breakpoints, a second sheet as target, and shifts
that split or empty the headroom interval), ideal permuton at an apex off
its grid, and both permuton orders on a pair on coprime grids were pinned
while every sign question of a sheet was still read off max(d, 0).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from preproj.cli import main

CHECKS = ("mizuno", "taurigid", "bridge", "bruhat", "twosided")
# the sweeps pinned at n = 6 too, where the memos and shared curves matter
CHECKS_AT_6 = ("mizuno", "taurigid", "bridge", "twosided")
# and at n = 7: the taurigid Hom table and the permutations' permutons
CHECKS_AT_7 = ("taurigid", "twosided")

# a fixed permutation per size, as a JSON array
PERMS = {
    12: [7, 2, 11, 4, 9, 12, 1, 6, 3, 10, 5, 8],
    16: [9, 14, 3, 16, 6, 1, 12, 8, 15, 2, 11, 5, 13, 4, 10, 7],
    20: [11, 3, 18, 7, 20, 1, 15, 9, 13, 5, 19, 2, 16, 8, 12, 4, 17, 6, 14, 10],
}


def projective_units(i: int, n: int) -> list[int]:
    """P_i: the curve on the diamond's top, in units of 1/n."""
    return [abs(j - i) for j in range(n + 1)]


def deep_sub_units(i: int, n: int) -> list[int]:
    """A submodule of P_i cut flat at depth about n/4: the top boundary or the
    level n/4 (n/4 - 1 where the parity of the lattice asks), the deeper."""
    d = n // 4
    return [max(abs(j - i), d - (d - i - j) % 2) for j in range(n + 1)]


def json_file(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def curve_file(tmp_path, name: str, i: int, n: int, units: list[int]) -> str:
    """A curve-module JSON file, its values written by Fraction itself."""
    return json_file(tmp_path, name, {"type": "curve_module", "n": n, "i": i, "kind": "sub",
                                      "curve": [str(Fraction(u, n)) for u in units]})


def curve(*points: tuple[str, str]) -> dict:
    """A boundary curve at apex 1/2 through the given (x, y) literals."""
    return {"k": "1/2", "breakpoints": [list(p) for p in points]}


# sheets at apex 1/2: (up, down)
SHEETS = {
    # up has valleys at 1/4 and 3/4; down meets it at 1/2, a breakpoint of both
    "two-bubble": (
        curve(("0", "1/2"), ("1/4", "1/4"), ("1/2", "1/2"), ("3/4", "1/4"), ("1", "1/2")),
        curve(("0", "1/2"), ("1/4", "3/4"), ("1/2", "1/2"), ("3/4", "3/4"), ("1", "1/2")),
    ),
    # down touches up at 1/2, a breakpoint of both, and stays below it elsewhere
    "touch": (
        curve(("0", "1/2"), ("3/10", "1/5"), ("1/2", "2/5"), ("1", "1/2")),
        curve(("0", "1/2"), ("1/5", "7/10"), ("1/2", "2/5"), ("3/4", "13/20"), ("1", "1/2")),
    ),
    # down crosses up at 2/5 and 3/5, where neither curve breaks
    "cross": (
        curve(("0", "1/2"), ("1/10", "2/5"), ("1/5", "1/2"), ("1", "1/2")),
        curve(("0", "1/2"), ("1/5", "7/10"), ("1/2", "2/5"), ("4/5", "7/10"), ("1", "1/2")),
    ),
    # up has valleys at 2/5 and 3/5, down dips between them
    "roof": (
        curve(("0", "1/2"), ("2/5", "1/10"), ("1/2", "1/5"), ("3/5", "1/10"), ("1", "1/2")),
        curve(("0", "1/2"), ("2/5", "9/10"), ("1/2", "4/5"), ("3/5", "9/10"), ("1", "1/2")),
    ),
}

# label -> (sheet, target sheet or None, --cone, --codep)
SHEET_RUNS = {
    "two-bubble": ("two-bubble", None, "1/4,0", "3/4,1/8"),
    "touch": ("touch", None, "3/10,0", "3/10,1/10"),
    "cross": ("cross", None, "1/10,0", "1/10,1/20"),
    "against": ("roof", "two-bubble", "2/5,0", "3/5,1/10"),
    "split": ("roof", None, "2/5,7/10", "3/5,7/10"),
    "empty": ("roof", None, "2/5,1", "1/2,4/5"),
}

# permutons on coprime grids, 2 and 3: "three" is incomparable with "two" and
# comparable with "anti"
PERMUTONS = {
    "two": {"m": 2, "mass": [["3/8", "1/8"], ["1/8", "3/8"]]},
    "anti": {"m": 2, "mass": [["1/8", "3/8"], ["3/8", "1/8"]]},
    "three": {"m": 3, "mass": [["1/6", "1/6", "0"], ["1/6", "0", "1/6"],
                               ["0", "1/6", "1/6"]]},
}


def sheet_file(tmp_path, name: str) -> str:
    up, down = SHEETS[name]
    return json_file(tmp_path, f"sheet-{name}", {"k": "1/2", "up": up, "down": down})


def argvs(tmp_path) -> dict[str, list[str]]:
    runs = {f"check {name} --n {n}": ["check", name, "--n", str(n)]
            for name in CHECKS for n in range(1, 6)}
    runs.update({f"check {name} --n 6": ["check", name, "--n", "6"] for name in CHECKS_AT_6})
    runs.update({f"check {name} --n 7": ["check", name, "--n", "7"] for name in CHECKS_AT_7})
    runs["check bruhat --n 10 --sample 12"] = ["check", "bruhat", "--n", "10",
                                               "--sample", "12"]
    runs["check bridge --n 10 --sample 4"] = ["check", "bridge", "--n", "10",
                                              "--sample", "4"]
    runs["check homvanish"] = ["check", "homvanish"]
    runs["check twosided"] = ["check", "twosided"]
    for n, w in PERMS.items():
        runs[f"ideal perm {n}"] = ["ideal", "perm", json.dumps(w)]
        i = n // 2
        for name, units in (("projective", projective_units(i, n)),
                            ("deep", deep_sub_units(i, n))):
            path = curve_file(tmp_path, f"{name}{n}", i, n, units)
            runs[f"brick check {name} {n}"] = ["brick", "check", path]
    for label, (name, target, cone, codep) in SHEET_RUNS.items():
        argv = ["sheet", "analyze", sheet_file(tmp_path, name), "--cone", cone, "--codep", codep]
        if target is not None:
            argv += ["--against", sheet_file(tmp_path, target)]
        runs[f"sheet analyze {label}"] = argv
    files = {name: json_file(tmp_path, name, mu) for name, mu in PERMUTONS.items()}
    runs["ideal permuton --at 2/7"] = ["ideal", "permuton", files["three"], "--at", "2/7"]
    for what in ("ideal", "permuton"):
        for name in ("two", "anti"):
            runs[f"order {what} {name} three"] = ["order", what, files[name], files["three"]]
    return runs


GOLDEN = {
    "brick check deep 12": ("e2f25145a4006e4006b1add4ec1de278e30ea600182aa86c60741c91c5a192a4", 0),
    "brick check deep 16": ("65a130b17a9c69ea45c5062b0a3df7270f460f7bfd9cac29a92e4d5e24db1aac", 0),
    "brick check deep 20": ("94946b92a0ee23bd06ad47f477d8dc696296b03ecf5c82396b63be4710b5b4d4", 0),
    "brick check projective 12": ("65a130b17a9c69ea45c5062b0a3df7270f460f7bfd9cac29a92e4d5e24db1aac", 0),
    "brick check projective 16": ("94946b92a0ee23bd06ad47f477d8dc696296b03ecf5c82396b63be4710b5b4d4", 0),
    "brick check projective 20": ("2e0b64ca38dc780149e58a799296a3dc96cb6edc95be3544131930a985e7c350", 0),
    "check bridge --n 1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "check bridge --n 2": ("269bb48e2c19a208fdef3d21e29deeeb4aa46f32171ed82e8b24d735753feb8c", 0),
    "check bridge --n 3": ("a57ca790bb11c25386c388f0d1761d1027eb58614f3d5bb9c2f0af7d2e19a1fb", 0),
    "check bridge --n 4": ("a121f574b37a640afda0b4df5d9829052fd77802421bbfcbc8bf77eaa09c74c9", 0),
    "check bridge --n 5": ("62d8f1461b47505182ff9c9e87998c058717baf57b24478f5f962ea99e61d53b", 0),
    "check bridge --n 6": ("f5b46086427e06a295d8536d80b054755574e7ac85e1fb1dc7e03742e97e10da", 0),
    "check bridge --n 10 --sample 4": ("a55341a1785bfda6cab8dddcb4cd73492ddd7561595b027fcb5eacc7d5b459dd", 0),
    "check bruhat --n 1": ("5b906b25be524efc91c0831bc0f6acb9730fc958872c94e855903edd5258b6e9", 0),
    "check bruhat --n 2": ("2469e089dceeeccca217b2f45ce5546da39880daf5e184f4cf8340d3b43643ae", 0),
    "check bruhat --n 3": ("140d434e3170929ffe5cc950cbf9cf84158dcd8b85cd2363d1da562313c2a7fb", 0),
    "check bruhat --n 4": ("d229fd759b45a0c0bd0e1dadfd3bacf8f3d74a10d48fc8141cc1ae766fcf2714", 0),
    "check bruhat --n 5": ("cf78b9e41f7f9e1c347d7946af23b17bcbb1ef7fc8f8422439558e4c4c02d73b", 0),
    "check bruhat --n 10 --sample 12": ("f4f15ec1070423ba5eb4f4d80bbb227c2b6248c61c428a08634762a266b9207c", 0),
    "check homvanish": ("3270d898ea673ca328fa5a1592a8f87ea062fc35f6bca3f9b6c41178804a4d72", 0),
    "check mizuno --n 1": ("0220a08bf3b9d5f34dc119ff88b7f02932c5615de48fc74ced34057ea549a011", 0),
    "check mizuno --n 2": ("328be3a280e059be37783c4363f90582c1ebb2f4eacc7edc2762780daed1bce0", 0),
    "check mizuno --n 3": ("0930f20c87fc7627c453093835a7f92e0bc74678414688187c7fe71e4a2e20ff", 0),
    "check mizuno --n 4": ("611a976c38fe7edb6391cfc7b32f2c2510be080402a68b2a22765e4db4c0723c", 0),
    "check mizuno --n 5": ("f5bb6e0294bde69c5aa6483663318f30b9284c4d46e94fceb8a9be285b14f4b1", 0),
    "check mizuno --n 6": ("a921da88d698c3b6c32780946147753c301e4266503b8441a2a1d90f2e71bac7", 0),
    "check taurigid --n 1": ("8a861dab663441ff3197156360a16c42271b699a767cf676179501ee2d70b3c5", 0),
    "check taurigid --n 2": ("fd8a322cc6aa3678949e48f2b82ad8f51e4ec8e575b79b848c28f5efe0815b0b", 0),
    "check taurigid --n 3": ("b9093bc03f4e5f9ccb675812d2b7d98d9edd7bba137a0f2b77a385188b32ea12", 0),
    "check taurigid --n 4": ("851e8031697b4673e3ef3a52084a7b0a5febf79b4d5c2f84e7e8d6c27757a5be", 0),
    "check taurigid --n 5": ("fc82bc504651334184ef8d409db95d4d948f63ecf0fd92d4c2681585dee1011b", 0),
    "check taurigid --n 6": ("c027f98a7b0fdf7721d703cafce09d61de7bff7c38fd6c29c0f0c339601e5cf0", 0),
    "check taurigid --n 7": ("0deaedc86a249d1d40fd5814c9442102c84d74a7f6105b097ee71e7d48bf3048", 0),
    "check twosided": ("b13de9c94fd0ef958737ea325fa3a459150032b5a2b2d9c530338efba20b05eb", 0),
    "check twosided --n 1": ("46d342e5a071806d716aea6e43e126e6c9b4299bd5a55c496ef7e81a95a6f981", 0),
    "check twosided --n 2": ("18e2e0d6731c2136c9a7be4747660fda5db2b04a281ec4de007eb07e04fbdc0c", 0),
    "check twosided --n 3": ("9aaaec8265ea0ac09bcf8a51f09c416eb682ceb6ec51077334f7a62328807b8f", 0),
    "check twosided --n 4": ("b13de9c94fd0ef958737ea325fa3a459150032b5a2b2d9c530338efba20b05eb", 0),
    "check twosided --n 5": ("77fc59ec1aba009db86ef0ce26b65cb8c154df4112e58904b6212bd494994f1c", 0),
    "check twosided --n 6": ("22b337aa22aeda6e1f75b323ec41417ee20c3f12a0cb3e31ab184928b84df8be", 0),
    "check twosided --n 7": ("19fea7c0785a937d54045e61c5f7ad5d3e7c0489413cd2c56bde336b5d29e5a8", 0),
    "ideal perm 12": ("c1c680472b58d1161b93f5af95134f4a4d6ebbb72d599204a78dfd4e60fd4168", 0),
    "ideal perm 16": ("caf7141c79c0513bd94c96cb7104acdb46c9b5e7ea3ee6b886ec38f4e39daf1e", 0),
    "ideal perm 20": ("47320c0f4175fad4b9fb9bdde8096dc67d937a1fe63b8951baf92f9e76abad9a", 0),
    "ideal permuton --at 2/7": ("812ac566327aa09b8c628b78230382e73ad441b9f21ab73ceba56e451027339a", 0),
    "order ideal anti three": ("a11a05b22e2cea3694e79e5093c6af2b5c11991e33e546a45d62c04d67f2ef97", 0),
    "order ideal two three": ("c2a8f721700752023d5f5c8f168ef3e9eeb29527ed7a25177033d105726ff2e3", 0),
    "order permuton anti three": ("729d7f5168c01c455080683319c6f18de133d825e225920798e7b8654231ef6e", 0),
    "order permuton two three": ("c2a8f721700752023d5f5c8f168ef3e9eeb29527ed7a25177033d105726ff2e3", 0),
    "sheet analyze against": ("d340ea12a7bb6ce063d0e0384082524ee5582c62c05465161ef58df84574e576", 0),
    "sheet analyze cross": ("ef688b1b3846c16e9afe01057652e4edbad83c2f53cb5d602ac00056d842849a", 0),
    "sheet analyze empty": ("6d62ef75a208f337b17d22ee67101f0da0d080ac926c89fbcf00ddbacc52958e", 0),
    "sheet analyze split": ("f1f38599eb1c6892c9f6813718163e1c8c156150dfa72965465243aa66256ad0", 0),
    "sheet analyze touch": ("0f0f07d00b4a8793f3575f74ed5e27cf62d5182bf0be975d5d5a2214dd657b90", 0),
    "sheet analyze two-bubble": ("1cd4c4b8ebcfbf0cc7645c5fbe10672baba89b6ec6fe02448719cd746aae1b32", 0),
}


def test_every_command_is_pinned(tmp_path):
    assert set(argvs(tmp_path)) == set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_same_bytes_and_exit_code(capsys, monkeypatch, tmp_path, label):
    if "--n 10" in label:
        monkeypatch.setenv("PREPROJ_MAX_N", "10")
    elif "--n 6" in label:
        monkeypatch.setenv("PREPROJ_MAX_N", "7")
    elif "--n 7" in label:
        monkeypatch.setenv("PREPROJ_MAX_N", "8")
    code = main(argvs(tmp_path)[label])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[label]
