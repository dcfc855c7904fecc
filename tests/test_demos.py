"""The demos run as plain scripts, write the committed figures and print the
pinned output."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# sha256 of each demo's stdout, its working directory written as "<dir>"
STDOUT_SHA256 = {
    "permutation_ideals.py": "cca114955457c5dce082905097aa8828e08bc845f57fb9423296d6fe96aa8b7e",
    "permuton_bridge.py": "a981ab1c8047ba70c64d2cf7991e96defa8673da74f67887c548b896b4d899f1",
    "sheets_and_bricks.py": "1139b91a958600c49fb467efa5bad2b7596567548034d40ba710ceded2515245",
}


def test_demos_run_and_write_the_committed_figures(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [path])])}
    written = set()
    scripts = sorted(DEMOS.glob("*.py"))
    assert {script.name for script in scripts} == set(STDOUT_SHA256)
    for script in scripts:
        work = tmp_path / script.stem
        work.mkdir()
        shutil.copy(script, work)
        result = subprocess.run([sys.executable, script.name], cwd=work, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (script.name, result.stderr)
        stdout = result.stdout.replace(str(work.resolve()), "<dir>").replace(str(work), "<dir>")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        assert digest == STDOUT_SHA256[script.name], (script.name, stdout)
        for svg in work.glob("*.svg"):
            assert svg.read_bytes() == (DEMOS / svg.name).read_bytes(), svg.name
            written.add(svg.name)
    assert written == {svg.name for svg in DEMOS.glob("*.svg")} != set()
