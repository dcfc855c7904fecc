"""The demos run as plain scripts and write the committed figures."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def test_demos_run_and_write_the_committed_figures(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [path])])}
    written = set()
    for script in sorted(DEMOS.glob("*.py")):
        work = tmp_path / script.stem
        work.mkdir()
        shutil.copy(script, work)
        result = subprocess.run([sys.executable, script.name], cwd=work, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (script.name, result.stderr)
        for svg in work.glob("*.svg"):
            assert svg.read_bytes() == (DEMOS / svg.name).read_bytes(), svg.name
            written.add(svg.name)
    assert written == {svg.name for svg in DEMOS.glob("*.svg")} != set()
