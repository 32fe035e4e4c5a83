"""Every demo, and the quick start of README.md, runs to the end.

The demos call the checks directly, with tuples where a user would write
them, so they also guard the checks' parameter gate.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    # demos 03 and 06 write under tempfile.mkdtemp(), which honours TMPDIR
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_quick_start_exits_0(tmp_path):
    # the first python code block of README.md
    code = re.search(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
