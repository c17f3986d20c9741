"""
Every narrative demo runs to completion as a script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's directory
    path = os.pathsep.join([str(ROOT / "src")]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    # a demo's scratch directories are removed when it ends
    assert not list(tmp_path.glob("divcurl_demo_*"))
