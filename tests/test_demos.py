"""Every demo script runs to completion (exit code 0)."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# regenerate_instances.py rewrites instances/, so it is not run here.
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "demo_*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
