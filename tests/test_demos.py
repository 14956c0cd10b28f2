"""The quick demos run to completion against the current package.

``demos/overfit_and_visualize.py`` trains for tens of seconds and is left
out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expected", [
    ("synthetic_data_tour.py", "prefix-sum reconstructs positions exactly: True"),
    ("gradient_check.py", "(OK)"),
])
def test_demo_runs(demo, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
