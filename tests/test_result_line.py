"""The benchmark's fit workload ends its output with a strict-JSON result.

A comparison of runs reads only the last stdout line of ``bench/run.py``,
so nothing may write after the result or in its place, and nothing may
reach stderr.  The run goes under ``-X dev -W error::ResourceWarning``, so
a file left open past the harness's captured CLI calls, and collected
later (at exit, say), is reported there.  (A file the CLI leaves
to the collector while the harness captures its output is caught by
``test_cli.py``'s pack-only run instead.)
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_toy_fit_ends_with_a_strict_json_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         str(ROOT / "bench" / "run.py"), "--workload", "synthetic-fit-v3ff", "--toy",
         "--seconds", "0.2", "--seed", "3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
