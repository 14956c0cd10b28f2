"""``tools/user_paths.py`` refuses its arguments before it imports tssan.

The package of each fake checkout below exits the interpreter with a message
as soon as it is imported, so a refusal that reads exit code 2 and that
message's absence shows the tool never imported it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "user_paths.py"


def _checkout(tmp_path, with_cli):
    package = tmp_path / "repo" / "src" / "tssan"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise SystemExit('tssan imported')\n")
    if with_cli:
        (package / "cli.py").write_text("")
    return package.parents[1]


def _run(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)], capture_output=True,
                          text=True, timeout=60, check=False)


@pytest.mark.parametrize("with_cli, out_exists", [(False, False), (True, True)],
                         ids=["no-cli", "out-exists"])
def test_refusal_exits_2_before_importing_tssan(tmp_path, with_cli, out_exists):
    repo = _checkout(tmp_path, with_cli)
    out = tmp_path / "out"
    if out_exists:
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
    proc = _run(repo, out)
    assert proc.returncode == 2
    problem = (f"{out} already exists" if out_exists
               else f"{repo}/src/tssan/cli.py not found")
    assert proc.stderr == f"usage: user_paths.py <repo> <out>\nerror: {problem}\n"
    assert proc.stdout == ""
    if out_exists:
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
    else:
        assert not out.exists()


def test_wrong_argument_count_prints_usage(tmp_path):
    proc = _run(_checkout(tmp_path, True))
    assert (proc.returncode, proc.stderr) == (2, "usage: user_paths.py <repo> <out>\n")
