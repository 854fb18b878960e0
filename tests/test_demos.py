"""Each demo script, the shell walkthrough and the README's library
tour run to completion against the current package."""

import glob
import os
import re
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _env(**extra) -> dict:
    """The environment with the source tree's package on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]),
        **extra)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    proc = subprocess.run([sys.executable, path], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_tour_prints_its_lines():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        (block,) = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "StratumLabel(i=3, stabilizer_dim=0, central_flag=False)", "6"]


def test_shell_walkthrough_exits_zero(tmp_path):
    # the walkthrough calls an installed `su2strata`; a shim first on
    # PATH runs the source tree's package in its place
    shim = tmp_path / "su2strata"
    shim.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
                    f"-m su2strata \"$@\"\n")
    shim.chmod(0o755)
    path = os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])
    proc = subprocess.run(
        ["sh", os.path.join(ROOT, "demos", "cli_walkthrough.sh")],
        cwd=tmp_path, env=_env(PATH=path), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "== lens(5,1) invariant at k = 3" in proc.stdout
