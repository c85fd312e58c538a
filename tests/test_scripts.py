"""The scripts under scripts/ run to completion on the shipped configs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,writes", [("run_oracle_report.py", False),
                                           ("run_blowup.py", True),
                                           ("run_nearfield.py", True)])
def test_script_runs(tmp_path, script, writes):
    args = [str(ROOT / "configs" / "default.json"), "--output", "out.csv"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + (args if writes else []), cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and "Traceback" not in done.stderr, \
        done.stderr
    if writes:
        assert (tmp_path / "out.csv").stat().st_size > 0
