"""The scripts under scripts/ run to completion with their default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> a line of its output, stripped of the padding around it, or a
# file holding its whole output
SCRIPTS = {
    "relation_sweep.py": "c  half  worst residual  worst relation",
    "haar_demo.py": "instance  dim  iters  ces-vs-solve  worst resid  vs uniform",
    "spectrum_report.py": "total mismatches across 6 parameter pairs: 0",
    # the digest of every finite-strand report, pinned byte for byte
    "report_digest.py": ROOT / "tests" / "golden" / "finite_digests.txt",
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = SCRIPTS[script]
    if isinstance(expected, Path):
        assert proc.stdout == expected.read_text()
    else:
        assert expected in [line.strip() for line in proc.stdout.splitlines()]
