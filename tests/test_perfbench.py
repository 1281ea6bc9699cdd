"""The benchmark's self-test as a tier-1 test: it runs every workload at
tiny sizes, untraced and traced, so a renamed or removed stimkb function
that the benchmark calls or wraps fails the test suite, not only a
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "selftest passed"
