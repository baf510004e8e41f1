"""The benchmark harness's own self-test, run as part of the test suite.

``perfbench/selftest.py`` drives every workload at reduced sizes through
the program's public calls, its output gates and its tracer; a program
change that breaks any of them fails here.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], cwd=SELFTEST.parents[1],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
