"""The benchmark harness's self-test, run with the rest of the suite.

`perfbench/selftest.py` runs every workload at tiny sizes, traced and
untraced, and checks that each traced layer (for example
`gbdt.find_best_split`) is called and that every output check passes. A
learner change that breaks that contract then fails here too, not only when
the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
