"""The benchmark's self-test passes against the package in src/.

perfbench/selftest.py installs a hook on every package function the
benchmark traces, so a function renamed or deleted in src/ shows up here
as an absent hook, not only in the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]
