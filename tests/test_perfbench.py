import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # The bench times its traced runs through a decider that defines only ``decide``; its
    # self-test checks that such a run equals the table route, so a change to the decider
    # protocol that breaks the bench fails here too.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-tests passed" in proc.stdout
