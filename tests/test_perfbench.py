import importlib
import os
import subprocess
import sys
from pathlib import Path

from rankpc.graph import pdag_to_text

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


def test_fixed_work_reproduces_expected_digests(tmp_path, monkeypatch):
    # The bench refuses a seed-0 run whose records differ from its EXPECTED_DIGESTS; recomputing
    # all three here, from the bench's own helpers, makes a change of records fail locally too.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wl = importlib.import_module("workloads")
    seed = wl.DEFAULT_SEED
    out_dir = tmp_path / "grid_out"
    wl.run_cli_experiment(wl.grid_config(tmp_path, seed, 0), out_dir, threads=1)
    got = {"grid": wl.digest(wl.experiment_lines(out_dir))}
    for workload in ("wide", "kendall"):
        spec, pool = wl.LEARN[workload], wl.setup(workload, seed, tmp_path)["pool"]
        results = [wl.learn(spec, item.data)[1] for item in pool]
        got[workload] = wl.digest(pdag_to_text(r.pdag) + f"tests_run={r.tests_run}" for r in results)
    assert got == wl.EXPECTED_DIGESTS
