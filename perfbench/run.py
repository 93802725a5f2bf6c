"""Benchmark of the rank-PC learner: end-to-end metrics, or per-layer ones from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process,
and prints every metric by workload, name and unit.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment and the
run's details.  The exit code is 0 only when every output check passed.

The program is imported from ``src/`` of the checkout and from nowhere
else, so a directory without it fails before printing a result.  BLAS and
OpenMP thread variables are recorded as inherited and never set.

End-to-end timings are reported at a fixed reference host speed: each is
multiplied by PROBE_REFERENCE_S over the mean time of the host-speed probe
(calibrate.py, a separate process) sampled before every unit of work.  The
host this was built on drifts by 20-30% over minutes, and the probe drifts
with it.  The raw wall-clock values are printed beside the scaled ones, as
'<metric>.raw', and the factor is in the info line.

setup_s is the median of SETUP_REPEATS set-ups in fresh processes, spread
over the measured work between its units, so that they meet the same host
speed as the probe samples that scale them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INHERITED_ENV = dict(os.environ)  # before the program is imported and could change it
WORKLOADS = ("grid", "wide", "kendall")
SETUP_REPEATS = 5  # set-ups in fresh processes per run; setup_s is their median
END_TO_END = ("wall_s", "setup_s", "learn_ms_p50", "learn_ms_tail", "peak_rss_mb", "shd_mean")
TIMINGS = ("wall_s", "setup_s", "learn_ms_p50", "learn_ms_tail")
PROBE_REFERENCE_S = 0.04  # probe time that defines the reference host speed
PROBE_SAMPLES = 60  # probe samples over the fixed work, taken in bursts before each unit


class HostProbe:
    """The calibrate.py child process; each call times one run of its kernel."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=INHERITED_ENV,
        )
        self.samples: list[float] = []

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed probe exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_program():
    """Import the program from the checkout's src/ and return the workloads module."""
    src = (ROOT / "src").resolve()
    if not (src / "rankpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import rankpc

    if Path(rankpc.__file__).resolve().parent != src / "rankpc":
        raise SystemExit(f"error: rankpc was imported from {rankpc.__file__}, not from {src}")
    import workloads

    return workloads


def set_up(workload: str, seed: int, workdir: Path, trace: bool):
    """Import the program and make the inputs; returns the modules, state, tracer and seconds taken."""
    t0 = perf_counter()
    wl = import_program()
    tracer = wl.Tracer() if trace else None
    state = wl.setup(workload, seed, workdir, tracer)
    return wl, state, tracer, perf_counter() - t0


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


class BetweenUnits:
    """Called before every unit of work: samples the host's speed, and before
    every ``step``-th unit of the fixed work also times one set-up in a fresh
    process, so that the set-ups are spread over the measured work.

    Each call takes a burst of probe samples, sized so that the fixed work
    gets about PROBE_SAMPLES of them whatever its number of units: a single
    sample is fast or slow at random, and the mean needs many of them.
    """

    def __init__(self, probe: HostProbe, workload: str, seed: int, fixed_units: int):
        self.probe, self.workload, self.seed = probe, workload, seed
        self.step = max(1, fixed_units // SETUP_REPEATS)
        self.burst = -(-PROBE_SAMPLES // fixed_units)
        self.calls = 0
        self.setups: list[float] = []

    def __call__(self) -> None:
        if self.calls % self.step == self.step // 2 and len(self.setups) < SETUP_REPEATS:
            self.setups.append(setup_in_fresh_process(self.workload, self.seed))
        self.calls += 1
        for _ in range(self.burst):
            self.probe()


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: v for k, v in sorted(INHERITED_ENV.items()) if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
    }


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples without the highest and lowest tenth."""
    xs = sorted(samples)
    k = len(xs) // 10
    return statistics.fmean(xs[k : len(xs) - k])


def to_reference(outcome, probe_samples: list[float]) -> None:
    """Scale the timings to the reference host speed; keep the raw values in the info line.

    A probe sample is either fast or about 1.6 times slower, seldom between,
    and the mix changes over minutes.  The mean follows the share of slow
    samples smoothly, where the median would jump from one mode to the other.
    """
    probe_s = trimmed_mean(probe_samples)
    factor = PROBE_REFERENCE_S / probe_s
    outcome.info.update(
        probe_s=probe_s,
        probe_samples=len(probe_samples),
        probe_samples_s=probe_samples,
        speed_factor=factor,
        raw={name: outcome.metrics[name][0] for name in TIMINGS},
    )
    for name in TIMINGS:
        value, unit = outcome.metrics[name]
        outcome.metrics[name] = (value * factor, unit)


@contextlib.contextmanager
def work_dir():
    """A temporary directory under the checkout's .perfbench_work, which goes when no run uses it."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            yield Path(tmp)
    finally:
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(args) -> int:
    with work_dir() as tmp:
        wl, state, tracer, setup_s = set_up(args.workload, args.seed, tmp, bool(args.trace))
        if args.trace:
            outcome = wl.measure_traced(args.workload, state, args.seconds, tracer)
        else:
            probe = HostProbe()
            try:
                between = BetweenUnits(probe, args.workload, args.seed, wl.FIXED_UNITS[args.workload])
                outcome = wl.measure(args.workload, state, args.seconds, between)
            finally:
                probe.close()
            outcome.metrics["setup_s"] = (statistics.median(between.setups), "s")
            outcome.metrics = {name: outcome.metrics[name] for name in END_TO_END}
            to_reference(outcome, probe.samples)
            outcome.info.update(setup_s_samples=between.setups, setup_s_in_process=setup_s)
    import selftest

    for problem in selftest.run_all():
        outcome.check(False, f"self-test: {problem}")
    correct = outcome.failed == 0
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    info.update(outcome.info, problems=outcome.problems, environment=environment())
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:.6g} {unit}")
        if name in outcome.info.get("raw", {}):
            print(f"{args.workload:8s} {name + '.raw':36s} {outcome.info['raw'][name]:.6g} {unit} (wall clock)")
    print(json.dumps({"info": info}))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; metrics are reported as '<workload>.<metric>'."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_only:
        with work_dir() as tmp:
            print(set_up(args.workload, args.seed, tmp, trace=False)[3])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
