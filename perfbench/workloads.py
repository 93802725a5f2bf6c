"""The benchmark's workloads: inputs made from the seed, timed loops, traced
rebuilds from public calls, and the checks on the program's outputs.

Workloads (why each was chosen is in BENCHMARK.json and DESIGN.md):
  grid     ``rankpc experiment`` in-process with ``--threads 1`` on a small
           comparative-study config; one call is one unit of work.
  wide     one CPDAG per f11 dataset at p=100, n=1000, Spearman, alpha=0.01.
  kendall  the same learn at p=50, n=1000 with Kendall.

Every run first completes the workload's fixed work (``FIXED_UNITS``
units: experiment calls, or learns over the dataset pool), then repeats
work until the requested seconds have passed.  Counts, quality metrics and
the tail percentile come from the fixed work only, so counts repeat exactly
for a seed and the tail is the same order statistic on every run; the
median and the mean pace use every sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from rankpc.citest import RankCiDecider, TestConfig
from rankpc.cli import main as rankpc_main
from rankpc.correlation import Dataset, estimate_correlation_matrix
from rankpc.experiment import load_config, records_from_csv
from rankpc.graph import Pdag, cpdag, meek_closure, pdag_to_text, shd
from rankpc.pc import orient_colliders, pc_skeleton, run_pc
from rankpc.simulate import SemModel, derive_seed, random_dag, random_weights, sample_sem
from tracing import LEVELS, QueryStats, TracedDecider, Tracer, self_times, tail_percentile

DEFAULT_SEED = 0
DEGREE = 3.0
ALPHA = 0.01

GRID_REPLICATES = 1  # replicates per experiment call
GRID_CONFIG = (
    "[experiment]\n"
    "p = 10\n"
    "n = 100 1000\n"
    "degree = 3\n"
    "regimes = normal f11 contaminated\n"
    "methods = pearson spearman\n"
    "replicates = {replicates}\n"
    "seed = {seed}\n"
)
# noise and transform per regime, as the experiment harness builds its models
REGIME_MODEL = {
    "normal": ("standard_normal", "identity"),
    "f11": ("standard_normal", "f11"),
    "contaminated": ("cauchy_mixture", "identity"),
}


@dataclass(frozen=True)
class LearnSpec:
    p: int
    n: int
    method: str
    pool: int  # datasets; the first pass over them gives the quality metrics
    learns: int  # learns in the fixed work, cycling over the pool
    checked: int  # datasets the traced run also learns untraced, to compare


LEARN = {
    "wide": LearnSpec(p=100, n=1000, method="spearman", pool=24, learns=30, checked=4),
    "kendall": LearnSpec(p=50, n=1000, method="kendall", pool=11, learns=11, checked=2),
}
# units of work in the fixed work: experiment calls on grid, learns otherwise
FIXED_UNITS = {"grid": 18, **{name: spec.learns for name, spec in LEARN.items()}}

# sha256 of the outputs of the fixed work at DEFAULT_SEED: for grid, the first
# experiment call's records.csv without runtime_ms plus its summary.csv; for
# the learn workloads, every pool dataset's PDAG text and tests_run.
EXPECTED_DIGESTS = {
    "grid": "401e413780f514eabcb4bb09002f7b27f814f9327935087f37e6ebe006d3d43d",
    "wide": "ce123309dff292e03f8994d6e403685992a293810a338db2ed11d31c48abe5c0",
    "kendall": "806e314654e4758037ed4872b47e7be003f2bf63d010c1f0772dd84583cb3281",
}


@dataclass
class Outcome:
    """What one run measured and found."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Fit:
    """One learned PDAG and its diagnostics."""

    pdag: Pdag
    tests_run: int
    max_cond_used: int
    conflicts: int
    removals: int
    stats: QueryStats | None = None
    shd: int = -1
    cyclic: bool = False
    fixed: bool = True
    key: tuple = ()
    pc_s: float = 0.0  # skeleton, orientation and closure: what run_pc times in the program

    def outputs(self) -> tuple:
        """The outputs a traced and an untraced run must agree on."""
        return (pdag_to_text(self.pdag), self.shd, self.tests_run, self.max_cond_used)


@dataclass
class PoolItem:
    data: Dataset
    truth: Pdag


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- set-up ----------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Make the workload's inputs from the seed; this is what setup_s times."""
    if workload == "grid":
        for unit in range(FIXED_UNITS["grid"]):
            grid_config(workdir, seed, unit)
        return {"seed": seed, "workdir": workdir}
    spec = LEARN[workload]
    pool = []
    for j in range(spec.pool):
        rng = np.random.default_rng(derive_seed("perfbench", workload, seed, j))
        with _span(tracer, "simulate.sample"):
            dag = random_dag(spec.p, DEGREE / (spec.p - 1), rng)
            model = SemModel(dag, random_weights(dag, rng), transform="f11")
            data = sample_sem(model, spec.n, rng)
        with _span(tracer, "graph.cpdag"):
            truth = cpdag(dag)
        pool.append(PoolItem(data, truth))
    return {"seed": seed, "workdir": workdir, "pool": pool}


def grid_config(workdir: Path, seed: int, unit: int) -> Path:
    """Config file of one grid unit; its experiment seed comes from the workload seed."""
    path = workdir / f"grid_{unit}.ini"
    if not path.exists():
        cfg_seed = derive_seed("perfbench", "grid", seed, unit) % 2**31
        path.write_text(GRID_CONFIG.format(replicates=GRID_REPLICATES, seed=cfg_seed))
    return path


# -- grid ------------------------------------------------------------------

def fits_per_call(config) -> int:
    """PC fits one ``rankpc experiment`` call makes on ``config``."""
    return (
        len(config.p_values) * len(config.n_values) * len(config.regimes) * len(config.methods)
        * len(config.alpha_log10) * config.replicates
    )


def run_cli_experiment(config: Path, out_dir: Path, threads: int) -> float:
    """``rankpc experiment`` in-process; returns its wall time in seconds."""
    argv = ["experiment", "--config", str(config), "--out", str(out_dir), "--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = rankpc_main(argv)
        elapsed = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"rankpc {' '.join(argv)} exited with {code}")
    return elapsed


def experiment_lines(out_dir: Path) -> list[str]:
    """records.csv without the runtime_ms column, then summary.csv."""
    records = [ln.rsplit(",", 1)[0] for ln in (out_dir / "records.csv").read_text().splitlines()]
    return records + (out_dir / "summary.csv").read_text().splitlines()


def digest(lines) -> str:
    h = hashlib.sha256()
    for ln in lines:
        h.update(ln.encode() + b"\n")
    return h.hexdigest()


def measure_grid(state: dict, seconds: float, between) -> Outcome:
    out = Outcome()
    workdir, seed = state["workdir"], state["seed"]
    fixed = FIXED_UNITS["grid"]
    unit_s, learn_ms, shds = [], [], []
    start = perf_counter()
    unit = 0
    while unit < fixed or perf_counter() - start < seconds:
        out_dir = workdir / f"out_{unit}"
        config = grid_config(workdir, seed, unit)
        fits = fits_per_call(load_config(config))
        between()
        unit_s.append(run_cli_experiment(config, out_dir, threads=1))
        records = records_from_csv(out_dir / "records.csv")
        out.attempted += fits
        out.check(len(records) == fits, f"unit {unit}: {len(records)} of {fits} fits recorded")
        learn_ms.append(unit_s[-1] * 1e3 / fits)  # time per CPDAG as the caller of one call sees it
        if unit < fixed:
            shds.extend(r.shd for r in records)
        if unit == 0 and seed == DEFAULT_SEED:
            got = digest(experiment_lines(out_dir))
            out.check(got == EXPECTED_DIGESTS["grid"], f"grid digest {got} differs from the expected one")
        shutil.rmtree(out_dir)
        unit += 1
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # Per-fit runtime_ms would give a real tail, but a few hard datasets per
    # seed set it: over 10 seeds on a 2-core host it spread by 0.28 (IQR over
    # median).  The per-fit median falls between the n=100 and the n=1000
    # fits, and spread by 0.13.
    tail, pct, count = tail_percentile(learn_ms[:fixed])
    out.metrics.update(
        wall_s=(fixed * statistics.fmean(unit_s), "s"),
        learn_ms_p50=(statistics.median(learn_ms), "ms"),
        learn_ms_tail=(tail, "ms"),
        shd_mean=(statistics.fmean(shds), "count"),
    )
    out.info.update(units=unit, tail_percentile=pct, samples=count)
    return out


def fit_traced(tracer: Tracer, sigma, n: int, p: int, method: str, alpha: float, seen: set) -> Fit:
    """What ``run_pc`` does, one public call per span, with every query timed."""
    stats = QueryStats()
    with tracer.span("citest.build"):
        inner = RankCiDecider(sigma, n, TestConfig("fisher_z", method=method, alpha=alpha))
    decider = TracedDecider(inner, tracer, stats, seen)
    t0 = perf_counter()
    with tracer.span("pc.skeleton"):
        skel = pc_skeleton(decider, p)
    with tracer.span("pc.orient"):
        states, conflicts = orient_colliders(skel.edges, skel.sepsets, p)
    with tracer.span("graph.meek"):
        pdag = meek_closure(Pdag(p, states))
    pc_s = perf_counter() - t0
    return Fit(
        pdag=pdag,
        tests_run=skel.tests_run,
        max_cond_used=skel.max_cond_used,
        conflicts=len(conflicts),
        removals=p * (p - 1) // 2 - len(skel.edges),
        stats=stats,
        pc_s=pc_s,
    )


def score_traced(tracer: Tracer, fit: Fit, truth: Pdag) -> None:
    with tracer.span("graph.shd"):
        fit.shd = shd(fit.pdag, truth)
    with tracer.span("graph.cycle_check"):
        fit.cyclic = fit.pdag.has_directed_cycle()


def rebuild_experiment(config, tracer: Tracer, fixed: bool, fixed_traces: set) -> list[Fit]:
    """One experiment call rebuilt from public calls, one trace per replicate."""
    fits = []
    for regime in config.regimes:
        noise, transform = REGIME_MODEL[regime]
        for p in config.p_values:
            for n in config.n_values:
                for rep in range(config.replicates):
                    trace = tracer.new_trace()
                    if fixed:
                        fixed_traces.add(trace)
                    with tracer.span("replicate"):
                        seed = derive_seed(config.seed, p, n, config.degree, regime, rep)
                        with tracer.span("simulate.sample"):
                            rng = np.random.default_rng(seed)
                            dag = random_dag(p, config.degree / (p - 1), rng)
                            model = SemModel(dag, random_weights(dag, rng), noise=noise, transform=transform)
                            data = sample_sem(model, n, rng)
                        with tracer.span("graph.cpdag"):
                            truth = cpdag(dag)
                        for method in config.methods:
                            with tracer.span(f"correlation.estimate.{method}"):
                                sigma = estimate_correlation_matrix(data, method)
                            seen: set = set()
                            for log_alpha in config.alpha_log10:
                                alpha = 10.0**log_alpha
                                fit = fit_traced(tracer, sigma, n, p, method, alpha, seen)
                                score_traced(tracer, fit, truth)
                                fit.key = (p, n, regime, method, alpha, rep)
                                fit.fixed = fixed
                                fits.append(fit)
    return fits


def traced_grid(state: dict, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome()
    workdir, seed = state["workdir"], state["seed"]
    config0 = grid_config(workdir, seed, 0)
    serial_dir, pool_dir = workdir / "serial", workdir / "pool"
    serial_s = run_cli_experiment(config0, serial_dir, threads=1)
    serial = records_from_csv(serial_dir / "records.csv")
    unit_fits = fits_per_call(load_config(config0))

    fits: list[Fit] = []
    fixed_traces: set = set()
    start = perf_counter()
    unit = 0
    while unit < FIXED_UNITS["grid"] or perf_counter() - start < seconds:
        config = load_config(grid_config(workdir, seed, unit))
        fits.extend(rebuild_experiment(config, tracer, unit < FIXED_UNITS["grid"], fixed_traces))
        out.attempted += fits_per_call(config)
        unit += 1

    threads = max(2, len(os.sched_getaffinity(0)))  # at least 2, so the process pool runs
    pool_s = run_cli_experiment(config0, pool_dir, threads=threads)
    out.check(
        experiment_lines(pool_dir) == experiment_lines(serial_dir),
        f"--threads {threads} records or summary differ from --threads 1",
    )
    pool = records_from_csv(pool_dir / "records.csv")
    got = {f.key: (f.shd, f.tests_run, f.max_cond_used) for f in fits[:unit_fits]}
    want = {
        (r.p, r.n, r.regime, r.method, r.alpha, r.replicate): (r.shd, r.tests_run, r.max_cond_used)
        for r in serial
    }
    out.check(got == want, "traced rebuild of the first grid unit differs from rankpc experiment")
    out.metrics.update(layer_metrics(tracer, fits, fixed_traces))
    out.metrics.update(
        {
            "experiment.records": (len(serial), "count"),
            "experiment.failures": (unit_fits - len(serial), "count"),
            "experiment.pc_ms_per_record": (sum(r.runtime_ms for r in serial) / len(serial), "ms"),
            "experiment.pc_ms_per_record.pool": (sum(r.runtime_ms for r in pool) / len(pool), "ms"),
            "experiment.serial_s": (serial_s, "s"),
            "experiment.pool_s": (pool_s, "s"),
            "trace.overhead_frac": (
                sum(f.pc_s for f in fits[:unit_fits]) * 1e3 / sum(r.runtime_ms for r in serial) - 1.0,
                "ratio",
            ),
        }
    )
    out.info.update(units=unit, pool_threads=threads)
    return out


# -- wide and kendall ------------------------------------------------------

def learn(spec: LearnSpec, data: Dataset):
    """One CPDAG from one dataset: estimate the matrix, then run PC on it."""
    sigma = estimate_correlation_matrix(data, spec.method)
    decider = RankCiDecider(sigma, spec.n, TestConfig("fisher_z", method=spec.method, alpha=ALPHA))
    return sigma, run_pc(decider, spec.p)


def kendall_brute_force(x: np.ndarray) -> np.ndarray:
    """Sine-transformed Kendall matrix from explicit sign products over all pairs."""
    n, p = x.shape
    acc = np.zeros((p, p))
    for lo in range(0, n, 50):
        signs = np.sign(x[lo : lo + 50, None, :] - x[None, :, :]).reshape(-1, p)
        acc += signs.T @ signs  # each unordered pair counted twice
    out = np.sin(np.pi * (acc / (n * (n - 1))) / 2.0)
    np.fill_diagonal(out, 1.0)
    return out


def check_kendall(out: Outcome, spec: LearnSpec, item: PoolItem, sigma) -> None:
    if spec.method == "kendall":
        ref = kendall_brute_force(item.data.values)
        err = float(np.max(np.abs(ref - sigma)))
        out.check(err <= 1e-12, f"kendall matrix differs from the sign-product count by {err:.3g}")


def measure_learn(workload: str, state: dict, seconds: float, between) -> Outcome:
    spec, pool = LEARN[workload], state["pool"]
    out = Outcome()
    times: list[float] = []
    first: list[tuple] = []  # (PDAG text, tests_run) of each pool dataset
    shds: list[int] = []
    start = perf_counter()
    j = 0
    while j < spec.learns or perf_counter() - start < seconds:
        item = pool[j % len(pool)]
        data = Dataset(item.data.values)  # a fresh object for every learn
        out.attempted += 1
        between()
        t0 = perf_counter()
        sigma, result = learn(spec, data)
        times.append(perf_counter() - t0)
        got = (pdag_to_text(result.pdag), result.tests_run)
        if j < len(pool):
            first.append(got)
            shds.append(shd(result.pdag, item.truth))
            if j == 0:
                sigma0 = sigma
        else:
            out.check(got == first[j % len(pool)], f"dataset {j % len(pool)} learned twice gave different outputs")
        j += 1
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    check_kendall(out, spec, pool[0], sigma0)
    if state["seed"] == DEFAULT_SEED:
        got = digest(text + f"tests_run={tests_run}" for text, tests_run in first)
        out.check(got == EXPECTED_DIGESTS[workload], f"{workload} digest {got} differs from the expected one")
    tail, pct, count = tail_percentile(times[: spec.learns])
    out.metrics.update(
        wall_s=(spec.learns * statistics.fmean(times), "s"),
        learn_ms_p50=(statistics.median(times) * 1e3, "ms"),
        learn_ms_tail=(tail * 1e3, "ms"),
        shd_mean=(statistics.fmean(shds), "count"),
    )
    out.info.update(learns=j, tail_percentile=pct, samples=count, tests_run=sum(tests for _, tests in first))
    return out


def traced_learn(workload: str, state: dict, seconds: float, tracer: Tracer) -> Outcome:
    spec, pool = LEARN[workload], state["pool"]
    out = Outcome()
    fits: list[Fit] = []
    fixed_traces: set = set()
    untraced_s = traced_s = 0.0
    start = perf_counter()
    j = 0
    while j < len(pool) or perf_counter() - start < seconds:
        item = pool[j % len(pool)]
        if j < spec.checked:  # the same learn untraced, right before the traced one
            t0 = perf_counter()
            _, result = learn(spec, Dataset(item.data.values))
            untraced_s += perf_counter() - t0
            want = (pdag_to_text(result.pdag), shd(result.pdag, item.truth), result.tests_run, result.max_cond_used)
        data = Dataset(item.data.values)
        trace = tracer.new_trace()
        if j < len(pool):
            fixed_traces.add(trace)
        out.attempted += 1
        t0 = perf_counter()
        with tracer.span("learn"):
            with tracer.span(f"correlation.estimate.{spec.method}"):
                sigma = estimate_correlation_matrix(data, spec.method)
            fit = fit_traced(tracer, sigma, spec.n, spec.p, spec.method, ALPHA, set())
        if j < spec.checked:
            traced_s += perf_counter() - t0
        with tracer.span("score"):
            score_traced(tracer, fit, item.truth)
        fit.key, fit.fixed = (j,), j < len(pool)
        fits.append(fit)
        if j < spec.checked:
            out.check(fit.outputs() == want, f"traced learn of dataset {j} differs from the untraced one")
        if j == 0:
            check_kendall(out, spec, item, sigma)
        j += 1

    out.metrics.update(layer_metrics(tracer, fits, fixed_traces))
    out.metrics.update(
        {
            "experiment.records": (0, "count"),
            "experiment.failures": (0, "count"),
            "experiment.pc_ms_per_record": (0.0, "ms"),
            "experiment.pc_ms_per_record.pool": (0.0, "ms"),
            "experiment.serial_s": (0.0, "s"),
            "experiment.pool_s": (0.0, "s"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }
    )
    out.info.update(learns=j)
    return out


# -- per-layer metrics -----------------------------------------------------

SHARE_LAYERS = ("correlation", "citest", "pc", "graph", "simulate")


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, fits: list[Fit], fixed_traces: set) -> dict:
    """Per-layer metrics from the spans and the fits' query counts.

    Counts cover the fixed work; times are medians (or, per query, means)
    over every span of the run.  Shares divide each layer's self time by the
    summed duration of the fit traces' root spans; 'bench' is the root spans'
    own self time, the benchmark's glue.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    dur: dict[str, list[float]] = {}
    self_by: dict[str, list[float]] = {}
    layer_self = dict.fromkeys(SHARE_LAYERS + ("bench",), 0.0)
    roots = 0.0
    calls = 0
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        d = tracer.end[i] - tracer.start[i]
        dur.setdefault(name, []).append(d)
        self_by.setdefault(name, []).append(selfs[i])
        if tracer.trace[i] < 0:
            continue  # set-up spans
        if tracer.trace[i] in fixed_traces and name.startswith("correlation.estimate."):
            calls += 1
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "bench"] += selfs[i]
        if tracer.parent[i] < 0:
            roots += d

    fixed = [f for f in fits if f.fixed]
    q_fixed = [sum(f.stats.count[k] for f in fixed) for k in range(len(LEVELS))]
    q_all = [sum(f.stats.count[k] for f in fits) for k in range(len(LEVELS))]
    s_all = [sum(f.stats.seconds[k] for f in fits) for k in range(len(LEVELS))]
    queries = sum(q_fixed)
    metrics = {
        f"correlation.estimate_ms.{m}": (_median_ms(dur.get(f"correlation.estimate.{m}")), "ms")
        for m in ("pearson", "spearman", "kendall")
    }
    metrics["correlation.calls"] = (calls, "count")
    metrics["citest.queries"] = (queries, "count")
    for k, level in enumerate(LEVELS):
        metrics[f"citest.queries.{level}"] = (q_fixed[k], "count")
    metrics["citest.query_us"] = (sum(s_all) / sum(q_all) * 1e6, "us")
    for k, level in enumerate(LEVELS):
        metrics[f"citest.query_us.{level}"] = (s_all[k] / q_all[k] * 1e6 if q_all[k] else 0.0, "us")
    metrics.update(
        {
            "citest.distinct_ratio": (sum(f.stats.distinct for f in fixed) / queries, "ratio"),
            "citest.independent_frac": (sum(f.stats.independent for f in fixed) / queries, "ratio"),
            "citest.nonpd": (sum(f.stats.nonpd for f in fixed), "count"),
            "citest.share_of_skeleton": (sum(dur["citest.decide"]) / sum(dur["pc.skeleton"]), "ratio"),
            "pc.skeleton_ms": (_median_ms(dur["pc.skeleton"]), "ms"),
            "pc.skeleton_self_ms": (_median_ms(self_by["pc.skeleton"]), "ms"),
            "pc.orient_ms": (_median_ms(dur["pc.orient"]), "ms"),
            "pc.conflicts": (sum(f.conflicts for f in fixed), "count"),
            "pc.levels": (max(f.max_cond_used for f in fixed) + 1, "count"),
            "pc.removals": (sum(f.removals for f in fixed), "count"),
            "graph.meek_ms": (_median_ms(dur["graph.meek"]), "ms"),
            "graph.cpdag_ms": (_median_ms(dur["graph.cpdag"]), "ms"),
            "graph.shd_ms": (_median_ms(dur["graph.shd"]), "ms"),
            "graph.cyclic": (sum(f.cyclic for f in fixed), "count"),
            "graph.cyclic_frac": (sum(f.cyclic for f in fixed) / len(fixed), "ratio"),
            "simulate.sample_ms": (_median_ms(dur["simulate.sample"]), "ms"),
        }
    )
    for layer, seconds in layer_self.items():
        metrics[f"share.{layer}"] = (seconds / roots, "ratio")
    return metrics


def measure(workload: str, state: dict, seconds: float, between) -> Outcome:
    """Untraced run: the end-to-end metrics, in raw wall-clock time.

    ``between`` is called before every unit of work, outside the unit's
    timing; run.py samples the host's speed and times set-ups there.
    """
    if workload == "grid":
        return measure_grid(state, seconds, between)
    return measure_learn(workload, state, seconds, between)


def measure_traced(workload: str, state: dict, seconds: float, tracer: Tracer) -> Outcome:
    """Traced run: the per-layer metrics, with the traced outputs checked against untraced ones."""
    if workload == "grid":
        return traced_grid(state, seconds, tracer)
    return traced_learn(workload, state, seconds, tracer)
