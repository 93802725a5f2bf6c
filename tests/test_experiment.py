import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankpc.experiment as experiment
from rankpc.experiment import (
    DEFAULT_ALPHA_LOG10,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    load_config,
    parse_config_text,
    records_from_csv,
    records_to_csv,
    run_experiment,
    summarize,
    summary_to_csv,
    write_plot_data,
    _replicate_model,
)
from rankpc.graph import cpdag

SRC = str(Path(experiment.__file__).resolve().parents[1])  # the directory the tests import rankpc from

MINI_TEXT = """
[experiment]
p = 6
n = 100 200
degree = 2
regimes = normal f11
methods = spearman
alpha_log10 = -2 -1
replicates = 3
seed = 9
"""


def mini_config(**overrides):
    base = dict(
        p_values=(6,),
        n_values=(100, 200),
        degree=2.0,
        regimes=("normal", "f11"),
        methods=("spearman",),
        alpha_log10=(-2.0, -1.0),
        replicates=3,
        seed=9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_default_alpha_grid():
    assert DEFAULT_ALPHA_LOG10 == (-7.0, -6.0, -5.0, -4.25, -3.5, -2.75, -2.0, -1.5, -1.0, -0.75)
    cfg = ExperimentConfig(p_values=(5,), n_values=(100,), degree=2.0)
    assert cfg.alpha_log10 == DEFAULT_ALPHA_LOG10
    assert cfg.regimes == ("normal",)
    assert cfg.methods == ("pearson", "spearman")
    assert cfg.replicates == 20
    assert cfg.max_cond is None


def test_config_validation_errors():
    good = dict(p_values=(6,), n_values=(100,), degree=2.0)
    ExperimentConfig(**good)
    ExperimentConfig(**dict(good, p_values=[6], methods=["kendall"]))  # a list is a list field too
    # one fault per config, with the exact message it raises
    bad_cases = [
        (dict(p_values=()), "need at least one p value"),
        (dict(p_values=(1,)), "p_values must be an integer of at least 2, got 1"),
        (dict(p_values=(6, 6)), "duplicate p values"),
        (dict(n_values=()), "need at least one n value"),
        (dict(n_values=(3,)), "n_values must be an integer of at least 4, got 3"),
        (dict(n_values=(100, 100)), "duplicate n values"),
        (dict(degree=0.0), "expected degree must be positive, got 0.0"),
        (dict(degree=math.nan), "expected degree must be positive, got nan"),
        (dict(degree=6.0), "expected degree 6.0 impossible at p=6 (max 5)"),  # d >= p
        (dict(degree=True), "degree: True is not a number"),  # else it seeds apart from 1.0 yet prints as 1
        (dict(degree="3"), "degree: '3' is not a number"),
        (dict(regimes=()), "need at least one regime"),
        (
            dict(regimes=("weird",)),
            "unknown regime 'weird'; expected one of ('normal', 'f11', 'contaminated')",
        ),
        (dict(regimes=("normal", "normal")), "duplicate regimes"),
        (
            dict(methods=("ols",)),
            "unknown method 'ols'; expected one of ('pearson', 'spearman', 'kendall')",
        ),
        (dict(methods=()), "need at least one method"),
        (dict(methods=("pearson", "pearson")), "duplicate methods"),
        (dict(alpha_log10=()), "need at least one alpha"),
        (dict(alpha_log10=(0.0,)), "log10 alpha must be negative, got 0.0"),
        (  # 1 - alpha/2 rounds to 1, so no fit has a finite cutoff
            dict(alpha_log10=(-16.0,)),
            "log10 alpha -16.0: fisher_z variant needs alpha above 2**-53 (about 1.1e-16), got 1e-16",
        ),
        (
            dict(alpha_log10=(-2.0, -math.inf)),
            "log10 alpha -inf: fisher_z variant needs alpha in (0, 1), got 0.0",
        ),
        (dict(alpha_log10=(-1.0, -1.0)), "duplicate alpha values"),
        (dict(replicates=0), "replicates must be a positive integer, got 0"),
        (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
        (dict(max_cond=-2), "max_cond must be a nonnegative integer, got -2"),
        (dict(p_values=6), "p_values must be a tuple or list, got int"),
        (dict(alpha_log10=-2.0), "alpha_log10 must be a tuple or list, got float"),
        (dict(regimes="f11"), "regimes must be a tuple or list, got str"),  # not read letter by letter
        (dict(methods="kendall"), "methods must be a tuple or list, got str"),
        (dict(p_values=(6.5,)), "p_values must be an integer of at least 2, got 6.5"),  # else every replicate fails to sample
        (dict(p_values=(6, True)), "p_values must be an integer of at least 2, got True"),
        (dict(n_values=(100.5,)), "n_values must be an integer of at least 4, got 100.5"),
        (dict(n_values=(100, 200.0)), "n_values must be an integer of at least 4, got 200.0"),
        (dict(replicates=True), "replicates must be a positive integer, got True"),  # else it runs one replicate
        (dict(replicates=2.0), "replicates must be a positive integer, got 2.0"),
        (dict(seed=1.5), "seed must be a nonnegative integer, got 1.5"),
        (dict(seed=False), "seed must be a nonnegative integer, got False"),
        (dict(max_cond=1.5), "max_cond must be a nonnegative integer, got 1.5"),  # else it acts as 1
        (dict(max_cond=True), "max_cond must be a nonnegative integer, got True"),
    ]
    for fault, message in bad_cases:
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**dict(good, **fault))
        assert str(exc.value) == message, fault
    ExperimentConfig(**dict(good, p_values=(np.int64(6),), replicates=np.int32(2), max_cond=0))  # any integral type
    ExperimentConfig(**dict(good, degree=np.float64(2.0)))  # any real type
    tiny = run_experiment(mini_config(replicates=1, alpha_log10=(-15.0,)))  # still a finite cutoff
    assert tiny.records and tiny.failures == []


def test_parse_config_round_trip():
    cfg = parse_config_text(MINI_TEXT)
    assert cfg == mini_config()


def test_parse_config_defaults_fill_in():
    cfg = parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\n")
    assert cfg.alpha_log10 == DEFAULT_ALPHA_LOG10
    assert cfg.methods == ("pearson", "spearman")
    assert cfg.seed == 0


def test_parse_config_rejects_unknown_and_missing():
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\ncolor = red\n")
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\np = 10\nn = 100\n")
    with pytest.raises(ConfigError):
        parse_config_text("[other]\np = 10\nn = 100\ndegree = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("p = 10\nn = 100\ndegree = 3\n")
    with pytest.raises(ConfigError, match="key 'p' must be a list of integers"):
        parse_config_text("[experiment]\np = ten\nn = 100\ndegree = 3\n")
    with pytest.raises(ConfigError, match="key 'seed' must be an integer"):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\nseed = x\n")
    with pytest.raises(ConfigError, match="key 'degree' must be a number"):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = d\n")
    with pytest.raises(ConfigError, match="key 'alpha_log10' must be a list of numbers"):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\nalpha_log10 = -1 q\n")
    with pytest.raises(ConfigError, match="key 'replicates' must be an integer"):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\nreplicates = 2 3\n")
    with pytest.raises(ConfigError, match="key 'max_cond' must be an integer"):
        parse_config_text("[experiment]\np = 10\nn = 100\ndegree = 3\nmax_cond = a\n")


def test_load_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINI_TEXT)
    assert load_config(path) == mini_config()


def test_run_experiment_record_grid_and_order():
    cfg = mini_config(replicates=2)
    result = run_experiment(cfg)
    assert len(result.records) == 2 * 2 * 1 * 2 * 2  # regimes x n x methods x alphas x reps
    assert result.failures == []
    keys = [(r.p, r.n, r.regime, r.method, r.alpha, r.replicate) for r in result.records]
    assert keys == sorted(keys)
    for r in result.records:
        assert r.d == 2.0
        assert r.alpha in (0.01, 0.1)
        assert r.shd >= 0
        assert r.tests_run > 0


def test_run_experiment_deterministic_except_runtime():
    cfg = mini_config(replicates=2, n_values=(100,))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    assert [strip(r) for r in a.records] == [strip(r) for r in b.records]


def test_run_experiment_threads_do_not_change_results():
    cfg = mini_config(replicates=2, n_values=(100,), regimes=("normal",))
    one = run_experiment(cfg, threads=1)
    two = run_experiment(cfg, threads=2)
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    assert [strip(r) for r in one.records] == [strip(r) for r in two.records]
    with pytest.raises(ValueError):
        run_experiment(cfg, threads=0)


def test_imports_leave_the_process_pool_unloaded():
    # only run_experiment with threads > 1 loads the pool, whose modules cost every process memory
    code = (
        "import sys, rankpc, rankpc.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_shared_partials_match_a_fresh_decider_per_alpha(monkeypatch):
    # the grid runs densest alpha first whatever order the config gives
    grids = [(-7.0, -3.5, -2.0, -1.0, -0.75), (-2.0, -0.75, -7.0, -1.0, -3.5)]
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    for alpha_log10 in grids:
        cfg = mini_config(
            replicates=2,
            n_values=(100,),
            methods=("pearson", "spearman", "kendall"),
            alpha_log10=alpha_log10,
        )
        shared = run_experiment(cfg)
        # a plain matrix makes every RankCiDecider build its own tables
        with monkeypatch.context() as m:
            m.setattr(experiment, "PartialCorrelations", np.asarray)
            fresh = run_experiment(cfg)
        assert [strip(r) for r in shared.records] == [strip(r) for r in fresh.records]
        assert shared.failures == fresh.failures == []


def test_run_experiment_shd_within_coarse_bound():
    cfg = mini_config(replicates=2)
    result = run_experiment(cfg)
    for r in result.records:
        _, model, _ = _replicate_model(cfg, r.regime, r.p, r.n, r.replicate)
        limit = r.p * (r.p - 1) // 2 + len(model.dag.edges)
        assert r.shd <= limit


def test_run_experiment_records_failures_not_fatal(monkeypatch):
    cfg = mini_config(replicates=1, n_values=(100,), regimes=("normal",))
    real = experiment.estimate_correlation_matrix

    def flaky(data, method):
        raise RuntimeError("synthetic estimation failure")

    monkeypatch.setattr(experiment, "estimate_correlation_matrix", flaky)
    result = run_experiment(cfg)
    monkeypatch.setattr(experiment, "estimate_correlation_matrix", real)
    assert result.records == []
    assert len(result.failures) == 1
    assert "regime=normal p=6 n=100 replicate=0" in result.failures[0]
    assert "synthetic estimation failure" in result.failures[0]


def test_replicate_seed_depends_on_every_coordinate():
    cfg = mini_config()
    base = _replicate_model(cfg, "normal", 6, 100, 0)[0]
    assert _replicate_model(cfg, "normal", 6, 100, 1)[0] != base
    assert _replicate_model(cfg, "f11", 6, 100, 0)[0] != base
    assert _replicate_model(cfg, "normal", 6, 200, 0)[0] != base


def test_records_csv_round_trip_exact(tmp_path):
    records = [
        ExperimentRecord(6, 100, 2.0, "normal", "spearman", 0.01, 0, 12345, 3, 40, 2, 1.5),
        ExperimentRecord(6, 100, 2.0, "normal", "spearman", 0.1, 0, 12345, 5, 44, 2, 2.25),
    ]
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    assert records_from_csv(path) == records
    lines = path.read_text().splitlines()
    assert lines[0] == "p,n,d,regime,method,alpha,replicate,seed,shd,tests_run,max_cond_used,runtime_ms"
    assert lines[1] == "6,100,2,normal,spearman,0.01,0,12345,3,40,2,1.500"


def test_records_csv_real_run_round_trip(tmp_path):
    cfg = mini_config(replicates=1, n_values=(100,), regimes=("normal",))
    result = run_experiment(cfg)
    path = tmp_path / "records.csv"
    records_to_csv(result.records, path)
    back = records_from_csv(path)
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    assert [strip(r) for r in back] == [strip(r) for r in result.records]
    for got, want in zip(back, result.records):
        assert got.runtime_ms == pytest.approx(want.runtime_ms, abs=5e-4)


def test_records_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,the,header\n")
    with pytest.raises(ValueError):
        records_from_csv(path)
    path.write_text(
        "p,n,d,regime,method,alpha,replicate,seed,shd,tests_run,max_cond_used,runtime_ms\n"
        "6,100,2\n"
    )
    with pytest.raises(ValueError):
        records_from_csv(path)


def _toy_record(alpha, shd, replicate=0, method="spearman", n=100):
    return ExperimentRecord(6, n, 2.0, "normal", method, alpha, replicate, 1, shd, 10, 1, 1.0)


def test_summarize_picks_best_alpha():
    records = [
        _toy_record(0.1, 4, replicate=0),
        _toy_record(0.1, 6, replicate=1),
        _toy_record(0.01, 2, replicate=0),
        _toy_record(0.01, 3, replicate=1),
    ]
    rows = summarize(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.best_alpha == 0.01
    assert row.mean_shd == 2.5
    assert row.replicates == 2


def test_summarize_breaks_ties_toward_smaller_alpha():
    records = [
        _toy_record(0.1, 3),
        _toy_record(0.01, 3),
        _toy_record(0.001, 4),
    ]
    rows = summarize(records)
    assert rows[0].best_alpha == 0.01
    assert rows[0].mean_shd == 3.0


def test_summary_csv_layout(tmp_path):
    rows = summarize([_toy_record(0.1, 3)])
    path = tmp_path / "summary.csv"
    summary_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,n,d,regime,method,best_alpha,mean_shd,replicates"
    assert lines[1] == "6,100,2,normal,spearman,0.10000000000000001,3,1"


def test_write_plot_data_contract(tmp_path):
    records = [
        _toy_record(0.1, 3, method="pearson", n=100),
        _toy_record(0.1, 4, method="pearson", n=200),
        _toy_record(0.1, 2, method="spearman", n=100),
        _toy_record(0.1, 1, method="spearman", n=200),
    ]
    paths = write_plot_data(records, tmp_path)
    assert len(paths) == 1
    assert paths[0].name == "plot_normal_d2_p6.dat"
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "# n method mean_shd"
    assert len(lines) == 5  # header + 2 methods x 2 n-values
    assert lines[1].split() == ["100", "pearson", "3"]
    assert lines[2].split() == ["200", "pearson", "4"]
    assert lines[3].split() == ["100", "spearman", "2"]
    assert lines[4].split() == ["200", "spearman", "1"]


def test_write_plot_data_empty_records(tmp_path):
    assert write_plot_data([], tmp_path) == []


def test_mean_shd_decreases_with_sample_size():
    cfg = ExperimentConfig(
        p_values=(10,),
        n_values=(100, 1000),
        degree=3.0,
        regimes=("normal",),
        replicates=50,
        seed=4,
    )
    rows = summarize(run_experiment(cfg).records)
    by_method = {}
    for row in rows:
        by_method.setdefault(row.method, {})[row.n] = row.mean_shd
    assert set(by_method) == {"pearson", "spearman"}
    for method, shds in by_method.items():
        assert shds[1000] < shds[100], (method, shds)


def test_run_experiment_records_data_and_per_alpha_failures(monkeypatch):
    cfg = mini_config(replicates=2, n_values=(100,), regimes=("normal",))
    clean = run_experiment(cfg).records
    sample, search, calls = experiment.sample_sem, experiment.run_pc, []

    def second_sample_fails(model, n, rng):
        calls.append("sample")
        if calls.count("sample") == 2:
            raise RuntimeError("synthetic sampling failure")
        return sample(model, n, rng)

    def first_search_fails(decider, p, max_cond=None):
        calls.append("search")
        if calls.count("search") == 1:
            raise RuntimeError("synthetic search failure")
        return search(decider, p, max_cond=max_cond)

    monkeypatch.setattr(experiment, "sample_sem", second_sample_fails)
    monkeypatch.setattr(experiment, "run_pc", first_search_fails)
    result = run_experiment(cfg, threads=1)
    assert result.failures == [  # alphas run from the largest down
        "regime=normal p=6 n=100 replicate=0 method=spearman alpha=0.1: synthetic search failure",
        "regime=normal p=6 n=100 replicate=1: data generation failed: synthetic sampling failure",
    ]
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    assert [strip(r) for r in result.records] == [strip(r) for r in clean if r.replicate == 0 and r.alpha < 0.1]


def test_records_csv_skips_blank_lines(tmp_path):
    records = [_toy_record(0.1, 4), _toy_record(0.01, 2, replicate=1)]
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, rows[0], "", rows[1], ""]) + "\n")
    assert records_from_csv(path) == sorted(records, key=experiment._record_sort_key)
