import dataclasses
import hashlib

import pytest

import rankpc.cli as cli
import rankpc.experiment as experiment
from rankpc.cli import (
    cmd_experiment,
    cmd_oracle_check,
    cmd_simulate,
    main,
)
from rankpc.correlation import Dataset
from rankpc.experiment import REGIMES, ExperimentConfig, records_from_csv, records_to_csv, write_plot_data
from rankpc.graph import Pdag, degree, pdag_from_text
from rankpc.simulate import sem_from_text


SIM_TEXT = """
[experiment]
p = 10
n = 100
degree = 3
regimes = normal
replicates = 2
"""

EXP_TEXT = """
[experiment]
p = 5
n = 60
degree = 2
regimes = normal
methods = spearman
alpha_log10 = -2 -1
replicates = 2
seed = 7
"""


def test_oracle_check_exact_on_random_dags():
    report = cmd_oracle_check(6, 200, 42)
    assert report.trials == 200
    assert report.exact == 200
    assert report.within_degree
    assert report.failures == []
    assert report.message() == "200/200 exact, max |S| <= degree in all trials"


def test_oracle_check_degenerate_inputs():
    empty = cmd_oracle_check(6, 0, 0)
    assert (empty.trials, empty.exact, empty.failures) == (0, 0, [])
    single = cmd_oracle_check(1, 20, 3)
    assert single.exact == 20


def test_oracle_check_argument_validation():
    with pytest.raises(ValueError):
        cmd_oracle_check(0, 10, 0)
    with pytest.raises(ValueError):
        cmd_oracle_check(9, 10, 0)
    with pytest.raises(ValueError):
        cmd_oracle_check(6, -1, 0)


def test_main_oracle_check(capsys):
    assert main(["oracle-check", "--p-max", "4", "--trials", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "20/20 exact" in out


def test_cmd_simulate_file_contract(tmp_path):
    config = ExperimentConfig(p_values=(10,), n_values=(100,), degree=3.0, replicates=2)
    written = cmd_simulate(config, tmp_path)
    assert len(written) == 5  # 2 datasets + 2 models + manifest
    names = sorted(path.name for path in written)
    assert names == [
        "data_normal_p10_n100_r0.csv",
        "data_normal_p10_n100_r1.csv",
        "manifest.txt",
        "model_normal_p10_n100_r0.txt",
        "model_normal_p10_n100_r1.txt",
    ]
    data = Dataset.from_csv(tmp_path / "data_normal_p10_n100_r0.csv")
    assert data.values.shape == (100, 10)
    model = sem_from_text((tmp_path / "model_normal_p10_n100_r0.txt").read_text())
    assert model.dag.p == 10


def test_cmd_simulate_manifest_contents(tmp_path):
    config = ExperimentConfig(p_values=(4,), n_values=(50,), degree=2.0, replicates=1, seed=5)
    cmd_simulate(config, tmp_path)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert lines[0] == "[config]"
    assert "seed=5" in lines
    assert "[replicate normal_p4_n50_r0]" in lines
    fields = {}
    for ln in lines[lines.index("[replicate normal_p4_n50_r0]") + 1 :]:
        key, _, value = ln.partition("=")
        fields[key] = value
    assert fields["dataset"] == "data_normal_p4_n50_r0.csv"
    assert fields["model"] == "model_normal_p4_n50_r0.txt"
    assert fields["noise"] == "standard_normal"
    assert fields["transform"] == "identity"
    assert int(fields["seed"]) >= 0
    truth = pdag_from_text(fields["cpdag"].replace(";", "\n") + "\n")
    assert truth.p == 4


def test_cmd_simulate_reruns_are_byte_identical(tmp_path):
    config = ExperimentConfig(p_values=(6,), n_values=(40,), degree=2.0, replicates=2, seed=3)
    first = tmp_path / "a"
    second = tmp_path / "b"
    paths_a = cmd_simulate(config, first)
    paths_b = cmd_simulate(config, second)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


SIMULATE_DIGESTS = {  # sha256 of every file, pinned so any change to the writers' bytes shows
    "data_normal_p5_n20_r0.csv": "ca1c097dbeddced15ab4e235d3d338f7b214548287e52e925e340c9760315fa0",
    "model_normal_p5_n20_r0.txt": "d32a68e2f14d6a203e45251fc15ae2a8cc10cd4bba49f6f7e2761da760eb9308",
    "data_f11_p5_n20_r0.csv": "062a7465549169cf30a75c854be4493e5880ca9756bf3df25dee767b55362b34",
    "model_f11_p5_n20_r0.txt": "3bf590f38721cf955821fd726468570c94354ccda93404acbdc5b40415d0b02f",
    "data_contaminated_p5_n20_r0.csv": "56afce8fc3a2c197ee31e5a00cb5c4242c6c494e5286455f4e0be4b46c3819d5",
    "model_contaminated_p5_n20_r0.txt": "171b40c9ee4fde7507af62ccf11449a1a615c1e3865cda52d60b83d8828de3c3",
    "manifest.txt": "1af4da9b6fe8ddbd25b042e6dca5d7d19f646d04df4a8f11a46194741c07b160",
}


def test_cmd_simulate_writes_pinned_bytes(tmp_path):
    config = ExperimentConfig(p_values=(5,), n_values=(20,), degree=2.0, regimes=REGIMES, replicates=1, seed=3)
    written = cmd_simulate(config, tmp_path)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written} == SIMULATE_DIGESTS


def test_main_simulate_with_seed_override(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_TEXT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 5
    baseline = tmp_path / "base"
    assert main(["simulate", "--config", str(cfg), "--out", str(baseline)]) == 0
    original = (baseline / "data_normal_p10_n100_r0.csv").read_bytes()
    overridden = (out / "data_normal_p10_n100_r0.csv").read_bytes()
    assert original != overridden  # the seed flag replaces the config seed


def test_main_experiment_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_TEXT)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 4 records" in stdout
    assert "mean shd" in stdout
    records = records_from_csv(out / "records.csv")
    assert len(records) == 4  # 1 cell x 2 alphas x 2 replicates
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "p,n,d,regime,method,best_alpha,mean_shd,replicates"
    assert len(summary_lines) == 2
    assert not (out / "failures.txt").exists()


def test_main_experiment_max_cond_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_TEXT)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--max-cond", "0"]) == 0
    records = records_from_csv(out / "records.csv")
    assert all(r.max_cond_used == 0 for r in records)


def test_cmd_experiment_reports_no_failures(tmp_path):
    config = ExperimentConfig(
        p_values=(4,),
        n_values=(40,),
        degree=1.5,
        methods=("spearman",),
        alpha_log10=(-1.0,),
        replicates=1,
    )
    info = cmd_experiment(config, tmp_path)
    assert info["failures"] is None
    assert info["n_records"] == 1
    assert len(info["rows"]) == 1


def test_main_plotdata(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_TEXT)
    run_dir = tmp_path / "run"
    main(["experiment", "--config", str(cfg), "--out", str(run_dir)])
    capsys.readouterr()
    plot_dir = tmp_path / "plots"
    records = run_dir / "records.csv"
    assert main(["plotdata", "--records", str(records), "--out", str(plot_dir)]) == 0
    assert "wrote 1 plot files" in capsys.readouterr().out
    paths = write_plot_data(records_from_csv(records), tmp_path / "plots2")
    assert [p.name for p in paths] == ["plot_normal_d2_p5.dat"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "# n method mean_shd"
    assert len(lines) == 2  # one method at one sample size


def test_main_rejects_bad_usage(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["oracle-check", "--no-such-flag"])
    good = tmp_path / "exp.ini"
    good.write_text(EXP_TEXT)
    unknown = tmp_path / "unknown.ini"
    unknown.write_text(EXP_TEXT + "colour = red\n")
    out = str(tmp_path / "out")
    bad_line = tmp_path / "bad_line.csv"
    records_to_csv([], bad_line)  # the header alone
    bad_line.write_text(bad_line.read_text() + "1,2,3\n")
    cases = [
        (
            ["experiment", "--config", str(good), "--out", out, "--threads", "0"],
            "argument --threads: must be at least 1, got 0",
        ),
        (["oracle-check", "--p-max", "9"], "argument --p-max: invalid choice: 9"),
        (["oracle-check", "--trials", "-1"], "argument --trials: must be at least 0, got -1"),
        (["oracle-check", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["plotdata", "--records", str(tmp_path / "missing.csv"), "--out", out], "missing.csv"),
        (["plotdata", "--records", str(good), "--out", out], "unexpected records header"),
        (["plotdata", "--records", str(bad_line), "--out", out], "malformed records line"),
        (["experiment", "--config", str(unknown), "--out", out], "unknown config keys: colour"),
        (["simulate", "--config", str(tmp_path / "missing.ini"), "--out", out], "missing.ini"),
        (
            ["experiment", "--config", str(good), "--out", out, "--max-cond", "-1"],
            "max_cond must be a nonnegative integer, got -1",
        ),
    ]
    capsys.readouterr()
    for argv, message in cases:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_experiment_writes_failures_and_exits_zero(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_TEXT)
    search, calls = experiment.run_pc, []

    def first_search_fails(decider, p, max_cond=None):
        calls.append(p)
        if len(calls) == 1:
            raise RuntimeError("synthetic search failure")
        return search(decider, p, max_cond=max_cond)

    monkeypatch.setattr(experiment, "run_pc", first_search_fails)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    failure = "regime=normal p=5 n=60 replicate=0 method=spearman alpha=0.1: synthetic search failure"
    assert (out / "failures.txt").read_text() == failure + "\n"
    assert stdout[0] == f"wrote 3 records to {out / 'records.csv'}"
    assert stdout[-1] == f"1 failed runs listed in {out / 'failures.txt'}"
    records = records_from_csv(out / "records.csv")
    assert [(r.replicate, r.alpha) for r in records] == [(0, 0.01), (1, 0.01), (1, 0.1)]  # the other fits


def test_oracle_check_reports_mismatch_and_degree_failures(monkeypatch, capsys):
    search = cli.run_pc

    def empty_and_too_deep(decider, p):  # no edges, and conditioning one past the true degree
        result = search(decider, p)
        return dataclasses.replace(result, pdag=Pdag(p), max_cond_used=degree(decider.dag) + 1)

    monkeypatch.setattr(cli, "run_pc", empty_and_too_deep)
    report = cmd_oracle_check(4, 3, 3)
    assert (report.trials, report.exact, report.within_degree) == (3, 2, False)  # trials 1 and 2 have no edges
    assert report.failures == [
        "trial 0: mismatch at p=4, s=0.2",
        "trial 0: conditioned on 2 > degree 1",
        "trial 1: conditioned on 1 > degree 0",
        "trial 2: conditioned on 1 > degree 0",
    ]
    exceeded = "conditioning exceeded the true degree in some trial"
    assert report.message() == "; ".join(["2/3 exact", exceeded] + report.failures)
    assert main(["oracle-check", "--p-max", "4", "--trials", "3", "--seed", "3"]) == 1
    assert capsys.readouterr().out == report.message() + "\n"
