"""Command-line front end: oracle self-check, data simulation, experiments.

Subcommands:
  oracle-check   learn random DAGs from a d-separation oracle, compare
                 against the true equivalence class
  simulate       write datasets and generating models for a config
  experiment     run the full method/alpha grid, write records and summary
  plotdata       condense a records file into per-cell plot tables
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .citest import OracleDecider
from .experiment import (
    ConfigError,
    ExperimentConfig,
    _replicate_cells,
    _replicate_model,
    load_config,
    records_from_csv,
    records_to_csv,
    run_experiment,
    summarize,
    summary_to_csv,
    write_plot_data,
)
from .graph import _count, cpdag, degree, pdag_to_text
from .pc import run_pc
from .simulate import random_dag, sem_to_text

__all__ = [
    "OracleCheckReport",
    "cmd_oracle_check",
    "cmd_simulate",
    "cmd_experiment",
    "main",
]


@dataclass
class OracleCheckReport:
    trials: int
    exact: int
    within_degree: bool
    failures: list[str]

    def message(self) -> str:
        if self.exact == self.trials and self.within_degree:
            return f"{self.exact}/{self.trials} exact, max |S| <= degree in all trials"
        lines = [f"{self.exact}/{self.trials} exact"]
        if not self.within_degree:
            lines.append("conditioning exceeded the true degree in some trial")
        lines.extend(self.failures[:10])
        return "; ".join(lines)


def cmd_oracle_check(p_max: int = 6, trials: int = 200, seed: int = 0) -> OracleCheckReport:
    """Learn from a d-separation oracle on random DAGs; output must be exact.

    Node counts are drawn uniformly from 1..p_max and edge density from
    {0.2, 0.4, 0.6}.  Also verifies that no query conditioned on more
    variables than the true maximum degree.
    """
    if not 1 <= p_max <= 8:
        raise ValueError(f"p_max must be in 1..8, got {p_max}")
    trials = _count(trials, "trials", 0)
    rng = np.random.default_rng(seed)
    exact = 0
    within = True
    failures: list[str] = []
    for t in range(trials):
        p = int(rng.integers(1, p_max + 1))
        s = float(rng.choice((0.2, 0.4, 0.6)))
        dag = random_dag(p, s, rng)
        result = run_pc(OracleDecider(dag), p)
        if result.pdag == cpdag(dag):
            exact += 1
        else:
            failures.append(f"trial {t}: mismatch at p={p}, s={s}")
        if result.max_cond_used > degree(dag):
            within = False
            failures.append(
                f"trial {t}: conditioned on {result.max_cond_used} > degree {degree(dag)}"
            )
    return OracleCheckReport(trials, exact, within, failures)


def cmd_simulate(config: ExperimentConfig, out_dir) -> list[Path]:
    """Write every replicate's dataset and generating model, plus a manifest.

    For each (regime, p, n): one CSV dataset and one weighted edge-list model
    file per replicate.  The manifest records, per replicate, the seed, the
    file names, the noise/transform pair, and the true equivalence class as
    an inline edge list.  Identical configs write identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    manifest_lines = ["[config]"]
    manifest_lines.append(f"seed={config.seed}")
    manifest_lines.append(f"degree={format(config.degree, '.17g')}")
    manifest_lines.append(f"replicates={config.replicates}")
    for regime, p, n, rep in _replicate_cells(config):
        seed, model, data = _replicate_model(config, regime, p, n, rep)
        stem = f"{regime}_p{p}_n{n}_r{rep}"
        data_path = out / f"data_{stem}.csv"
        model_path = out / f"model_{stem}.txt"
        data.to_csv(data_path)
        model_path.write_text(sem_to_text(model))
        written.extend([data_path, model_path])
        truth = pdag_to_text(cpdag(model.dag)).rstrip("\n").replace("\n", ";")
        manifest_lines.append(f"[replicate {stem}]")
        manifest_lines.append(f"seed={seed}")
        manifest_lines.append(f"dataset={data_path.name}")
        manifest_lines.append(f"model={model_path.name}")
        manifest_lines.append(f"noise={model.noise}")
        manifest_lines.append(f"transform={model.transform}")
        manifest_lines.append(f"cpdag={truth}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(manifest_lines) + "\n")
    written.append(manifest)
    return written


def cmd_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run the grid, write records.csv and summary.csv, return paths and counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config, threads=threads)
    records_path = out / "records.csv"
    summary_path = out / "summary.csv"
    records_to_csv(result.records, records_path)
    rows = summarize(result.records)
    summary_to_csv(rows, summary_path)
    failures_path = None
    if result.failures:
        failures_path = out / "failures.txt"
        failures_path.write_text("\n".join(result.failures) + "\n")
    return {
        "records": records_path,
        "summary": summary_path,
        "failures": failures_path,
        "n_records": len(result.records),
        "n_failures": len(result.failures),
        "rows": rows,
    }


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when the text is not an integer
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    oc = sub.add_parser("oracle-check", help="exactness check against a d-separation oracle")
    oc.add_argument("--p-max", type=int, choices=range(1, 9), default=6,
                    help="largest node count to draw")
    oc.add_argument("--trials", type=_at_least(0), default=200)
    oc.add_argument("--seed", type=_at_least(0), default=0)

    sim = sub.add_parser("simulate", help="write datasets and models for a config")
    exp = sub.add_parser("experiment", help="run the full comparison grid")
    for cmd in (sim, exp):
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    exp.add_argument("--threads", type=_at_least(1), default=1, help="worker processes")
    exp.add_argument("--max-cond", type=int, default=None, help="cap conditioning-set size")

    plot = sub.add_parser("plotdata", help="condense records into plot tables")
    plot.add_argument("--records", required=True, help="records.csv from 'experiment'")
    plot.add_argument("--out", required=True, help="output directory")
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args) -> ExperimentConfig:
    """The --config file with --seed and --max-cond applied; any error exits via parser.error."""
    overrides = {"seed": args.seed, "max_cond": getattr(args, "max_cond", None)}
    try:
        config = load_config(args.config)
        return replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, UnicodeError, ConfigError) as err:
        parser.error(str(err))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle-check":
        report = cmd_oracle_check(p_max=args.p_max, trials=args.trials, seed=args.seed)
        print(report.message())
        return 0 if report.exact == report.trials and report.within_degree else 1
    if args.command == "simulate":
        written = cmd_simulate(_config_from_args(parser, args), args.out)
        print(f"wrote {len(written)} files to {args.out}")
        return 0
    if args.command == "experiment":
        info = cmd_experiment(_config_from_args(parser, args), args.out, threads=args.threads)
        print(f"wrote {info['n_records']} records to {info['records']}")
        for row in info["rows"]:
            print(
                f"p={row.p} n={row.n} d={format(row.d, 'g')} {row.regime} {row.method}: "
                f"mean shd {row.mean_shd:.3f} at alpha {row.best_alpha:.3g} "
                f"({row.replicates} replicates)"
            )
        if info["n_failures"]:
            print(f"{info['n_failures']} failed runs listed in {info['failures']}")
        return 0
    if args.command == "plotdata":
        try:
            records = records_from_csv(args.records)
        except (OSError, UnicodeError, ValueError) as err:
            parser.error(str(err))
        paths = write_plot_data(records, args.out)
        print(f"wrote {len(paths)} plot files to {args.out}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
