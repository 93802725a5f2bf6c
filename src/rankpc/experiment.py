"""Batch simulation harness comparing correlation methods across data regimes.

One replicate draws a random DAG and weights, samples a dataset under the
configured regime, then runs PC once per (method, alpha) on a correlation
matrix estimated a single time per method; the alphas share its tables
of partial correlations, one per level of skeleton search.  They run from
the largest alpha down: the densest fit builds each level's table over the
most edges, and the sparser fits inside it then read it.  Records are
sorted afterwards, so the order shows only in each record's
``runtime_ms``.  Output is a flat records table plus a per-cell summary at
the best alpha (lowest mean structural distance, ties resolved toward the
smaller alpha).
"""

from __future__ import annotations

import configparser
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import product
from numbers import Integral, Real
from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np

from .citest import RankCiDecider, TestConfig
from .correlation import METHODS, estimate_correlation_matrix
from .graph import _count, cpdag, shd
from .partial import PartialCorrelations
from .pc import run_pc
from .simulate import SemModel, derive_seed, random_dag, random_weights, sample_sem

__all__ = [
    "REGIMES",
    "DEFAULT_ALPHA_LOG10",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentResult",
    "SummaryRow",
    "load_config",
    "parse_config_text",
    "run_experiment",
    "summarize",
    "records_to_csv",
    "records_from_csv",
    "summary_to_csv",
    "write_plot_data",
]

# regime -> (noise, transform) of the model it samples from
_REGIME_MODEL = {
    "normal": ("standard_normal", "identity"),
    "f11": ("standard_normal", "f11"),
    "contaminated": ("cauchy_mixture", "identity"),
}
REGIMES = tuple(_REGIME_MODEL)

DEFAULT_ALPHA_LOG10 = (-7.0, -6.0, -5.0, -4.25, -3.5, -2.75, -2.0, -1.5, -1.0, -0.75)


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


# list field of ExperimentConfig -> (what one entry is called, what several are)
_LIST_FIELDS = {
    "p_values": ("p value", "p values"),
    "n_values": ("n value", "n values"),
    "regimes": ("regime", "regimes"),
    "methods": ("method", "methods"),
    "alpha_log10": ("alpha", "alpha values"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    p_values: tuple[int, ...]
    n_values: tuple[int, ...]
    degree: float
    regimes: tuple[str, ...] = ("normal",)
    methods: tuple[str, ...] = ("pearson", "spearman")
    alpha_log10: tuple[float, ...] = DEFAULT_ALPHA_LOG10
    replicates: int = 20
    seed: int = 0
    max_cond: int | None = None

    def __post_init__(self):
        for field, (one, several) in _LIST_FIELDS.items():
            values = getattr(self, field)
            if not isinstance(values, (tuple, list)):
                raise ConfigError(f"{field} must be a tuple or list, got {type(values).__name__}")
            if not values:
                raise ConfigError(f"need at least one {one}")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {several}")
        integers = {"p_values": self.p_values, "n_values": self.n_values, "replicates": [self.replicates],
                    "seed": [self.seed], "max_cond": [] if self.max_cond is None else [self.max_cond]}
        for field, values in integers.items():
            for v in values:
                if isinstance(v, bool) or not isinstance(v, Integral):  # a bool acts as 0 or 1, a float is cut
                    raise ConfigError(f"{field}: {v!r} is not an integer")
        if isinstance(self.degree, bool) or not isinstance(self.degree, Real):  # True would seed apart from 1.0
            raise ConfigError(f"degree: {self.degree!r} is not a number")
        if not self.degree > 0:
            raise ConfigError(f"expected degree must be positive, got {self.degree}")
        for p in self.p_values:
            if p < 2:
                raise ConfigError(f"p must be at least 2, got {p}")
            if self.degree > p - 1:
                raise ConfigError(
                    f"expected degree {self.degree} impossible at p={p} (max {p - 1})"
                )
        for n in self.n_values:
            if n < 4:
                raise ConfigError(f"n must be at least 4 for the z test, got {n}")
        for kind, names, known in (("regime", self.regimes, REGIMES), ("method", self.methods, METHODS)):
            for name in names:
                if name not in known:
                    raise ConfigError(f"unknown {kind} {name!r}; expected one of {known}")
        for v in self.alpha_log10:
            if not v < 0.0:
                raise ConfigError(f"log10 alpha must be negative, got {v}")
            try:  # the alpha each fit runs at, checked by the rule of the test it configures
                TestConfig("fisher_z", alpha=10.0**v)
            except ValueError as err:
                raise ConfigError(f"log10 alpha {v}: {err}") from None
        if self.replicates < 1:
            raise ConfigError(f"replicates must be at least 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.max_cond is not None and self.max_cond < 0:
            raise ConfigError(f"max_cond must be nonnegative, got {self.max_cond}")


def _list(cast):
    """Parser of a whitespace-separated list, each entry read by ``cast``."""
    return lambda text: tuple(map(cast, text.split()))


_REQUIRED_KEYS = ("p", "n", "degree")
# config key -> (ExperimentConfig field, parser, what the value must be)
_KEYS = {
    "p": ("p_values", _list(int), "a list of integers"),
    "n": ("n_values", _list(int), "a list of integers"),
    "degree": ("degree", float, "a number"),
    "regimes": ("regimes", _list(str), "a list of names"),
    "methods": ("methods", _list(str), "a list of names"),
    "alpha_log10": ("alpha_log10", _list(float), "a list of numbers"),
    "replicates": ("replicates", int, "an integer"),
    "seed": ("seed", int, "an integer"),
    "max_cond": ("max_cond", int, "an integer"),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the key-value config format; unknown sections or keys are errors.

    One '[experiment]' section; list values are whitespace-separated.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from None
    sections = parser.sections()
    if sections != ["experiment"]:
        raise ConfigError(f"expected exactly one [experiment] section, got {sections}")
    section = parser["experiment"]
    unknown = sorted(set(section) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in section]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    kwargs: dict = {}
    for key, (field, parse, kind) in _KEYS.items():
        if key in section:
            try:
                kwargs[field] = parse(section[key])
            except ValueError:
                raise ConfigError(f"key {key!r} must be {kind}") from None
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


@dataclass(frozen=True)
class ExperimentRecord:
    p: int
    n: int
    d: float
    regime: str
    method: str
    alpha: float
    replicate: int
    seed: int
    shd: int
    tests_run: int
    max_cond_used: int
    runtime_ms: float


@dataclass
class ExperimentResult:
    records: list[ExperimentRecord]
    failures: list[str]


def _replicate_cells(config: ExperimentConfig):
    """Every (regime, p, n, replicate) of the grid, the regime varying slowest."""
    return product(config.regimes, config.p_values, config.n_values, range(config.replicates))


def _replicate_model(config: ExperimentConfig, regime: str, p: int, n: int, rep: int):
    """Deterministic model and dataset for one replicate coordinate."""
    seed = derive_seed(config.seed, p, n, config.degree, regime, rep)
    rng = np.random.default_rng(seed)
    s = config.degree / (p - 1)
    dag = random_dag(p, s, rng)
    weights = random_weights(dag, rng)
    noise, transform = _REGIME_MODEL[regime]
    model = SemModel(dag, weights, noise=noise, transform=transform)
    data = sample_sem(model, n, rng)
    return seed, model, data


def _run_replicate(args) -> tuple[list[ExperimentRecord], list[str]]:
    config, regime, p, n, rep = args
    records: list[ExperimentRecord] = []
    failures: list[str] = []
    where = f"regime={regime} p={p} n={n} replicate={rep}"
    try:
        seed, model, data = _replicate_model(config, regime, p, n, rep)
        truth = cpdag(model.dag)
    except Exception as err:
        failures.append(f"{where}: data generation failed: {err}")
        return records, failures
    for method in config.methods:
        try:
            partials = PartialCorrelations(estimate_correlation_matrix(data, method))
        except Exception as err:
            failures.append(f"{where} method={method}: estimation failed: {err}")
            continue
        for log_alpha in sorted(config.alpha_log10, reverse=True):
            alpha = 10.0**log_alpha
            try:
                decider = RankCiDecider(
                    partials, n, TestConfig("fisher_z", method=method, alpha=alpha)
                )
                t0 = perf_counter()
                result = run_pc(decider, p, max_cond=config.max_cond)
                elapsed_ms = (perf_counter() - t0) * 1000.0
                records.append(
                    ExperimentRecord(
                        p=p,
                        n=n,
                        d=config.degree,
                        regime=regime,
                        method=method,
                        alpha=alpha,
                        replicate=rep,
                        seed=seed,
                        shd=shd(result.pdag, truth),
                        tests_run=result.tests_run,
                        max_cond_used=result.max_cond_used,
                        runtime_ms=elapsed_ms,
                    )
                )
            except Exception as err:
                failures.append(f"{where} method={method} alpha={alpha:.3g}: {err}")
    return records, failures


def _record_sort_key(r: ExperimentRecord):
    return (r.p, r.n, r.regime, r.method, r.alpha, r.replicate)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every (regime, p, n, replicate, method, alpha) combination.

    A failing run is reported in ``failures`` and skipped, never fatal.
    Records come back sorted, so output does not depend on scheduling.
    """
    threads = _count(threads, "threads", 1)
    tasks = [(config, *cell) for cell in _replicate_cells(config)]
    records: list[ExperimentRecord] = []
    failures: list[str] = []
    if threads > 1:  # imported only for a pool: loading it costs every process about 2 MB and 17 ms
        from concurrent.futures import ProcessPoolExecutor
    with nullcontext() if threads == 1 else ProcessPoolExecutor(max_workers=threads) as pool:
        outcomes = map(_run_replicate, tasks) if pool is None else pool.map(_run_replicate, tasks, chunksize=1)
        for recs, fails in outcomes:
            records.extend(recs)
            failures.extend(fails)
    records.sort(key=_record_sort_key)
    failures.sort()
    return ExperimentResult(records, failures)


# dataclass field type -> (parser of a CSV cell, format field that writes it);
# floats get 17 significant digits, so they read back exactly
_CSV_TYPES = {"int": (int, "{}"), "float": (float, "{:.17g}"), "str": (str, "{}")}


def _csv_header(cls) -> str:
    return ",".join(f.name for f in fields(cls))


def _write_csv(path, rows, cls) -> None:
    """One column per field of the dataclass ``cls``, in field order.

    ``runtime_ms`` keeps microseconds; every other field is written as its
    type's entry in ``_CSV_TYPES`` says.
    """
    cols = fields(cls)
    cells = ["{:.3f}" if f.name == "runtime_ms" else _CSV_TYPES[f.type][1] for f in cols]
    line = ",".join(cells) + "\n"
    values = attrgetter(*(f.name for f in cols))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_header(cls) + "\n")
        fh.writelines(line.format(*values(r)) for r in rows)


def records_to_csv(records, path) -> None:
    _write_csv(path, sorted(records, key=_record_sort_key), ExperimentRecord)


def records_from_csv(path) -> list[ExperimentRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _csv_header(ExperimentRecord):
        raise ValueError(f"unexpected records header in {path}")
    parsers = [_CSV_TYPES[f.type][0] for f in fields(ExperimentRecord)]
    out = []
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(parsers):
            raise ValueError(f"malformed records line: {ln!r}")
        out.append(ExperimentRecord(*(parse(x) for parse, x in zip(parsers, parts))))
    return out


@dataclass(frozen=True)
class SummaryRow:
    p: int
    n: int
    d: float
    regime: str
    method: str
    best_alpha: float
    mean_shd: float
    replicates: int


def summarize(records) -> list[SummaryRow]:
    """Mean structural distance at the best alpha for each experimental cell.

    Best alpha minimizes the mean over replicates; exact ties go to the
    smaller alpha.
    """
    cells: dict[tuple, dict[float, list[int]]] = {}
    for r in records:
        key = (r.p, r.n, r.d, r.regime, r.method)
        cells.setdefault(key, {}).setdefault(r.alpha, []).append(r.shd)
    rows = []
    for key, by_alpha in sorted(cells.items()):
        scored = sorted(
            (sum(shds) / len(shds), alpha, len(shds)) for alpha, shds in by_alpha.items()
        )
        mean_shd, best_alpha, count = scored[0]
        rows.append(SummaryRow(*key, best_alpha, mean_shd, count))
    return rows


def summary_to_csv(rows, path) -> None:
    _write_csv(path, rows, SummaryRow)


def write_plot_data(records, out_dir) -> list[Path]:
    """One whitespace-delimited file per (regime, degree, p).

    Rows are 'n method mean-shd-at-best-alpha', sorted by (method, n),
    under a comment header that plotting tools skip.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = summarize(records)
    groups: dict[tuple, list[SummaryRow]] = {}
    for row in rows:
        groups.setdefault((row.regime, row.d, row.p), []).append(row)
    paths = []
    for (regime, d, p), cell_rows in sorted(groups.items()):
        path = out / f"plot_{regime}_d{format(d, '.17g')}_p{p}.dat"
        cell_rows.sort(key=lambda r: (r.method, r.n))
        with open(path, "w", newline="") as fh:
            fh.write("# n method mean_shd\n")
            for r in cell_rows:
                fh.write(f"{r.n} {r.method} {format(r.mean_shd, '.17g')}\n")
        paths.append(path)
    return paths
