"""End-to-end acceptance checks, one per release criterion.

Each test prints a single 'criterion N (...): PASS/FAIL' line so the suite's
verdict can be read off the run log directly.
"""

import hashlib
import math
import time

import numpy as np
from scipy.special import ndtri

from rankpc.citest import OracleDecider, gamma_threshold
from rankpc.correlation import (
    estimate_correlation_matrix,
    estimation_tail_bound,
    kendall_tau,
    sine_transform_kendall,
    sine_transform_spearman,
    spearman_rho,
)
from rankpc.experiment import ExperimentConfig, records_to_csv, run_experiment, summarize
from rankpc.graph import cpdag, degree
from rankpc.partial import (
    BoundInputs,
    inverse_error_bound_holds,
    normalized_offdiag_bound_holds,
    partial_corr_inverse,
    rank_pc_error_bound,
)
from rankpc.pc import run_pc
from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem

from oracles import (
    bivariate_normal_sample,
    cpdag_by_enumeration,
    fisher_z_decide,
    naive_kendall,
    partial_corr_recursive,
    random_correlation,
    spearman_ratio,
)


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}): {status}{suffix}"


def test_criterion_1_oracle_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    cond_violations = 0
    for _ in range(200):
        p = int(rng.integers(1, 9))
        s = float(rng.choice((0.2, 0.4, 0.6)))
        dag = random_dag(p, s, rng)
        truth = cpdag(dag)
        if p <= 7:
            assert truth == cpdag_by_enumeration(dag)
        result = run_pc(OracleDecider(dag), p)
        if result.pdag != truth:
            mismatches += 1
        if result.max_cond_used > degree(dag):
            cond_violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "oracle exactness",
        mismatches == 0 and cond_violations == 0 and elapsed < 60.0,
        f"200 trials, {mismatches} mismatches, {cond_violations} oversized "
        f"conditioning sets, {elapsed:.1f}s",
    )


def test_criterion_2_estimator_equivalences():
    rng = np.random.default_rng(77)
    kendall_exact = 0
    spearman_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 501))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if kendall_tau(x, y) == naive_kendall(x, y):
            kendall_exact += 1
        spearman_worst = max(spearman_worst, abs(spearman_rho(x, y) - spearman_ratio(x, y)))
    partial_worst = 0.0
    for _ in range(250):
        p = int(rng.integers(3, 9))
        sigma = random_correlation(rng, p)
        for _ in range(4):
            u, v, *s = rng.choice(p, size=2 + int(rng.integers(0, min(5, p - 1))), replace=False)
            gap = abs(
                partial_corr_recursive(sigma, int(u), int(v), [int(i) for i in s])
                - partial_corr_inverse(sigma, int(u), int(v), [int(i) for i in s])
            )
            partial_worst = max(partial_worst, gap)
    _verdict(
        2,
        "estimator equivalences",
        kendall_exact == 1000 and spearman_worst <= 1e-12 and partial_worst <= 1e-10,
        f"kendall exact {kendall_exact}/1000, spearman gap {spearman_worst:.2e}, "
        f"partial-correlation gap {partial_worst:.2e}",
    )


def test_criterion_3_tail_bounds():
    rng = np.random.default_rng(555)
    start = time.perf_counter()
    replicates = 2000
    worst_margin = math.inf
    violations = []
    for method, estimate in (
        ("spearman", lambda x, y: sine_transform_spearman(spearman_rho(x, y))),
        ("kendall", lambda x, y: sine_transform_kendall(kendall_tau(x, y))),
    ):
        for rho in (0.0, 0.5):
            for n in (50, 200):
                errors = np.empty(replicates)
                for i in range(replicates):
                    x, y = bivariate_normal_sample(rng, rho, n)
                    errors[i] = abs(estimate(x, y) - rho)
                for eps in (0.1, 0.2):
                    freq = float(np.mean(errors > eps))
                    bound = estimation_tail_bound(method, n, eps)
                    worst_margin = min(worst_margin, bound - freq)
                    if freq > bound:
                        violations.append((method, rho, n, eps, freq, bound))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "estimation tail bounds",
        not violations and elapsed < 120.0,
        f"16 cells x {replicates} replicates, {len(violations)} violations, "
        f"smallest bound-frequency margin {worst_margin:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_matrix_perturbation_inequalities():
    rng = np.random.default_rng(4242)
    inverse_ok = 0
    for _ in range(1000):
        q = int(rng.integers(2, 7))
        sigma = random_correlation(rng, q)
        lam = float(np.linalg.eigvalsh(sigma)[0])
        eps = float(rng.uniform(0.2, 0.9)) * lam / q
        err = rng.standard_normal((q, q))
        err = (err + err.T) / 2.0
        err *= 0.9 * eps / np.abs(err).max()
        inverse_ok += inverse_error_bound_holds(sigma, err, eps)
    diag_ok = 0
    for _ in range(1000):
        p = int(rng.integers(2, 9))
        sigma = random_correlation(rng, p)
        diag_ok += float(np.diagonal(np.linalg.inv(sigma)).min()) >= 1.0 - 1e-9
    offdiag_ok = 0
    for _ in range(1000):
        d0, d1 = rng.uniform(1.0, 2.0, size=2)
        t = rng.uniform(-0.9, 0.9)
        a = np.array([[d0, t * math.sqrt(d0 * d1)], [t * math.sqrt(d0 * d1), d1]])
        delta = float(rng.uniform(0.05, 0.95))
        pert = rng.uniform(-1.0, 1.0, size=(2, 2))
        pert = (pert + pert.T) / 2.0
        pert *= 0.9 * delta / np.abs(pert).max()
        offdiag_ok += normalized_offdiag_bound_holds(a, a + pert, delta)
    _verdict(
        4,
        "matrix perturbation inequalities",
        inverse_ok == 1000 and diag_ok == 1000 and offdiag_ok == 1000,
        f"inverse-error {inverse_ok}/1000, inverse-diagonal {diag_ok}/1000, "
        f"normalized off-diagonal {offdiag_ok}/1000",
    )


def test_criterion_5_test_equivalence():
    rng = np.random.default_rng(99)
    disagreements = 0
    for _ in range(10_000):
        s = int(rng.integers(0, 6))
        n = int(rng.integers(s + 5, s + 500))
        r = float(rng.uniform(-0.999, 0.999))
        alpha = float(rng.uniform(1e-6, 0.4999))
        z = 2.0 * float(ndtri(1.0 - alpha / 2.0))
        gamma = gamma_threshold(n, s, z)
        if fisher_z_decide(r, n, s, alpha) != (abs(r) <= gamma):
            disagreements += 1
    identity_worst = 0.0
    for c in (0.05, 0.1, 0.3, 0.5, 0.9):
        for n in (10, 50, 200, 1000):
            z_n = math.sqrt(n - 3) * math.log((1.0 + c / 3.0) / (1.0 - c / 3.0))
            identity_worst = max(identity_worst, abs(gamma_threshold(n, 0, z_n) - c / 3.0))
    _verdict(
        5,
        "z-test equals threshold test",
        disagreements == 0 and identity_worst <= 1e-12,
        f"0 disagreements target: got {disagreements}/10000; "
        f"cutoff identity gap {identity_worst:.2e}",
    )


# sha256 of the criterion-6 records.csv lines without runtime_ms, one "\n" after each
CRITERION_6_RECORDS = "8faf0e98e9da53d1f64d098fbd180a1a590c158bec69efd5ce1a3c357db89cba"


def test_criterion_6_comparative_study(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        p_values=(10,),
        n_values=(1000,),
        degree=3.0,
        regimes=("normal", "f11", "contaminated"),
        methods=("pearson", "spearman"),
        replicates=100,
        seed=0,
    )
    result = run_experiment(config)
    assert result.failures == []
    records_to_csv(result.records, tmp_path / "records.csv")
    cut = [ln.rsplit(",", 1)[0] for ln in (tmp_path / "records.csv").read_text().splitlines()]
    assert hashlib.sha256("".join(ln + "\n" for ln in cut).encode()).hexdigest() == CRITERION_6_RECORDS
    shd = {(row.regime, row.method): row.mean_shd for row in summarize(result.records)}
    elapsed = time.perf_counter() - start
    normal_gap = abs(shd[("normal", "spearman")] - shd[("normal", "pearson")])
    normal_ok = normal_gap <= 0.2 * max(
        shd[("normal", "spearman")], shd[("normal", "pearson")]
    )
    f11_ok = shd[("f11", "spearman")] <= shd[("f11", "pearson")] - 2.0
    contaminated_ok = shd[("contaminated", "spearman")] <= shd[("contaminated", "pearson")]
    detail = (
        f"normal {shd[('normal', 'pearson')]:.2f}/{shd[('normal', 'spearman')]:.2f}, "
        f"f11 {shd[('f11', 'pearson')]:.2f}/{shd[('f11', 'spearman')]:.2f}, "
        f"contaminated {shd[('contaminated', 'pearson')]:.2f}"
        f"/{shd[('contaminated', 'spearman')]:.2f} (pearson/spearman), {elapsed:.0f}s"
    )
    _verdict(
        6,
        "comparative study orderings",
        normal_ok and f11_ok and contaminated_ok and elapsed < 600.0,
        detail,
    )


def test_criterion_7_rank_invariance():
    rng = np.random.default_rng(31)
    dag = random_dag(10, 3.0 / 9.0, rng)
    weights = random_weights(dag, rng)
    plain = SemModel(dag, weights, "standard_normal", "identity")
    warped = SemModel(dag, weights, "standard_normal", "f11")
    data_plain = sample_sem(plain, 500, np.random.default_rng(8))
    data_warped = sample_sem(warped, 500, np.random.default_rng(8))
    identical = 0
    for method in ("spearman", "kendall"):
        a = estimate_correlation_matrix(data_plain, method)
        b = estimate_correlation_matrix(data_warped, method)
        identical += np.array_equal(a, b)
    _verdict(
        7,
        "rank invariance of the estimate",
        identical == 2,
        f"{identical}/2 methods bit-identical after a monotone marginal transform",
    )


def test_criterion_8_error_bound_shape():
    base = dict(a=2.0, b=0.1, p=10, n=500, q=4, c=0.3, lam=0.5)
    val = rank_pc_error_bound(BoundInputs(**base))
    monotone = (
        rank_pc_error_bound(BoundInputs(**dict(base, n=2000))) < val
        and rank_pc_error_bound(BoundInputs(**dict(base, c=0.6))) < val
        and rank_pc_error_bound(BoundInputs(**dict(base, lam=0.9))) < val
        and rank_pc_error_bound(BoundInputs(**dict(base, p=30))) > val
        and rank_pc_error_bound(BoundInputs(**dict(base, q=8))) > val
    )
    grid_ok = True
    for n in (100, 400, 1600):
        for c in (0.1, 0.4, 0.8):
            for lam in (0.2, 0.6, 1.0):
                for p in (5, 20):
                    for q in (2, 5, 9):
                        here = rank_pc_error_bound(BoundInputs(2.0, 0.5, p, n, q, c, lam))
                        grid_ok &= rank_pc_error_bound(BoundInputs(2.0, 0.5, p, 4 * n, q, c, lam)) <= here
                        grid_ok &= rank_pc_error_bound(BoundInputs(2.0, 0.5, p, n, q, min(1.0, 2 * c), lam)) <= here
                        grid_ok &= rank_pc_error_bound(BoundInputs(2.0, 0.5, p, n, q, c, min(1.0, lam + 0.1))) <= here
                        grid_ok &= rank_pc_error_bound(BoundInputs(2.0, 0.5, p + 3, n, q, c, lam)) >= here
                        grid_ok &= rank_pc_error_bound(BoundInputs(2.0, 0.5, p, n, q + 2, c, lam)) >= here
    limit_gap = 0.0
    for a, p in ((2.0, 10), (0.5, 3), (4.0, 25)):
        at_zero = rank_pc_error_bound(BoundInputs(a, 1.0, p, 100, 4, 0.0, 0.7))
        limit_gap = max(limit_gap, abs(at_zero - (a / 2.0) * p * p))
    _verdict(
        8,
        "error-bound shape",
        monotone and grid_ok and limit_gap <= 1e-12,
        f"monotone on grid: {grid_ok}, zero-signal limit gap {limit_gap:.2e}",
    )
