"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:

    python3 perfbench/selftest.py

run.py also runs them in every run and counts a failure as a failed check.
"""

from __future__ import annotations

import sys


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


def check_tail_percentile() -> None:
    from tracing import tail_percentile

    for n, index, pct in ((11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)):
        xs = [float(i) for i in range(n)][::-1]  # unsorted on purpose
        value, got_pct, count = tail_percentile(xs)
        expect((value, count) == (float(index), n), (n, value, count))
        expect(abs(got_pct - pct) < 1e-12, (n, got_pct))
        expect(sum(x > value for x in xs) == 10, n)
    expect(tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3), "few samples give the maximum")


def check_self_times() -> None:
    from tracing import self_times

    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 4] overlap; 3: [6, 7];
    # 4: [9, 12] sticks out of the root; 5: [1.5, 2.5] is a child of 1
    starts = [0.0, 1.0, 2.0, 6.0, 9.0, 1.5]
    ends = [10.0, 3.0, 4.0, 7.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 0, 1]
    got = self_times(starts, ends, parents)
    want = [10.0 - 3.0 - 1.0 - 1.0, 1.0, 2.0, 1.0, 3.0, 1.0]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got)


def check_traced_decider() -> None:
    import numpy as np

    from rankpc.citest import RankCiDecider, TestConfig
    from rankpc.correlation import estimate_correlation_matrix
    from rankpc.pc import run_pc
    from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem
    from tracing import QueryStats, TracedDecider, Tracer

    rng = np.random.default_rng(20130101)
    dag = random_dag(8, 0.4, rng)
    data = sample_sem(SemModel(dag, random_weights(dag, rng)), 300, rng)
    sigma = estimate_correlation_matrix(data, "spearman")
    # 0 and 1 both track 2 closely but are anti-correlated: the (0, 1, 2) block is not PD
    bad = np.array([[1.0, -0.9, 0.9], [-0.9, 1.0, 0.9], [0.9, 0.9, 1.0]])
    for mat, n, alpha in ((sigma, 300, 0.05), (sigma, 300, 1e-6), (bad, 100, 0.05)):
        config = TestConfig("fisher_z", method="spearman", alpha=alpha)
        plain = run_pc(RankCiDecider(mat, n, config), mat.shape[0])
        tracer, stats = Tracer(), QueryStats()
        traced = run_pc(TracedDecider(RankCiDecider(mat, n, config), tracer, stats, set()), mat.shape[0])
        same = (traced.pdag, traced.sepsets, traced.tests_run, traced.max_cond_used, traced.warnings) == (
            plain.pdag, plain.sepsets, plain.tests_run, plain.max_cond_used, plain.warnings
        )
        expect(same, f"traced run differs at alpha={alpha}")
        expect(stats.queries == plain.tests_run == len(tracer), (stats.queries, plain.tests_run, len(tracer)))
        nonpd = sum(w.startswith("dependent by default") for w in plain.warnings)
        expect(stats.nonpd == nonpd, (stats.nonpd, nonpd))
        expect(0 < stats.distinct <= stats.queries, (stats.distinct, stats.queries))
    expect(nonpd > 0, "the non-PD matrix gave no non-PD query")


CHECKS = (check_tail_percentile, check_self_times, check_traced_decider)


def run_all() -> list[str]:
    """Run every self-test; returns one line per failure."""
    failures = []
    for check in CHECKS:
        try:
            check()
        except AssertionError as err:
            failures.append(f"{check.__name__}: {err!r}")
    return failures


if __name__ == "__main__":
    import run

    run.import_program()
    problems = run_all()
    for line in problems:
        print(line)
    print(f"{len(CHECKS) - len(problems)}/{len(CHECKS)} self-tests passed")
    sys.exit(1 if problems else 0)
