"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight fixtures (the 600x5000 synthetic dataset, its tuning sweep,
and the wide budget sweep) are session-scoped and shared across criteria.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ksparse.core import gradient, objective, spectral_norm
from ksparse.dataio import SyntheticSpec, cpm_normalize, filter_low_expressed, \
    generate_synthetic, scale_by_spectral_norm
from ksparse.driver import k_sparse, sweep_eta
from ksparse.metrics import accuracy, ari, nmi
from ksparse.projection import project_l1_ball
from ksparse.solver import default_weight_init, solve_weights_fista, solve_weights_ista

from oracles import accuracy_oracle, ari_oracle, l1_projection_oracle, nmi_oracle, \
    partitions_up_to

TUNING_GRID = [3.0, 5.0, 8.0]
WIDE_GRID = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0]
WORKERS = 2


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def dataset():
    return generate_synthetic(SyntheticSpec())  # 600 x 5000, k=4, 100 informative


@pytest.fixture(scope="session")
def tuning(dataset):
    """Budget tuning for criterion 6: sweep, then the run at the chosen budget."""
    t0 = time.perf_counter()
    records = sweep_eta(
        dataset.matrix, 4, TUNING_GRID, labels_true=dataset.labels_true,
        cfg=None, n_jobs=WORKERS,
    )
    chosen = next(r for r in records if 100 <= r.selected_count <= 200)
    elapsed = time.perf_counter() - t0
    run = k_sparse(dataset.matrix, 4, chosen.eta, labels_true=dataset.labels_true)
    return {"records": records, "chosen": chosen, "elapsed": elapsed, "run": run}


@pytest.fixture(scope="session")
def wide_sweep(dataset):
    return sweep_eta(
        dataset.matrix, 4, WIDE_GRID, labels_true=dataset.labels_true,
        cfg=None, n_jobs=WORKERS,
    )


def test_criterion_01_projection_optimality():
    rng = np.random.default_rng(100)
    cases = []
    for _ in range(1000):
        dim = int(rng.integers(2, 21))
        cases.append((rng.uniform(-5, 5, dim), float(rng.uniform(1e-9, 3.0))))
    t0 = time.perf_counter()
    results = [project_l1_ball(w, eta) for w, eta in cases]
    elapsed = time.perf_counter() - t0
    worst = max(
        np.linalg.norm(got - l1_projection_oracle(w, eta))
        for got, (w, eta) in zip(results, cases)
    )
    report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"1000 projections vs active-set oracle: max l2 gap {worst:.2e} "
        f"(tol 1e-9), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_metric_oracles():
    worst = 0.0
    checked = 0
    for n in range(2, 7):
        parts = partitions_up_to(n, 3)
        for a, b in itertools.product(parts, repeat=2):
            worst = max(
                worst,
                abs(accuracy(a, b) - accuracy_oracle(a, b)),
                abs(ari(a, b) - ari_oracle(a, b)),
                abs(nmi(a, b) - nmi_oracle(a, b)),
            )
            checked += 1
    fixture = ari([0, 0, 1, 1], [0, 1, 0, 1])
    ok = worst <= 1e-12 and abs(fixture + 0.5) <= 1e-12
    report(
        2,
        ok,
        f"{checked} partition pairs vs brute-force oracles: max gap {worst:.2e} "
        f"(tol 1e-12); ARI fixture = {fixture}",
    )


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 13))
        d = int(rng.integers(2, 11))
        dbar = int(rng.integers(1, 9))
        k = int(rng.integers(2, min(m, 4) + 1))
        X = rng.uniform(-1, 1, (m, d))
        W = rng.uniform(-1, 1, (d, dbar))
        labels = rng.integers(0, k, m)
        labels[:k] = np.arange(k)
        mu = rng.uniform(-1, 1, (k, dbar))
        g = gradient(X, W, labels, mu)
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(d):
            for j in range(dbar):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd[i, j] = (
                    objective(X, Wp, labels, mu) - objective(X, Wm, labels, mu)
                ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(g))
    report(3, worst < 1e-6, f"50 finite-difference checks: max relative error {worst:.2e} (tol 1e-6)")


def test_criterion_04_solver_monotonicity_and_rates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    m, d, dbar, k = 50, 30, 5, 3
    X, _ = scale_by_spectral_norm(rng.standard_normal((m, d)))
    labels = rng.integers(0, k, m)
    labels[:k] = np.arange(k)
    mu = rng.standard_normal((k, dbar))
    W0 = default_weight_init(d, dbar, 1.0)

    ista = solve_weights_ista(X, labels, mu, W0, 2000, 1.0, sigma_max=1.0)
    fista = solve_weights_fista(X, labels, mu, W0, 500, 1.0, sigma_max=1.0)

    max_step_up = float(np.max(np.diff(ista.objective_trace)))
    gap_200 = abs(fista.objective_trace[200] - ista.objective_trace[-1])

    star = min(ista.objective_trace.min(), fista.objective_trace.min())
    n = np.arange(10, 501)
    bounded = True
    for trace, power in ((ista.objective_trace, 1), (fista.objective_trace, 2)):
        s = n**power * np.maximum(trace[10:501] - star, 0.0)
        early, late = s[: s.size // 2].max(), s[s.size // 2 :].max()
        bounded = bounded and late <= max(2.0 * early, 1e-12)
    elapsed = time.perf_counter() - t0
    report(
        4,
        max_step_up <= 1e-12 and gap_200 <= 1e-6 and bounded and elapsed < 10.0,
        f"ISTA max step increase {max_step_up:.2e} (tol 1e-12); |FISTA@200 - "
        f"ISTA@2000| = {gap_200:.2e} (tol 1e-6); rate products bounded: {bounded}; "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_05_alternation_decreases(tuning):
    trace = tuning["run"].objective_trace
    max_up = float(np.max(np.diff(trace)))
    drop = (trace[0] - trace[-1]) / trace[0]
    report(
        5,
        max_up <= 1e-9 and drop > 0.10,
        f"outer trace (L=10) max increase {max_up:.2e} (tol 1e-9); total decrease "
        f"{drop:.1%} of initial (> 10%)",
    )


def test_criterion_06_clustering_quality(tuning):
    chosen = tuning["chosen"]
    run = tuning["run"]
    ok = (
        100 <= chosen.selected_count <= 200
        and chosen.accuracy >= 0.95
        and chosen.ari >= 0.90
        and chosen.nmi >= 0.85
        and run.metrics["accuracy"] == chosen.accuracy
        and tuning["elapsed"] < 60.0
    )
    report(
        6,
        ok,
        f"eta={chosen.eta:g} selects {chosen.selected_count} features; accuracy "
        f"{chosen.accuracy:.4f} (>= 0.95), ARI {chosen.ari:.4f} (>= 0.90), NMI "
        f"{chosen.nmi:.4f} (>= 0.85); tuning sweep {tuning['elapsed']:.1f}s (< 60s)",
    )


def test_criterion_07_feature_recovery(dataset, tuning):
    selected = set(tuning["run"].selected_features.tolist())
    informative = set(dataset.informative_features.tolist())
    purity = len(selected & informative) / max(len(selected), 1)
    report(
        7,
        purity >= 0.80,
        f"{len(selected & informative)} of {len(selected)} selected features are "
        f"informative ({purity:.1%} >= 80%)",
    )


def test_criterion_08_sweep_behavior(wide_sweep):
    counts = [r.selected_count for r in wide_sweep]
    accs = [r.accuracy for r in wide_sweep]
    slack = 0.02 * 5000
    monotone = all(b >= a - slack for a, b in zip(counts, counts[1:]))
    top_half = accs[len(accs) // 2 :]
    plateau = max(accs) - min(top_half) <= 0.02
    report(
        8,
        monotone and plateau,
        f"selected counts {counts} non-decreasing within {slack:.0f}; accuracy "
        f"plateau on top half (max spread {max(accs) - min(top_half):.4f} <= 0.02)",
    )


def test_criterion_09_cli_determinism(tmp_path):
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "ksparse", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    prefix = str(tmp_path / "toy")
    cli("synth", "--m", "50", "--d", "40", "--k", "2", "--informative", "4",
        "--shift", "5", "--seed", "2", "--out", prefix)

    artifacts = []
    for rep, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / f"res_{rep}.json"
        table = tmp_path / f"sweep_{rep}.tsv"
        stdout = cli(
            "cluster", "--input", f"{prefix}_matrix.csv", "--labels",
            f"{prefix}_labels.txt", "--k", "2", "--eta", "0.5", "--seed", "7",
            "--replicates", "6", "--inner-iters", "80", "--loops", "4",
            "--threads", threads, "--out", str(out),
        )
        cli(
            "sweep", "--input", f"{prefix}_matrix.csv", "--k", "2",
            "--eta-list", "0.2,0.6", "--replicates", "6", "--inner-iters", "80",
            "--loops", "4", "--seed", "7", "--threads", threads, "--out", str(table),
        )
        artifacts.append((stdout, out.read_bytes(), table.read_bytes()))
    identical = artifacts[0] == artifacts[1]
    report(
        9,
        identical,
        "cluster + sweep outputs byte-identical for --threads 1 vs 2 "
        f"(result {len(artifacts[0][1])} bytes, table {len(artifacts[0][2])} bytes)",
    )


def test_criterion_10_count_matrix_pipeline(tmp_path):
    # UMI-count style fixture: cells x genes, header row and rowname column
    rng = np.random.default_rng(103)
    m, d = 150, 300
    rates = rng.choice([0.3, 3.0, 9.0], size=d, p=[0.4, 0.3, 0.3])
    counts = rng.poisson(rates, size=(m, d)).astype(float)
    lines = ["," + ",".join(f"gene{j}" for j in range(d))]
    for i in range(m):
        lines.append(f"cell{i}," + ",".join(str(int(v)) for v in counts[i]))
    fixture = tmp_path / "umi_counts.csv"
    fixture.write_text("\n".join(lines) + "\n")

    from ksparse.dataio import load_matrix_csv

    ds = load_matrix_csv(fixture, has_header=True, has_rownames=True)
    X1, kept = filter_low_expressed(ds.matrix, 2.0, 130)
    X2 = cpm_normalize(X1)
    X3, sigma = scale_by_spectral_norm(X2)
    lib_ok = X3.shape[0] == m and 0 < kept.size < d and abs(spectral_norm(X3) - 1.0) < 1e-6

    out = tmp_path / "counts_result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ksparse", "cluster", "--input", str(fixture),
         "--header", "--rownames", "--k", "4", "--eta", "5",
         "--filter-min-count", "2", "--filter-min-cells", "130",
         "--normalize", "cpm,spectral", "--replicates", "6", "--inner-iters", "60",
         "--loops", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    cli_ok = proc.returncode == 0 and json.loads(out.read_text())["k"] == 4
    report(
        10,
        lib_ok and cli_ok,
        f"filter(2,130) kept {kept.size}/{d} genes, CPM + spectral scaling ok "
        f"(sigma={sigma:.1f}); end-to-end CLI run on the fixture succeeded",
    )
