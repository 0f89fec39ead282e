import itertools
import subprocess
import sys

import numpy as np
import pytest

from ksparse.metrics import _min_cost_assignment, accuracy, ari, contingency_table, nmi

from oracles import accuracy_oracle, ari_oracle, nmi_oracle, partitions_up_to


class TestAccuracy:
    def test_label_permutation(self):
        assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_partial_agreement(self):
        truth = [0, 0, 1, 1]
        pred = [0, 1, 1, 1]
        assert accuracy(truth, pred) == pytest.approx(0.75)
        assert accuracy_oracle(truth, pred) == pytest.approx(0.75)

    def test_identity(self):
        assert accuracy([2, 0, 1, 2], [2, 0, 1, 2]) == 1.0

    def test_more_pred_clusters_than_true(self):
        truth = [0, 0, 0, 1]
        pred = [0, 1, 2, 3]
        assert accuracy(truth, pred) == pytest.approx(accuracy_oracle(truth, pred))

    def test_majority_class_bound(self):
        truth = [0] * 5 + [1] * 5 + [2] * 5
        pred = [0] * 15
        assert accuracy(truth, pred) >= 1.0 / 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([0, 1], [0, 1, 1])

    def test_random_rectangular_tables_with_ties(self):
        # small counts make many assignments tie for the optimum
        rng = np.random.default_rng(4)
        for _ in range(300):
            table = rng.integers(0, 3, (rng.integers(1, 6), rng.integers(1, 6)))
            table[0, 0] += 1  # at least one sample
            truth, pred = np.nonzero(table)
            counts = table[truth, pred]
            truth, pred = np.repeat(truth, counts).tolist(), np.repeat(pred, counts).tolist()
            assert accuracy(truth, pred) == accuracy_oracle(truth, pred)

    def test_assignment_against_permutations(self):
        rng = np.random.default_rng(5)
        for n in range(1, 8):
            for _ in range(20):
                cost = rng.integers(-4, 5, (n, n)).astype(float)
                cols = _min_cost_assignment(cost)
                np.testing.assert_array_equal(np.sort(cols), np.arange(n))
                best = min(
                    cost[np.arange(n), list(p)].sum()
                    for p in itertools.permutations(range(n))
                )
                assert cost[np.arange(n), cols].sum() == best


class TestAri:
    def test_identity(self):
        assert ari([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_fixture_value(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)

    def test_single_cluster_vs_split(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_edge_cases(self):
        assert ari([0, 1, 2], [0, 1, 2]) == 1.0  # all singletons
        assert ari([0, 0, 0], [1, 1, 1]) == 1.0  # single cluster both sides

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 3, 12)
            b = rng.integers(0, 3, 12)
            assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ari([0], [0])


class TestNmi:
    def test_identity(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_both_sides(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_side_trivial(self):
        assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_matches_entropy_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.integers(0, 3, 10)
            b = rng.integers(0, 4, 10)
            assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, 15)
        b = rng.integers(0, 3, 15)
        remap = np.array([2, 0, 1])
        assert nmi(remap[a], b) == pytest.approx(nmi(a, b), abs=1e-12)
        assert ari(remap[a], b) == pytest.approx(ari(a, b), abs=1e-12)
        assert accuracy(remap[a], b) == pytest.approx(accuracy(a, b), abs=1e-12)


class TestContingency:
    def test_counts(self):
        C = contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
        np.testing.assert_array_equal(C, [[1, 1], [1, 1]])
        assert C.sum() == 4

    def test_marginals(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 3, 30)
        b = rng.integers(0, 4, 30)
        C = contingency_table(a, b)
        np.testing.assert_array_equal(C.sum(axis=1), np.bincount(np.unique(a, return_inverse=True)[1]))
        assert C.sum() == 30


def test_exhaustive_small_partitions():
    # every pair of partitions of up to 6 elements into at most 3 clusters
    for n in (2, 4, 6):
        parts = partitions_up_to(n, 3)
        for a, b in itertools.product(parts, repeat=2):
            assert accuracy(a, b) == accuracy_oracle(a, b)
            assert ari(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)
            assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-12)


def test_driver_import_leaves_scipy_optimize_unloaded():
    # a run without true labels computes no metric, so it should not pay for
    # loading the assignment solver
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ksparse.driver; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_accuracy_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ksparse.metrics import accuracy; accuracy([0, 0, 1], [1, 1, 0]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
