import json
import re

import numpy as np
import pytest

from ksparse.core import spectral_norm
from ksparse.dataio import (
    Dataset,
    SyntheticSpec,
    cpm_normalize,
    filter_low_expressed,
    generate_synthetic,
    load_labels,
    load_matrix_csv,
    read_result,
    save_labels,
    scale_by_spectral_norm,
    write_matrix_csv,
    write_result,
)
from ksparse.driver import ClusteringResult


class TestLoadMatrix:
    def test_plain_parse(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        ds = load_matrix_csv(p)
        np.testing.assert_array_equal(ds.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.feature_names == ["g0", "g1"]
        assert ds.sample_ids == ["s0", "s1"]

    def test_header_capture(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("g1,g2\n1,2\n3,4\n")
        ds = load_matrix_csv(p, has_header=True)
        assert ds.feature_names == ["g1", "g2"]

    def test_rownames(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\ncell1,1,2\ncell2,3,4\n")
        ds = load_matrix_csv(p, has_header=True, has_rownames=True)
        assert ds.sample_ids == ["cell1", "cell2"]
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.matrix, [[1, 2], [3, 4]])

    def test_tab_autodetect(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("1\t2\n3\t4\n")
        np.testing.assert_array_equal(load_matrix_csv(p).matrix, [[1, 2], [3, 4]])

    def test_delimiter_override(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1,2\n3,4\n")
        ds = load_matrix_csv(p, delimiter=",")
        assert ds.matrix.shape == (2, 2)

    def test_ragged_row_names_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_matrix_csv(p)

    def test_non_numeric_names_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_matrix_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(p)

    def test_rejects_nan_inf(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,nan\n2,3\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix_csv(p)
        p.write_text("1,inf\n2,3\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix_csv(p)

    def test_roundtrip_with_write(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((5, 3)), ["a", "b", "c"], [f"s{i}" for i in range(5)])
        p = tmp_path / "out.csv"
        write_matrix_csv(p, ds)
        back = load_matrix_csv(p, has_header=True, has_rownames=True)
        np.testing.assert_array_equal(back.matrix, ds.matrix)  # bitwise via repr
        assert back.feature_names == ds.feature_names
        assert back.sample_ids == ds.sample_ids

    def test_write_matches_per_cell_repr(self, tmp_path):
        edge = [-0.0, 5e-324, 1e308, 0.1, 1.0, 123456789.0]
        rng = np.random.default_rng(4)
        X = np.array([edge, rng.standard_normal(6) * 10.0 ** rng.integers(-8, 9, 6)])
        ds = Dataset(X, list("abcdef"), ["s0", "s1"])
        p = tmp_path / "out.csv"
        write_matrix_csv(p, ds)
        rows = [",a,b,c,d,e,f"]
        rows += [",".join([f"s{i}"] + [repr(float(v)) for v in X[i]]) for i in range(2)]
        assert p.read_bytes() == ("\n".join(rows) + "\n").encode()


def _load_both_ways(monkeypatch, path, **kwargs):
    """Load once through the np.loadtxt fast path and once through the row scan."""
    real_loadtxt = np.loadtxt
    parsed = []

    def spy(*args, **kw):
        parsed.append(real_loadtxt(*args, **kw))
        return parsed[-1]

    def refuse(*args, **kw):
        raise ValueError("loadtxt refused")

    monkeypatch.setattr(np, "loadtxt", spy)
    fast = load_matrix_csv(path, **kwargs)
    assert len(parsed) == 1 and fast.matrix is parsed[0]  # no fallback happened
    monkeypatch.setattr(np, "loadtxt", refuse)
    scan = load_matrix_csv(path, **kwargs)
    return fast, scan


class TestLoadPaths:
    @pytest.mark.parametrize(
        "text, kwargs",
        [
            (b"1,2\n3,4\n", {}),
            (b"a,b\n1,2\n3,4\n", {"has_header": True}),
            (b",a,b\ncell1,1,2\ncell2,3,4\n", {"has_header": True, "has_rownames": True}),
            (b"r1\t1\t2\nr2\t3\t4\n", {"has_rownames": True}),
            (b"1\t2\n3\t4\n", {}),
            (b"a,b\r\n1,2\r\n3,4\r\n", {"has_header": True}),
            (b"\n1,2\n\n   \n3,4\n\t\n", {}),
            (b"\n \n,a\n\nr1,5\n  \nr2,6", {"has_header": True, "has_rownames": True}),
            (b" 1 , 2\n3 ,\t4 \n", {}),
            (b"1e3,-2.5E-7\n+4e+0,.5\n", {}),
            (b"-0.0,0.0\n1,-0\n", {}),
            (b"1,2,3\n", {}),
            (b"1\n2\n3\n", {}),
        ],
        ids=[
            "plain", "header", "header-rownames", "rownames-tab", "tab", "crlf",
            "blank-lines", "blank-lines-rownames", "padded", "exponents",
            "negative-zero", "one-row", "one-column",
        ],
    )
    def test_fast_path_matches_scan(self, tmp_path, monkeypatch, text, kwargs):
        p = tmp_path / "m.csv"
        p.write_bytes(text)
        fast, scan = _load_both_ways(monkeypatch, p, **kwargs)
        assert fast.matrix.shape == scan.matrix.shape
        assert fast.matrix.dtype == scan.matrix.dtype
        assert fast.matrix.tobytes() == scan.matrix.tobytes()
        assert fast.feature_names == scan.feature_names
        assert fast.sample_ids == scan.sample_ids

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3,#4\n", "non-numeric value '#4' at row 2, column 2"),
            ("1,1e500\n3,4\n", "non-finite value at row 1, column 2"),
            ("1,2\nnan,4\n", "non-finite value at row 2, column 1"),
        ],
    )
    def test_bad_cells_keep_positional_errors(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_matrix_csv(p)

    @pytest.mark.parametrize(
        "text, header, message",
        [
            ("1,2\n\n\n3,x\n5,6\n", False, "non-numeric value 'x' at row 4, column 2"),
            ("a,b\n\n1,2\n3,4,5\n", True, "row 4 has 3 columns, expected 2"),
        ],
    )
    def test_errors_number_rows_by_file_line(self, tmp_path, text, header, message):
        # blank lines are skipped but still counted
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_matrix_csv(p, has_header=header)

    def test_rowname_only_row_falls_back_to_scan(self, tmp_path):
        p = tmp_path / "m.csv"
        for row, width in (("r2,", 1), ("r2", 0)):
            p.write_text(f"r1,1,2\n{row}\nr3,5,6\n")
            with pytest.raises(ValueError, match=f"row 2 has {width} columns, expected 2"):
                load_matrix_csv(p, has_rownames=True)


class TestLabelsFiles:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "labels.txt"
        labels = np.array([0, 2, 1, 1])
        save_labels(p, labels)
        np.testing.assert_array_equal(load_labels(p), labels)
        assert p.read_text() == "0\n2\n1\n1\n"

    def test_bad_line(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0\nx\n")
        with pytest.raises(ValueError, match="line 2"):
            load_labels(p)

    def test_negative_label_names_line(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0\n\n-1\n1\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3: negative cluster index -1")):
            load_labels(p)


class TestFilter:
    def test_vacuous_threshold_keeps_all(self):
        X = np.abs(np.random.default_rng(1).standard_normal((6, 4)))
        out, kept = filter_low_expressed(X, min_count=0.0, min_cells=1)
        assert out.shape == X.shape
        np.testing.assert_array_equal(kept, np.arange(4))

    def test_zero_column_removed(self):
        X = np.array([[0.0, 5.0], [0.0, 7.0]])
        out, kept = filter_low_expressed(X, min_count=2.0, min_cells=1)
        np.testing.assert_array_equal(kept, [1])
        np.testing.assert_array_equal(out, [[5.0], [7.0]])

    def test_strict_filter_against_counting_oracle(self):
        rng = np.random.default_rng(2)
        rates = rng.choice([0.5, 3.0, 8.0], size=80)  # mix of dead and live genes
        X = rng.poisson(rates, size=(150, 80)).astype(float)
        out, kept = filter_low_expressed(X, min_count=2.0, min_cells=130)
        want = [j for j in range(80) if int(np.sum(X[:, j] >= 2.0)) >= 130]
        np.testing.assert_array_equal(kept, want)
        assert out.shape == (150, len(want))
        assert 0 < len(want) < 80

    def test_all_removed(self):
        with pytest.raises(ValueError, match="every feature"):
            filter_low_expressed(np.zeros((4, 3)) + 0.5, min_count=2.0, min_cells=1)

    def test_min_cells_exceeds_samples(self):
        with pytest.raises(ValueError, match="min_cells"):
            filter_low_expressed(np.ones((4, 3)), 1.0, 5)


class TestCpm:
    def test_arithmetic(self):
        np.testing.assert_allclose(
            cpm_normalize(np.array([[1.0, 3.0]])), [[250000.0, 750000.0]]
        )

    def test_fixed_point(self):
        row = np.array([[4e5, 6e5]])
        np.testing.assert_allclose(cpm_normalize(row), row)

    def test_rows_sum_to_million(self):
        rng = np.random.default_rng(3)
        X = rng.random((10, 7)) + 0.01
        out = cpm_normalize(X)
        np.testing.assert_allclose(out.sum(axis=1), 1e6, rtol=1e-6)

    def test_zero_row_names_sample(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="sample 1"):
            cpm_normalize(X)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            cpm_normalize(np.array([[1.0, -2.0]]))


class TestSpectralScaling:
    def test_identity(self):
        out, sigma = scale_by_spectral_norm(np.eye(3))
        assert sigma == pytest.approx(1.0)
        np.testing.assert_allclose(out, np.eye(3))

    def test_scalar_scale(self):
        out, sigma = scale_by_spectral_norm(2.0 * np.eye(3))
        assert sigma == pytest.approx(2.0)
        np.testing.assert_allclose(out, np.eye(3))

    def test_output_has_unit_norm(self):
        rng = np.random.default_rng(4)
        out, _ = scale_by_spectral_norm(rng.standard_normal((12, 9)))
        assert spectral_norm(out) == pytest.approx(1.0, rel=1e-6)

    def test_zero_matrix(self):
        with pytest.raises(ValueError):
            scale_by_spectral_norm(np.zeros((3, 3)))


class TestSynthetic:
    def test_shape_and_balance(self):
        ds = generate_synthetic(SyntheticSpec(m=600, d=5000, k=4, n_informative=100))
        assert ds.matrix.shape == (600, 5000)
        np.testing.assert_array_equal(np.bincount(ds.labels_true), [150, 150, 150, 150])
        assert ds.informative_features.size == 100

    def test_unbalanced_m_differs_by_one(self):
        ds = generate_synthetic(SyntheticSpec(m=10, d=6, k=3, n_informative=2))
        sizes = np.bincount(ds.labels_true)
        assert sizes.max() - sizes.min() <= 1

    def test_near_zero_noise_collapses_clusters(self):
        ds = generate_synthetic(
            SyntheticSpec(m=12, d=8, k=3, n_informative=4, shift=1.0, noise_sd=1e-12, seed=1)
        )
        for c in range(3):
            block = ds.matrix[ds.labels_true == c][:, ds.informative_features]
            assert np.ptp(block, axis=0).max() < 1e-9

    def test_bitwise_deterministic(self):
        a = generate_synthetic(SyntheticSpec(m=30, d=20, k=2, n_informative=5, seed=7))
        b = generate_synthetic(SyntheticSpec(m=30, d=20, k=2, n_informative=5, seed=7))
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.informative_features, b.informative_features)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(m=10, d=5, k=11)
        with pytest.raises(ValueError):
            SyntheticSpec(d=5, n_informative=6)
        with pytest.raises(ValueError):
            SyntheticSpec(shift=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sd=-1.0)


class TestResultDocument:
    def _result(self):
        return ClusteringResult(
            labels=np.array([0, 1, 1]),
            k=2,
            weights=np.zeros((4, 2)),
            eta=1.25,
            selected_features=np.array([1, 3]),
            objective_trace=np.array([1.0 / 3.0, np.pi / 17]),
            metrics={"accuracy": 0.5, "ari": 0.25, "nmi": 0.125},
        )

    def _dataset(self):
        return Dataset(np.zeros((3, 4)) + 1.0, ["a", "b", "c", "d"], ["s0", "s1", "s2"])

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "res.json"
        res = self._result()
        write_result(res, self._dataset(), p)
        doc = read_result(p)
        np.testing.assert_array_equal(doc.labels, res.labels)
        np.testing.assert_array_equal(doc.objective_trace, res.objective_trace)
        assert doc.eta == res.eta
        assert doc.k == res.k
        assert doc.selected_features == ["b", "d"]
        assert doc.metrics == res.metrics

    def test_empty_selection_serialized_as_list(self, tmp_path):
        p = tmp_path / "res.json"
        res = self._result()
        res.selected_features = np.array([], dtype=int)
        write_result(res, self._dataset(), p)
        raw = json.loads(p.read_text())
        assert raw["selected_features"] == []

    def test_full_precision_trace(self, tmp_path):
        p = tmp_path / "res.json"
        write_result(self._result(), self._dataset(), p)
        text = p.read_text()
        assert "0.3333333333333333" in text  # >= 15 significant digits survive
        doc = read_result(p)
        assert doc.objective_trace[0] == 1.0 / 3.0

    def test_metrics_key_present_when_absent(self, tmp_path):
        p = tmp_path / "res.json"
        res = self._result()
        res.metrics = None
        write_result(res, self._dataset(), p)
        raw = json.loads(p.read_text())
        assert "metrics" in raw and raw["metrics"] is None

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "res.json"
        p.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a"):
            read_result(p)

    def test_other_version_rejected(self, tmp_path):
        p = tmp_path / "res.json"
        write_result(self._result(), self._dataset(), p)
        doc = json.loads(p.read_text())
        for version in (2, 0, "1", None):
            doc["version"] = version
            p.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="unsupported ksparse-result version"):
                read_result(p)

    def test_label_count_mismatch(self, tmp_path):
        res = self._result()
        ds = Dataset(np.ones((2, 4)), ["a", "b", "c", "d"], ["s0", "s1"])
        with pytest.raises(ValueError, match="labels"):
            write_result(res, ds, tmp_path / "res.json")


def test_pipeline_order_preserves_sample_count():
    rng = np.random.default_rng(5)
    rates = rng.choice([0.5, 6.0], size=60)
    X = rng.poisson(rates, size=(140, 60)).astype(float)
    X1, kept = filter_low_expressed(X, 2.0, 100)
    X2 = cpm_normalize(X1)
    X3, sigma = scale_by_spectral_norm(X2)
    assert X1.shape[0] == X2.shape[0] == X3.shape[0] == 140
    assert X3.shape[1] == kept.size
    assert sigma > 0
