import json
import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ksparse", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


FAST_FLAGS = ["--replicates", "6", "--inner-iters", "80", "--loops", "4"]


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    prefix = str(root / "toy")
    proc = run_cli(
        "synth", "--m", "40", "--d", "30", "--k", "2", "--informative", "3",
        "--shift", "5", "--seed", "1", "--out", prefix,
    )
    assert proc.returncode == 0, proc.stderr
    return prefix


class TestSynth:
    def test_files_and_shapes(self, synth_files):
        matrix = open(f"{synth_files}_matrix.csv").read().strip().split("\n")
        assert len(matrix) == 40
        assert len(matrix[0].split(",")) == 30
        labels = open(f"{synth_files}_labels.txt").read().split()
        assert len(labels) == 40
        informative = open(f"{synth_files}_informative.txt").read().split()
        assert len(informative) == 3

    def test_same_seed_identical_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            proc = run_cli(
                "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
                "--seed", "3", "--out", prefix,
            )
            assert proc.returncode == 0
        assert open(f"{a}_matrix.csv").read() == open(f"{b}_matrix.csv").read()
        assert open(f"{a}_labels.txt").read() == open(f"{b}_labels.txt").read()

    def test_invalid_spec_is_usage_error(self, tmp_path):
        proc = run_cli("synth", "--m", "4", "--k", "9", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_threads_flag_rejected(self, tmp_path):
        proc = run_cli(
            "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
            "--threads", "2", "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert not any(tmp_path.iterdir())

    def test_failed_write_leaves_no_partial_output(self, tmp_path):
        (tmp_path / "x_labels.txt").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        proc = run_cli(
            "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
            "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestCluster:
    def test_summary_and_result_file(self, synth_files, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--labels", f"{synth_files}_labels.txt",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS, "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        fields = proc.stdout.strip().split("\t")
        assert len(fields) == 6  # eta, selected, frobenius, accuracy, ari, nmi
        assert float(fields[3]) == 1.0  # separated fixture clusters perfectly
        doc = json.loads(out.read_text())
        assert doc["format"] == "ksparse-result"
        assert len(doc["labels"]) == 40

    def test_without_labels_three_fields(self, synth_files, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS, "--out", str(out),
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().split("\t")) == 3

    def test_deterministic_across_threads(self, synth_files, tmp_path):
        outs = []
        for name, threads in (("t1.json", "1"), ("t2.json", "2")):
            out = tmp_path / name
            proc = run_cli(
                "cluster", "--input", f"{synth_files}_matrix.csv",
                "--k", "2", "--eta", "0.5", *FAST_FLAGS,
                "--seed", "4", "--threads", threads, "--out", str(out),
            )
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eta_zero_usage_error(self, synth_files, tmp_path):
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "0", "--out", str(tmp_path / "x.json"),
        )
        assert proc.returncode == 2
        assert "eta" in proc.stderr

    @pytest.mark.parametrize("flag, value", [("--eta", "nan"), ("--eta", "inf")])
    def test_non_finite_eta_or_gamma_usage_error(self, synth_files, tmp_path, flag, value):
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--k", "2", "--eta", "1",
            flag, value, "--out", str(out),
        )
        assert proc.returncode == 2
        assert f"{flag} must be positive and finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, synth_files, tmp_path, threads):
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "1", "--out", str(out), "--threads", threads,
        )
        assert proc.returncode == 2
        assert "--threads must be >= 1" in proc.stderr
        assert not out.exists()

    def test_unknown_flag_rejected(self, synth_files, tmp_path):
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "1", "--out", str(tmp_path / "x.json"), "--bogus",
        )
        assert proc.returncode == 2

    def test_missing_input_runtime_error(self, tmp_path):
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", str(tmp_path / "nope.csv"),
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert not out.exists()  # no partial output

    def test_bad_matrix_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", str(bad), "--k", "2", "--eta", "1", "--out", str(out)
        )
        assert proc.returncode == 1
        assert not out.exists()

    def test_unwritable_out_leaves_no_stray_file(self, synth_files, tmp_path):
        out = tmp_path / "somedir"
        out.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS, "--out", str(out),
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not any(out.iterdir())

    def test_result_file_mode_follows_umask(self, synth_files, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS, "--out", str(out),
        )
        assert proc.returncode == 0
        plain = tmp_path / "plain"
        plain.write_text("")
        assert out.stat().st_mode == plain.stat().st_mode

    def test_normalize_none_runs_on_raw_scale(self, synth_files, tmp_path):
        # the step is 1/sigma_max^2 of the data as given, so unscaled input runs
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--normalize", "none",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS, "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(out.read_text())["objective_trace"]
        assert len(trace) == 5
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_gamma_flag_rejected(self, synth_files, tmp_path):
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--k", "2", "--eta", "1",
            "--gamma", "1", "--out", str(out),
        )
        assert proc.returncode == 2
        assert "--gamma" in proc.stderr
        assert not out.exists()

    def test_labels_length_mismatch_names_counts(self, synth_files, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n")
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--labels", str(labels),
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert "labels_true has 2 entries for 40 samples" in proc.stderr
        assert not out.exists()

    def test_negative_label_names_file_and_line(self, synth_files, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n-1\n" + "0\n" * 37)
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--labels", str(labels),
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert f"{labels}: line 3: negative cluster index -1" in proc.stderr
        assert not out.exists()

    def test_bad_normalize_stage(self, synth_files, tmp_path):
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta", "1", "--normalize", "zscore", "--out", str(tmp_path / "x.json"),
        )
        assert proc.returncode == 2


class TestSweep:
    def test_single_eta_one_row(self, synth_files):
        proc = run_cli(
            "sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta-list", "0.5", *FAST_FLAGS,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "eta\tselected\tfrobenius\taccuracy\tari\tnmi"
        assert len(lines) == 2

    def test_range_expansion_rows(self, synth_files, tmp_path):
        out = tmp_path / "table.tsv"
        proc = run_cli(
            "sweep", "--input", f"{synth_files}_matrix.csv",
            "--labels", f"{synth_files}_labels.txt", "--k", "2",
            "--eta-range", "0.1:1.0:0.1", *FAST_FLAGS,
            "--threads", "2", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11  # header + 10 rows
        etas = [float(ln.split("\t")[0]) for ln in lines[1:]]
        assert etas == sorted(etas)
        accs = [float(ln.split("\t")[3]) for ln in lines[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, synth_files, tmp_path, threads):
        out = tmp_path / "table.tsv"
        proc = run_cli(
            "sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta-list", "0.5", *FAST_FLAGS, "--threads", threads, "--out", str(out),
        )
        assert proc.returncode == 2
        assert "--threads must be >= 1" in proc.stderr
        assert not out.exists()

    def test_gamma_flag_rejected(self, synth_files):
        proc = run_cli(
            "sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta-list", "1", "--gamma", "1",
        )
        assert proc.returncode == 2
        assert "--gamma" in proc.stderr

    def test_requires_exactly_one_eta_source(self, synth_files):
        proc = run_cli("sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2")
        assert proc.returncode == 2
        proc = run_cli(
            "sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta-list", "1", "--eta-range", "1:2:1",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "source, message",
        [
            (("--eta-list", "1,nan"), "all eta values must be positive and finite"),
            (("--eta-list", "inf"), "all eta values must be positive and finite"),
            (("--eta-range", "1:nan:1"), "--eta-range needs finite START, STOP and STEP"),
            (("--eta-range", "1:inf:1"), "--eta-range needs finite START, STOP and STEP"),
        ],
        ids=["list-nan", "list-inf", "range-nan", "range-inf"],
    )
    def test_non_finite_eta_usage_error(self, synth_files, source, message):
        proc = run_cli("sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2", *source)
        assert proc.returncode == 2
        assert message in proc.stderr


class TestEval:
    def test_identity(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("0\n0\n1\n1\n")
        proc = run_cli("eval", "--pred", str(f), "--truth", str(f))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.000000 1.000000 1.000000"

    def test_permuted_labels_full_accuracy(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("1\n1\n0\n0\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.stdout.split()[0] == "1.000000"

    def test_ari_fixture(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("0\n1\n0\n1\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.stdout.split()[1] == "-0.500000"

    def test_length_mismatch(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n1\n")
        p.write_text("0\n1\n0\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.returncode == 1

    def test_negative_label_names_file_and_line(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("0\n1\n-1\n1\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.returncode == 1
        assert f"{p}: line 3: negative cluster index -1" in proc.stderr

    def test_time_flag_rejected(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("0\n0\n1\n1\n")
        proc = run_cli("eval", "--pred", str(f), "--truth", str(f), "--time")
        assert proc.returncode == 2


class TestTiming:
    def test_time_flag_reports_phases(self, synth_files, tmp_path):
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv",
            "--k", "2", "--eta", "0.5", *FAST_FLAGS,
            "--time", "--out", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 0
        assert "[time] load:" in proc.stderr
        assert "[time] cluster:" in proc.stderr


class TestHelp:
    def test_subcommand_help_lists_defaults(self):
        proc = run_cli("cluster", "--help")
        assert proc.returncode == 0
        for token in ("--replicates", "40", "--loops", "10", "--inner-iters", "300",
                      "--dbar", "k+4", "--threads", "--time"):
            assert token in proc.stdout
        proc = run_cli("synth", "--help")
        assert "5000" in proc.stdout and "600" in proc.stdout
