import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


@pytest.fixture(scope="module")
def large_synth_files(tmp_path_factory):
    # a CSV of about 10 MB, above the two-block size from which a load is split
    prefix = str(tmp_path_factory.mktemp("large") / "wide")
    proc = run_cli("synth", "--m", "100", "--d", "5000", "--seed", "1", "--out", prefix)
    assert proc.returncode == 0, proc.stderr
    return prefix


def run_cli_to_files(tmp_path, *args):
    """``run_cli`` with stdout and stderr in files under ``tmp_path``.

    It returns when the run's own process exits.  A process that the run
    leaves behind inherits its output; were that a pipe, ``run_cli`` would
    wait for the stray to close it, and a test could not see the stray.
    """
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out, "w") as out_fh, open(err, "w") as err_fh:
        code = subprocess.run([sys.executable, "-m", "ksparse", *args],
                              stdout=out_fh, stderr=err_fh, timeout=600).returncode
    return subprocess.CompletedProcess(args, code, out.read_text(), err.read_text())


def processes_naming(text: str) -> list[str]:
    """Ids of the running processes whose command line holds ``text``."""
    proc_root = Path("/proc")
    if not proc_root.is_dir():
        pytest.skip("no /proc to list processes")
    alive = []
    for entry in proc_root.iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes() if entry.name.isdigit() else b""
        except OSError:  # gone meanwhile
            continue
        if text.encode() in cmdline:
            alive.append(entry.name)
    return alive


class TestSynth:
    def test_files_and_shapes(self, synth_files):
        matrix = Path(f"{synth_files}_matrix.csv").read_text().strip().split("\n")
        assert len(matrix) == 40
        assert len(matrix[0].split(",")) == 30
        labels = Path(f"{synth_files}_labels.txt").read_text().split()
        assert len(labels) == 40
        informative = Path(f"{synth_files}_informative.txt").read_text().split()
        assert len(informative) == 3

    def test_same_seed_identical_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            proc = run_cli(
                "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
                "--seed", "3", "--out", prefix,
            )
            assert proc.returncode == 0
        assert Path(f"{a}_matrix.csv").read_text() == Path(f"{b}_matrix.csv").read_text()
        assert Path(f"{a}_labels.txt").read_text() == Path(f"{b}_labels.txt").read_text()

    def test_invalid_spec_is_usage_error(self, tmp_path):
        proc = run_cli("synth", "--m", "4", "--k", "9", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        proc = run_cli(
            "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
            "--threads", threads, "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert "--threads must be >= 1" in proc.stderr
        assert not any(tmp_path.iterdir())

    def test_threads_split_the_write_byte_identically(self, tmp_path, split_blocks,
                                                      capsys):
        from ksparse import cli

        for threads in ("1", "3"):
            assert cli.main([
                "synth", "--m", "30", "--d", "20", "--k", "3", "--informative", "4",
                "--seed", "2", "--threads", threads, "--out", str(tmp_path / threads),
            ]) == 0
        assert split_blocks == [0, 2]
        for suffix in ("_matrix.csv", "_labels.txt", "_informative.txt"):
            assert (tmp_path / f"3{suffix}").read_bytes() == (
                tmp_path / f"1{suffix}").read_bytes()
        assert capsys.readouterr().out.count("\t30\t20\t3\n") == 2

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

    @pytest.mark.parametrize("fault", [
        "labels_write", "labels_directory", "informative_write",
        "matrix_directory", "informative_directory",
    ])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, capsys, fault):
        from ksparse import cli, dataio

        def synth(seed):
            return cli.main([
                "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
                "--seed", seed, "--out", str(tmp_path / "x"),
            ])

        assert synth("1") == 0
        target, _, failure = fault.partition("_")
        suffix = {"matrix": "_matrix.csv", "labels": "_labels.txt",
                  "informative": "_informative.txt"}[target]
        if failure == "directory":
            (tmp_path / f"x{suffix}").unlink()
            (tmp_path / f"x{suffix}").mkdir()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

        # the labels and then the informative indices go through one formatter;
        # a write fault hits the file named, after the files before it are staged
        integer_lines, calls = dataio._integer_lines, []

        def fail(values):
            calls.append(values)
            if len(calls) == ("labels", "informative").index(target) + 1:
                raise OSError("disk full")
            return integer_lines(values)

        # a directory target fails before anything is generated or formatted
        format_rows, generate = dataio._format_rows, dataio.generate_synthetic
        work = []
        monkeypatch.setattr(dataio, "_format_rows",
                            lambda *a: work.append("format") or format_rows(*a))
        monkeypatch.setattr(dataio, "generate_synthetic",
                            lambda spec: work.append("generate") or generate(spec))
        if failure == "write":
            monkeypatch.setattr(dataio, "_integer_lines", fail)
        # another seed: a replaced file would not keep its bytes
        assert synth("2") == 1
        assert "error:" in capsys.readouterr().err
        if failure == "directory":
            assert work == []
        else:
            assert work == ["generate", "format"]
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["x_matrix.csv", "x_labels.txt", "x_informative.txt"])

    def test_one_staging_file_and_rename_per_file(self, tmp_path, monkeypatch):
        from ksparse import cli

        made, renamed = [], []
        mkstemp, replace = tempfile.mkstemp, os.replace
        monkeypatch.setattr(tempfile, "mkstemp",
                            lambda **kw: made.append(kw) or mkstemp(**kw))
        monkeypatch.setattr(os, "replace",
                            lambda a, b: renamed.append(os.path.basename(b)) or replace(a, b))
        assert cli.main([
            "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
            "--out", str(tmp_path / "x"),
        ]) == 0
        assert len(made) == 3
        assert renamed == ["x_matrix.csv", "x_labels.txt", "x_informative.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(renamed)


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

    def test_threads_split_the_load(self, synth_files, tmp_path, split_blocks, capsys):
        from ksparse import cli

        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.json"
            assert cli.main([
                "cluster", "--input", f"{synth_files}_matrix.csv",
                "--labels", f"{synth_files}_labels.txt", "--k", "2", "--eta", "0.5",
                *FAST_FLAGS, "--threads", threads, "--out", str(out),
            ]) == 0
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert split_blocks == [0, 1]
        assert outs[0] == outs[1]

    def test_no_process_outlives_the_run(self, large_synth_files, tmp_path):
        # the load forks a CSV block worker and the start's k-means replicates
        # fork another, at any input size; each has the run's own command line
        from ksparse import dataio

        matrix = Path(f"{large_synth_files}_matrix.csv")
        assert matrix.stat().st_size >= 2 * dataio._SPLIT_BLOCK_BYTES
        out = tmp_path / "worker-run.json"
        proc = run_cli_to_files(
            tmp_path, "cluster", "--input", str(matrix),
            "--k", "4", "--eta", "3", *FAST_FLAGS, "--threads", "2", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert processes_naming(str(out)) == []

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

    def test_digit_separator_in_matrix_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4_0\n5,6\n")
        out = tmp_path / "x.json"
        proc = run_cli(
            "cluster", "--input", str(bad), "--k", "2", "--eta", "1", "--out", str(out)
        )
        assert proc.returncode == 1
        assert f"{bad}: non-numeric value '4_0' at row 2, column 2" in proc.stderr
        assert not out.exists()

    def test_rownames_without_data_exact_stderr(self, tmp_path):
        bad = tmp_path / "f.csv"
        bad.write_text("s0\ns1\n")
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", str(bad), "--rownames",
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {bad}: row 1 has no data columns\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            (",a,b,c\nr1,0,-1,9\nr2,0,5,9\nr3,0,5,9\n",
             ["--filter-min-count", "2", "--filter-min-cells", "2",
              "--normalize", "cpm,spectral"],
             "negative count at sample r1, feature b"),
            (",a,b,c\nr1,1,2,3\nr2,0,0,0\nr3,4,5,6\n", ["--normalize", "cpm"],
             "sample r2 has zero total count"),
        ],
        ids=["negative-after-filter", "zero-total"],
    )
    def test_cpm_error_names_file_sample_and_feature(self, tmp_path, text, flags, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(text)
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", str(counts), "--header", "--rownames", *flags,
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {counts}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--filter-min-count", "nan", "--filter-min-cells", "1"],
             "--filter-min-count must be finite, got nan"),
            (["--filter-min-count", "inf", "--filter-min-cells", "1"],
             "--filter-min-count must be finite, got inf"),
            (["--filter-min-count", "1", "--filter-min-cells", "-3"],
             "--filter-min-cells must be >= 0, got -3"),
        ],
        ids=["nan", "inf", "negative-cells"],
    )
    def test_bad_filter_flags_usage_error(self, synth_files, tmp_path, flags, message):
        out = tmp_path / "r.json"
        proc = run_cli(
            "cluster", "--input", f"{synth_files}_matrix.csv", *flags,
            "--k", "2", "--eta", "1", "--out", str(out),
        )
        assert proc.returncode == 2
        assert message in proc.stderr
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
        assert proc.stderr == (
            f"error: {labels}: labels_true has 2 entries for 40 samples in "
            f"{synth_files}_matrix.csv\n"
        )
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
    def test_no_process_outlives_the_run(self, synth_files, tmp_path):
        # two budgets over two processes fork one worker at any input size
        out = tmp_path / "worker-run.tsv"
        proc = run_cli_to_files(
            tmp_path, "sweep", "--input", f"{synth_files}_matrix.csv", "--k", "2",
            "--eta-list", "0.3,0.5", *FAST_FLAGS, "--threads", "2", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert processes_naming(str(out)) == []

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


class TestPrelude:
    """Input errors that cluster and sweep share name the file and the flags."""

    COUNTS = ",a,b,c\nr1,1,2,3\nr2,4,5,6\nr3,7,8,9\n"

    @staticmethod
    def _run(command, tmp_path, *flags):
        counts = tmp_path / "counts.csv"
        counts.write_text(TestPrelude.COUNTS)
        out = tmp_path / "out.txt"
        budget = ["--eta", "1"] if command == "cluster" else ["--eta-list", "1,2"]
        proc = run_cli(
            command, "--input", str(counts), "--header", "--rownames", *flags,
            *budget, "--out", str(out),
        )
        assert not out.exists()
        return proc, counts

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--filter-min-count", "1e9", "--filter-min-cells", "1"],
             "no feature reaches --filter-min-count 1e+09 in --filter-min-cells 1 samples"),
            (["--filter-min-count", "1", "--filter-min-cells", "9"],
             "--filter-min-cells 9 exceeds its 3 samples"),
        ],
        ids=["removes-every-feature", "cells-above-samples"],
    )
    def test_filter_error_names_file_and_flags(self, tmp_path, command, flags, message):
        proc, counts = self._run(command, tmp_path, "--k", "2", *flags)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {counts}: {message}\n"

    @pytest.mark.parametrize(
        "command, threads",
        [("cluster", "1"), ("sweep", "1"), ("sweep", "2")],
        ids=["cluster", "sweep", "sweep-threads-2"],
    )
    def test_k_above_samples_names_file_and_flag(self, tmp_path, command, threads):
        proc, counts = self._run(command, tmp_path, "--k", "5", "--threads", threads)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {counts}: cannot form --k 5 clusters from 3 samples\n"


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
        assert proc.stderr == (
            f"error: length mismatch: --pred {p} has 3 labels, --truth {t} has 2\n"
        )

    def test_negative_label_names_file_and_line(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("0\n1\n-1\n1\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.returncode == 1
        assert f"{p}: line 3: negative cluster index -1" in proc.stderr

    def test_digit_separator_in_labels_rejected(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("0\n1\n1_0\n1\n")
        proc = run_cli("eval", "--pred", str(p), "--truth", str(t))
        assert proc.returncode == 1
        assert f"{p}: line 3: expected an integer label, got '1_0'" in proc.stderr

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

    def test_imports_are_a_phase_of_their_own(self, synth_files, tmp_path):
        # numpy and ksparse load before the first timed step, not inside it
        runs = {
            ("import", "load", "cluster", "write"): (
                "cluster", "--input", f"{synth_files}_matrix.csv", "--k", "2",
                "--eta", "0.5", *FAST_FLAGS, "--out", str(tmp_path / "r.json")),
            ("import", "generate", "write"): (
                "synth", "--m", "10", "--d", "8", "--k", "2", "--informative", "2",
                "--out", str(tmp_path / "s")),
        }
        for phases, args in runs.items():
            proc = run_cli(*args, "--time")
            assert proc.returncode == 0, proc.stderr
            reported = [line.split(":")[0] for line in proc.stderr.splitlines()]
            assert reported == [f"[time] {phase}" for phase in phases]


# runs the CLI, then exits 3 naming any multiprocessing module it imported
_WITHOUT_MULTIPROCESSING = """\
import sys
from ksparse.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "multiprocessing")
if loaded:
    sys.exit(f"imported {loaded}")
sys.exit(code)
"""


class TestForkedWorkers:
    def test_no_multiprocessing_import(self, large_synth_files, tmp_path):
        # the cluster run forks for its load and for its k-means replicates,
        # and synth forks for its write
        from ksparse import dataio

        matrix = Path(f"{large_synth_files}_matrix.csv")
        assert matrix.stat().st_size >= 2 * dataio._SPLIT_BLOCK_BYTES
        assert 300 * 5000 * 8 >= 2 * dataio._SPLIT_BLOCK_BYTES
        for args in (
            ["cluster", "--input", str(matrix), "--k", "4", "--eta", "3", *FAST_FLAGS,
             "--out", str(tmp_path / "r.json")],
            ["synth", "--m", "300", "--d", "5000", "--out", str(tmp_path / "s")],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", _WITHOUT_MULTIPROCESSING, *args, "--threads", "2"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr


class TestHelp:
    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    def test_solver_flag_defaults_match_config(self, command):
        from ksparse.cli import _build_parser
        from ksparse.driver import SolverConfig

        required = ["--eta", "1", "--out", "r.json"] if command == "cluster" else []
        args = _build_parser().parse_args([command, "--input", "m.csv", "--k", "2", *required])
        cfg = SolverConfig()
        assert (args.inner_iters, args.loops, args.replicates, args.seed, args.dbar) == (
            cfg.inner_iters, cfg.outer_loops, cfg.replicates, cfg.seed, cfg.dbar
        )

    @pytest.mark.parametrize("affinity, cpu_count, threads", [
        ({0}, 2, 1),  # pinned to one of two CPUs
        ({0, 1}, 2, 2),
        (None, 3, 3),  # no affinity call: the CPU count
        (None, None, 1),  # nor a CPU count
    ])
    def test_threads_default_counts_usable_cpus(self, monkeypatch, affinity, cpu_count,
                                                threads):
        from ksparse import cli

        if affinity is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
        parser = cli._build_parser()
        for command, required in (("cluster", ["--eta", "1", "--out", "r.json"]),
                                  ("sweep", [])):
            args = parser.parse_args([command, "--input", "m.csv", "--k", "2", *required])
            assert args.threads == threads

    def test_subcommand_help_lists_defaults(self):
        proc = run_cli("cluster", "--help")
        assert proc.returncode == 0
        for token in ("--replicates", "40", "--loops", "10", "--inner-iters", "300",
                      "--dbar", "k+4", "--threads", "--time"):
            assert token in proc.stdout
        proc = run_cli("synth", "--help")
        assert "5000" in proc.stdout and "600" in proc.stdout
