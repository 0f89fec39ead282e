import io
import json
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest

from ksparse import core, dataio
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

from conftest import kill_children


def _die_mid_message(write, work, block):
    """A forked child that sends the first half of its reply's message and dies."""
    message = pickle.dumps((True, work(*block)), pickle.HIGHEST_PROTOCOL)
    os.write(write, message[:len(message) // 2])
    os._exit(3)


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


class TestLoadPaths:
    @pytest.mark.parametrize(
        "text, kwargs, rows, names, ids",
        [
            (b"1,2\n3,4\n", {}, [[1, 2], [3, 4]], None, None),
            (b"a,b\n1,2\n3,4\n", {"has_header": True}, [[1, 2], [3, 4]], ["a", "b"], None),
            (b",a,b\ncell1,1,2\ncell2,3,4\n", {"has_header": True, "has_rownames": True},
             [[1, 2], [3, 4]], ["a", "b"], ["cell1", "cell2"]),
            (b"r1\t1\t2\nr2\t3\t4\n", {"has_rownames": True},
             [[1, 2], [3, 4]], None, ["r1", "r2"]),
            (b"1\t2\n3\t4\n", {}, [[1, 2], [3, 4]], None, None),
            (b"a,b\r\n1,2\r\n3,4\r\n", {"has_header": True},
             [[1, 2], [3, 4]], ["a", "b"], None),
            (b"\n1,2\n\n   \n3,4\n\t\n", {}, [[1, 2], [3, 4]], None, None),
            (b"\n \n,a\n\nr1,5\n  \nr2,6", {"has_header": True, "has_rownames": True},
             [[5], [6]], ["a"], ["r1", "r2"]),
            (b" 1 , 2\n3 ,\t4 \n", {}, [[1, 2], [3, 4]], None, None),
            (b"1e3,-2.5E-7\n+4e+0,.5\n", {}, [[1000, -2.5e-7], [4, 0.5]], None, None),
            (b"-0.0,0.0\n1,-0\n", {}, [[-0.0, 0.0], [1, -0.0]], None, None),
            (b"1,2,3\n", {}, [[1, 2, 3]], None, None),
            (b"1\n2\n3\n", {}, [[1], [2], [3]], None, None),
        ],
        ids=[
            "plain", "header", "header-rownames", "rownames-tab", "tab", "crlf",
            "blank-lines", "blank-lines-rownames", "padded", "exponents",
            "negative-zero", "one-row", "one-column",
        ],
    )
    def test_fast_path_matches_scan(self, tmp_path, monkeypatch, text, kwargs, rows,
                                    names, ids):
        # np.loadtxt reads the expected bits; refused, the row scan finds no faulty
        # cell and builds no matrix, but still names the file
        p = tmp_path / "m.csv"
        p.write_bytes(text)
        ds = load_matrix_csv(p, **kwargs)
        expected = np.array(rows, dtype=float)
        assert ds.matrix.shape == expected.shape
        assert ds.matrix.dtype == expected.dtype
        assert ds.matrix.tobytes() == expected.tobytes()
        m, d = expected.shape
        assert ds.feature_names == (names or [f"g{j}" for j in range(d)])
        assert ds.sample_ids == (ids or [f"s{i}" for i in range(m)])

        def refuse(*args, **kwargs):
            raise ValueError("loadtxt refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(ValueError, match=re.escape(f"{p}: np.loadtxt cannot read")):
            load_matrix_csv(p, **kwargs)

    def test_multi_character_delimiter_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1::2\n3::4\n")
        with pytest.raises(ValueError, match="delimiter must be one character, got '::'"):
            load_matrix_csv(p, delimiter="::")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3,#4\n", "non-numeric value '#4' at row 2, column 2"),
            # Python's float reads "4_0" as 40 and an Arabic-Indic four as 4
            ("1,2\n3,4_0\n", "non-numeric value '4_0' at row 2, column 2"),
            ("1,2\n3,\u0664\n", "non-numeric value '\u0664' at row 2, column 2"),
            ("1,1e500\n3,4\n", "non-finite value at row 1, column 2"),
            ("1,2\nnan,4\n", "non-finite value at row 2, column 1"),
        ],
    )
    def test_bad_cells_keep_positional_errors(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text, encoding="utf-8")
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

    def test_rownames_without_data_name_first_row(self, tmp_path):
        # np.loadtxt sees no data at all here; no warning may escape
        p = tmp_path / "m.csv"
        p.write_text("s0\ns1\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: row 1 has no data columns")):
            load_matrix_csv(p, has_rownames=True)


def _rows(n, width=2, start=0):
    return "".join(",".join(str(start + i + j) for j in range(width)) + "\n" for i in range(n))


def _load_error(path, **kwargs):
    with pytest.raises(ValueError) as info:
        load_matrix_csv(path, **kwargs)
    return str(info.value)


class TestSplitLoad:
    @pytest.mark.parametrize(
        "text, kwargs, children",
        [
            ("\tg0\tg1\n" + "".join(f"r{i}\t{i}\t{i + 1}\n" for i in range(20)),
             {"has_header": True, "has_rownames": True}, 1),
            ("a,b\r\n" + _rows(20).replace("\n", "\r\n"), {"has_header": True}, 1),
            (_rows(6) + "\n  \n\t\n" * 10 + _rows(6, start=50), {}, 1),
            (_rows(4) + "\n" * 60, {}, 1),  # the second block is blank lines only
            ("1,2\n" * 4 + "1.000000000,2.0\n", {}, 1),  # the cut lands on the last line
            ("1,2\n" * 3 + "1.000000000000000000000000,2.0\n", {}, 0),  # inside it
            ("1,2\n" * 4 + "1.000000000,2.0", {}, 1),  # a last line without newline
            (",\u00e9t\u00e9,\u4e2d\n"
             + "".join(f"\u00e9\u4e2d{i},{i},1\n" for i in range(20)),
             {"has_header": True, "has_rownames": True}, 1),
            # the blocks start past the header, at its offset in bytes as written
            ("\n" * 40 + "a,b\n" + _rows(6), {"has_header": True}, 1),
            (("\n" * 20 + "a,b\n" + _rows(6)).replace("\n", "\r\n"), {"has_header": True}, 1),
            (",".join(f"\u00e9\u4e2d{j}" for j in range(12)) + "\n" + _rows(3, width=12),
             {"has_header": True}, 1),  # the header is over half the file's bytes
            # rows longer than the 8 KiB text read chunk, named in 2- and 3-byte
            # characters, so the byte offsets run across chunks and differ from
            # character counts
            (("," + _rows(1, width=2000)
              + "".join(f"{c}{i}," + _rows(1, width=2000, start=i)
                        for i, c in enumerate("\u00e9\u4e2d" * 6))).replace("\n", "\r\n"),
             {"has_header": True, "has_rownames": True}, 1),
        ],
        ids=["tab-header-rownames", "crlf", "blank-lines-at-cut", "blank-second-block",
             "cut-at-last-line", "cut-inside-last-line", "no-final-newline", "non-ascii",
             "blank-lines-before-header", "crlf-blank-lines-before-header",
             "non-ascii-long-header", "crlf-long-rows-multibyte-names"],
    )
    def test_same_as_one_block(self, tmp_path, split_blocks, text, kwargs, children):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode())
        one = load_matrix_csv(p, **kwargs)
        two = load_matrix_csv(p, n_jobs=2, **kwargs)
        assert split_blocks == [0, children]
        three = load_matrix_csv(p, n_jobs=3, **kwargs)
        for split in (two, three):
            assert split.matrix.shape == one.matrix.shape
            assert split.matrix.tobytes() == one.matrix.tobytes()
            assert split.matrix.flags.c_contiguous
            assert (split.feature_names, split.sample_ids) == (one.feature_names,
                                                                one.sample_ids)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_cuts_are_first_line_starts(self, n):
        # oracle: the first line start at or after each even share of the bytes
        texts = (b"a,b\r\n" + b"1,2\r\n" * 20, b"1,2\n" * 3 + b"1.5," + b"7" * 40 + b"\n",
                 b"\n" * 9 + b"1,2", b"1,2\r3,4\r" * 5, "\u00e9,1\n".encode() * 7)
        for text in texts:
            size = len(text)
            starts = [0] + [k + 1 for k in range(size - 1) if text[k:k + 1] == b"\n"]
            want = {0, size}
            for i in range(1, n):
                later = [s for s in starts if s >= size * i // n]
                if later:
                    want.add(later[0])
            assert dataio._line_cuts(io.BytesIO(text), size, n) == sorted(want)

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_carriage_returns_alone_stay_in_one_block(self, tmp_path, split_blocks, n_jobs):
        p = tmp_path / "m.csv"
        p.write_bytes(_rows(30).replace("\n", "\r").encode())
        ds = load_matrix_csv(p, n_jobs=n_jobs)
        assert split_blocks == [0]
        assert ds.matrix.tobytes() == load_matrix_csv(p).matrix.tobytes()
        assert ds.matrix.shape == (30, 2)

    def test_header_past_the_cut_reads_the_file_whole(self, tmp_path, split_blocks):
        p = tmp_path / "m.csv"
        header = ",".join(f"long_gene_name_{j}" for j in range(40))
        p.write_text(header + "\n" + _rows(3, width=40))
        ds = load_matrix_csv(p, has_header=True, n_jobs=2)
        # the first block held only the header, so it is empty, and one child
        # parses every data row
        assert split_blocks == [1]
        assert ds.matrix.shape == (3, 40)
        assert ds.matrix.tobytes() == load_matrix_csv(p, has_header=True).matrix.tobytes()

    def test_blocks_of_different_widths_are_ragged(self, tmp_path, split_blocks):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n" * 10 + "11,22\n" * 10)  # the cut: row 11's start
        message = f"{p}: row 11 has 2 columns, expected 3"
        assert _load_error(p) == message
        assert _load_error(p, n_jobs=2) == message
        assert split_blocks == [0, 1]

    @pytest.mark.parametrize(
        "fault, kwargs, message",
        [
            ("15,oops", {}, "non-numeric value 'oops' at row 16, column 2"),
            ("15,16,17", {}, "row 16 has 3 columns, expected 2"),
            ("15,nan", {}, "non-finite value at row 16, column 2"),
            ("inf,16", {}, "non-finite value at row 16, column 1"),
            ("1e999,16", {}, "non-finite value at row 16, column 1"),
            ("r15", {"has_rownames": True}, "row 16 has 0 columns, expected 1"),
            ("15,1_6", {}, "non-numeric value '1_6' at row 16, column 2"),
        ],
        ids=["non-numeric", "ragged", "nan", "inf", "overflow", "rowname-only",
             "underscore-digits"],
    )
    def test_fault_in_second_block_same_message(self, tmp_path, split_blocks, fault,
                                                kwargs, message):
        lines = _rows(20).splitlines()
        if kwargs:
            lines = [f"r{i},{i}" for i in range(20)]
        lines[15] = fault
        p = tmp_path / "m.csv"
        p.write_text("\n".join(lines) + "\n")
        assert _load_error(p, **kwargs) == f"{p}: {message}"
        assert _load_error(p, n_jobs=2, **kwargs) == f"{p}: {message}"
        assert split_blocks == [0, 1]

    def test_dead_child_is_an_error(self, tmp_path, split_blocks, monkeypatch):
        parent, parse_block = os.getpid(), dataio._parse_block

        def die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse_block(*args)

        monkeypatch.setattr(dataio, "_parse_block", die)
        p = tmp_path / "m.csv"
        p.write_text(_rows(20))
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            load_matrix_csv(p, n_jobs=2)
        assert kill_children() == []

    def test_child_dead_mid_payload_is_an_error(self, tmp_path, split_blocks, monkeypatch):
        monkeypatch.setattr(core, "_child", _die_mid_message)
        p = tmp_path / "m.csv"
        p.write_text(_rows(200))
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            load_matrix_csv(p, n_jobs=2)
        assert split_blocks == [1]
        assert kill_children() == []


class TestSplitWrite:
    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("rownames", [True, False])
    def test_same_bytes(self, tmp_path, split_blocks, header, rownames):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4))
        ds = Dataset(X, ["a", "b", "\u00e9", "d"], [f"\u4e2d{i}" for i in range(7)])
        written = []
        for n_jobs in (1, 2, 3):
            p = tmp_path / f"out{n_jobs}.csv"
            write_matrix_csv(p, ds, header=header, rownames=rownames, n_jobs=n_jobs)
            written.append(p.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]
        assert split_blocks == [0, 1, 2]
        back = load_matrix_csv(tmp_path / "out3.csv", has_header=header,
                               has_rownames=rownames, n_jobs=2)
        assert back.matrix.tobytes() == X.tobytes()

    def test_more_jobs_than_rows(self, tmp_path, split_blocks):
        ds = Dataset(np.arange(6.0).reshape(2, 3), ["a", "b", "c"], ["s0", "s1"])
        write_matrix_csv(tmp_path / "one.csv", ds, n_jobs=1)
        write_matrix_csv(tmp_path / "many.csv", ds, n_jobs=5)
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert split_blocks == [0, 1]  # one row a block

    def test_error_in_second_block_same_message(self, tmp_path, split_blocks):
        ds = Dataset(np.zeros((4, 2)), ["a", "b"], ["s0", "s1", "s2", "s3"])
        ds.sample_ids[3] = 3  # not a string
        raised = []
        for n_jobs in (1, 2):
            with pytest.raises(TypeError) as info:
                write_matrix_csv(tmp_path / "out.csv", ds, n_jobs=n_jobs)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("halfway", [False, True])
    def test_dead_child_leaves_no_file(self, tmp_path, split_blocks, monkeypatch, halfway):
        parent, format_rows = os.getpid(), dataio._format_rows

        def die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return format_rows(*args)

        if halfway:
            monkeypatch.setattr(core, "_child", _die_mid_message)
        else:
            monkeypatch.setattr(dataio, "_format_rows", die)
        ds = generate_synthetic(SyntheticSpec(m=40, d=30, k=2, n_informative=3))
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            write_matrix_csv(tmp_path / "out.csv", ds, n_jobs=2)
        assert not any(tmp_path.iterdir())
        assert kill_children() == []


def _split_in_this_process(path):
    """Load and write with ``n_jobs=2``; the children forked, and the outputs."""
    forked = []
    original = dataio._forked

    def spy(work, blocks):
        forked.append(len(blocks) - 1)
        return original(work, blocks)

    dataio._forked = spy
    try:
        ds = load_matrix_csv(path, n_jobs=2)
        write_matrix_csv(f"{path}.out", ds, n_jobs=2)
    finally:
        dataio._forked = original
    with open(f"{path}.out", "rb") as fh:
        return forked, ds.matrix.tobytes(), fh.read()


def test_split_forks_in_a_daemonic_process(tmp_path, monkeypatch):
    # a pool worker is daemonic, which multiprocessing forbids to have
    # children; a fork of ksparse's own splits the work there too
    monkeypatch.setattr(dataio, "_SPLIT_BLOCK_BYTES", 1)
    p = tmp_path / "m.csv"
    p.write_text(_rows(20))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(_split_in_this_process, (str(p),))
    here = _split_in_this_process(str(p))
    assert inside[0] == here[0] == [1, 1]
    assert inside[1:] == here[1:]


class TestAtomicFiles:
    def test_directory_made_meanwhile_replaces_nothing(self, tmp_path):
        # the group checks its targets again before its first rename
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old")
        with pytest.raises(IsADirectoryError, match=re.escape(str(b))):
            with dataio._atomic_file(a, b) as (fa, fb):
                fa.write(b"new")
                fb.write(b"new")
                b.mkdir()
        assert a.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_failure_removes_every_staging_file(self, tmp_path):
        a = tmp_path / "a"
        a.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with dataio._atomic_file(a, tmp_path / "b") as files:
                for fh in files:
                    fh.write(b"new")
                raise RuntimeError
        assert a.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a"]


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

    # Python's int reads "1_0" as 10 and an Arabic-Indic one as 1
    @pytest.mark.parametrize("label", ["1_0", "\u0661"])
    def test_digit_separator_or_non_ascii_digit_rejected(self, tmp_path, label):
        p = tmp_path / "labels.txt"
        p.write_text(f"0\n{label}\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=re.escape(f"{p}: line 2: expected an integer label, got '{label}'")
        ):
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

    @pytest.mark.parametrize("min_count", [np.nan, np.inf, -np.inf])
    def test_non_finite_min_count_rejected(self, min_count):
        with pytest.raises(ValueError, match="min_count must be finite"):
            filter_low_expressed(np.ones((4, 3)), min_count, 1)

    def test_negative_min_cells_rejected(self):
        with pytest.raises(ValueError, match="min_cells must be nonnegative, got -3"):
            filter_low_expressed(np.ones((4, 3)), 1.0, -3)


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
