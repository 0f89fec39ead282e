"""Dataset ingestion, count-matrix preprocessing, synthetic data, and result files.

File formats:
  * matrix: delimited text (one-character delimiter, comma or tab
    auto-detected), rows are samples, optional header row of feature names
    and leading rowname column;
  * labels: one integer per line;
  * result: a JSON document with labels per sample id, selected feature
    names, the l1 budget, the objective trace, and metrics when available.
"""

from __future__ import annotations

import contextlib
import errno
import io
import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import _forked, _split, check_data_matrix, check_labels, spectral_norm

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "ResultDocument",
    "load_matrix_csv",
    "load_labels",
    "save_labels",
    "write_matrix_csv",
    "filter_low_expressed",
    "cpm_normalize",
    "scale_by_spectral_norm",
    "generate_synthetic",
    "write_result",
    "read_result",
]

RESULT_FORMAT = "ksparse-result"
RESULT_VERSION = 1


@dataclass
class Dataset:
    """A sample matrix plus naming metadata and optional ground truth."""

    matrix: np.ndarray
    feature_names: list[str]
    sample_ids: list[str]
    labels_true: np.ndarray | None = None
    informative_features: np.ndarray | None = None

    def __post_init__(self):
        m, d = self.matrix.shape
        if len(self.feature_names) != d:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {d} features"
            )
        if len(self.sample_ids) != m:
            raise ValueError(f"{len(self.sample_ids)} sample ids for {m} samples")
        if self.labels_true is not None and len(self.labels_true) != m:
            raise ValueError(
                f"labels_true has {len(self.labels_true)} entries for {m} samples"
            )


@dataclass
class SyntheticSpec:
    """Parameters of the built-in Gaussian cluster generator.

    ``n_informative`` features carry cluster structure: cluster ``c`` has
    mean ``c * shift`` on each of them.  All features share the same noise
    standard deviation.  Cluster sizes differ by at most one.
    """

    m: int = 600
    d: int = 5000
    k: int = 4
    n_informative: int = 100
    shift: float = 2.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 2 or self.d < 1:
            raise ValueError(f"invalid dataset shape m={self.m}, d={self.d}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"k={self.k} must be in [1, m={self.m}]")
        if not 0 <= self.n_informative <= self.d:
            raise ValueError(
                f"n_informative={self.n_informative} must be in [0, d={self.d}]"
            )
        if self.shift <= 0:
            raise ValueError("shift must be positive")
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be positive")


@dataclass
class ResultDocument:
    """Deserialized clustering result file."""

    eta: float
    k: int
    sample_ids: list[str]
    labels: np.ndarray
    selected_features: list[str]
    objective_trace: np.ndarray
    metrics: dict | None = None


def load_matrix_csv(
    path,
    has_header: bool = False,
    has_rownames: bool = False,
    delimiter: str | None = None,
    n_jobs: int = 1,
) -> Dataset:
    """Load a delimited numeric matrix (rows = samples, columns = features).

    The delimiter is one character, auto-detected between comma and tab
    unless given.  ``np.loadtxt`` parses every value.  Ragged rows,
    non-numeric cells, NaN/Inf, rows without data and empty files raise
    with the offending 1-based row/column position; rows are numbered by
    file line, blank lines and the header included.  The delimiter, the
    header and the first data row are read once, before the file is cut,
    and the blocks start at that row.  With ``n_jobs`` above 1, a large file
    is parsed in up to that many blocks of whole lines, all but the first in
    forked processes; one function parses every block.  The matrix, the
    names and every error are the same as with ``n_jobs=1``.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    # newline="" keeps the line ends as written, so the lines' bytes add up to
    # the offset of the first data row; blocks start there
    with open(path, "r", encoding="utf-8", newline="") as fh:
        delimiter, feature_names, rows = _matrix_lines(
            path, fh, has_header, has_rownames, delimiter
        )
        first_row = next(rows)[0]
        fh.seek(0)
        start = sum(len(line.encode()) for line in itertools.islice(fh, first_row - 1))
    with open(path, "rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        n = _split(n_jobs, size // _SPLIT_BLOCK_BYTES)
        cuts = [max(cut, start) for cut in _line_cuts(raw, size, n)]
    blocks = [(path, a, b, has_rownames, delimiter) for a, b in zip(cuts, cuts[1:])]
    X, sample_ids = None, [] if has_rownames else None
    with _forked(_parse_block, blocks) as parts:
        try:
            for part, ids in parts:
                if len(part):  # the first part with rows starts the matrix
                    X = part if X is None else _append_rows(X, part)
                del part  # each part is freed as it lands
                if has_rownames:
                    sample_ids += ids
        except ValueError:
            X = None
    if X is None or not np.all(np.isfinite(X)):
        _locate_error(path, has_header, has_rownames, delimiter)
    m, d = X.shape
    if feature_names is not None and len(feature_names) != d:
        raise ValueError(
            f"{path}: header names {len(feature_names)} columns but rows have {d}"
        )
    if feature_names is None:
        feature_names = [f"g{j}" for j in range(d)]
    if sample_ids is None:
        sample_ids = [f"s{i}" for i in range(m)]
    return Dataset(X, feature_names, sample_ids)


def _append_rows(X, part):
    """``X`` with the rows of ``part`` below, grown in place; ``X`` must not be shared.

    Growing reallocates ``X``'s own buffer, which the allocator can extend
    without a copy, so the join holds ``X``, ``part`` and no third matrix.
    Raises ValueError when the widths differ: the blocks are ragged.
    """
    if part.shape[1] != X.shape[1]:
        raise ValueError("blocks of different widths")
    if not X.flags.owndata:  # resize grows only a buffer of its own
        X = X.copy()
    m = len(X)
    X.resize((m + len(part), X.shape[1]), refcheck=False)
    X[m:] = part
    return X


def _parse_block(path, start, stop, has_rownames, delimiter):
    """Bytes ``start:stop`` of the file, whole lines: ``(matrix, rownames or None)``.

    Blank lines add no row, and a block of blank lines alone is a 0 x 0
    matrix.  Raises ValueError where ``np.loadtxt`` refuses a line, or where
    a line holds a rowname alone.
    """
    sample_ids = [] if has_rownames else None
    with open(path, "rb", buffering=0) as raw, _text_block(raw, start, stop) as fh:
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:  # np.loadtxt warns on no data
            return np.empty((0, 0)), sample_ids

        def values():
            for line in itertools.chain([first], lines):
                if has_rownames:
                    name, _, line = line.partition(delimiter)
                    if not line or line.isspace():
                        raise ValueError  # a rowname alone; the locator names the row
                    sample_ids.append(name.strip())
                yield line

        X = np.loadtxt(values(), dtype=float, delimiter=delimiter, comments=None, ndmin=2)
    return X, sample_ids


def _matrix_lines(path, fh, has_header, has_rownames, delimiter):
    """Front end of :func:`load_matrix_csv` and of its error locator.

    Returns ``(delimiter, feature names or None, data lines)``; the data
    lines are ``(file line number, line)`` for every non-blank line after
    the header.
    """
    lines = ((n, ln) for n, ln in enumerate(fh, start=1) if not ln.isspace())
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty file")
    if delimiter is None:
        delimiter = "\t" if "\t" in first[1] else ","
    feature_names = None
    if has_header:
        header = first[1].rstrip("\n").split(delimiter)
        feature_names = [h.strip() for h in header[1 if has_rownames else 0:]]
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows after header")
    return delimiter, feature_names, itertools.chain([first], lines)


def _locate_error(path, has_header, has_rownames, delimiter):
    """Raise the first fault, in file order, of a matrix np.loadtxt refused."""
    with open(path, "r", encoding="utf-8") as fh:
        _, _, rows = _matrix_lines(path, fh, has_header, has_rownames, delimiter)
        width = None
        for lineno, line in rows:
            cells = line.rstrip("\n").split(delimiter)[1 if has_rownames else 0:]
            if width is None:
                width = len(cells)
                if width == 0:
                    raise ValueError(f"{path}: row {lineno} has no data columns")
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: row {lineno} has {len(cells)} columns, expected {width}"
                )
            for col, cell in enumerate(cells, start=1):
                try:
                    # float also reads digit separators ("4_0" is 40) and non-ASCII
                    # digits; loadtxt reads neither
                    if "_" in cell or not cell.strip().isascii():
                        raise ValueError
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell.strip()!r} at row {lineno}, "
                        f"column {col}"
                    ) from None
                if not np.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite value at row {lineno}, column {col}"
                    )
    raise ValueError(f"{path}: np.loadtxt cannot read this matrix")


def load_labels(path) -> np.ndarray:
    """Read one integer cluster index per line."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                # int also reads digit separators ("1_0" is 10) and non-ASCII digits
                if "_" in text or not text.isascii():
                    raise ValueError
                label = int(text)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected an integer label, got {text!r}"
                ) from None
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: negative cluster index {label}")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: empty labels file")
    return check_labels(np.asarray(labels))


def save_labels(path, labels: np.ndarray) -> None:
    _atomic_write(path, _integer_lines(labels))


def _integer_lines(values) -> str:
    """One integer per line, the labels file format."""
    return "".join(f"{int(v)}\n" for v in values)


def write_matrix_csv(
    path, dataset: Dataset, header: bool = True, rownames: bool = True, n_jobs: int = 1
) -> None:
    """Write a dataset matrix as comma-separated text with full float precision.

    Each value is written as its ``repr``.  With ``n_jobs`` above 1, a large
    matrix is formatted in up to that many blocks of rows, all but the
    first in forked processes; the bytes written are the same.
    """
    with _atomic_file(path) as (fh,):
        _write_matrix(fh, dataset, header, rownames, n_jobs)


def _write_matrix(fh, dataset: Dataset, header: bool, rownames: bool, n_jobs: int) -> None:
    """The CSV text of :func:`write_matrix_csv`, written to the binary file ``fh``."""
    X = np.asarray(dataset.matrix, dtype=float)
    ids = dataset.sample_ids if rownames else None
    m = X.shape[0]
    n = _split(n_jobs, min(m, X.nbytes // _SPLIT_BLOCK_BYTES))
    cuts = [m * i // n for i in range(n + 1)]
    with _forked(_format_rows, [(X, ids, a, b) for a, b in zip(cuts, cuts[1:])]) as parts:
        if header:
            corner = "," if rownames else ""  # empty, above the rowname column
            fh.write((corner + ",".join(dataset.feature_names) + "\n").encode())
        fh.writelines(parts)


def _format_rows(X, ids, start, stop) -> bytes:
    """Rows ``start:stop`` of the CSV text, each line ending in a newline."""
    lines = []
    for i in range(start, stop):
        cells = list(map(repr, X[i].tolist()))
        if ids is not None:
            cells.insert(0, ids[i])
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def filter_low_expressed(X: np.ndarray, min_count: float, min_cells: int):
    """Drop features expressed at >= min_count in fewer than min_cells samples.

    Returns the filtered matrix and the surviving column indices in their
    original order.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains NaN or Inf entries")
    if not np.isfinite(min_count):
        raise ValueError(f"min_count must be finite, got {min_count}")
    if min_cells < 0:
        raise ValueError(f"min_cells must be nonnegative, got {min_cells}")
    if min_cells > X.shape[0]:
        raise ValueError(
            f"min_cells={min_cells} exceeds the number of samples {X.shape[0]}"
        )
    kept = np.flatnonzero(np.sum(X >= min_count, axis=0) >= min_cells)
    if kept.size == 0:
        raise ValueError("filter removed every feature")
    return X[:, kept], kept


def cpm_normalize(X: np.ndarray) -> np.ndarray:
    """Counts-per-million: scale every row to sum to 1e6."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains NaN or Inf entries")
    sums = X.sum(axis=1)
    fault = _count_fault(X, sums, range(X.shape[0]), range(X.shape[1]))
    if fault:
        raise ValueError(fault)
    return X / sums[:, None] * 1e6


def _count_fault(X, sums, sample_ids, feature_names) -> str | None:
    """Why :func:`cpm_normalize` refuses X, naming the first bad sample and feature."""
    if np.any(X < 0):
        i, j = np.argwhere(X < 0)[0]
        return f"negative count at sample {sample_ids[i]}, feature {feature_names[j]}"
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        return f"sample {sample_ids[zero[0]]} has zero total count"
    return None


def scale_by_spectral_norm(X: np.ndarray):
    """Divide X by its largest singular value; returns (scaled matrix, sigma_max)."""
    X = check_data_matrix(X)
    sigma = spectral_norm(X)
    return X / sigma, sigma


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Gaussian clusters with a planted informative feature subset.

    Labels come in contiguous balanced blocks; informative columns are a
    seeded random subset recorded on the returned dataset.  Two calls with
    equal specs produce bitwise-identical data.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = np.full(spec.k, spec.m // spec.k)
    sizes[: spec.m % spec.k] += 1
    labels = np.repeat(np.arange(spec.k), sizes)
    informative = np.sort(rng.choice(spec.d, size=spec.n_informative, replace=False))

    X = rng.standard_normal((spec.m, spec.d)) * spec.noise_sd
    X[:, informative] += labels[:, None] * spec.shift

    return Dataset(
        matrix=X,
        feature_names=[f"g{j}" for j in range(spec.d)],
        sample_ids=[f"s{i}" for i in range(spec.m)],
        labels_true=labels,
        informative_features=informative,
    )


def _atomic_write(path, text: str) -> None:
    with _atomic_file(path) as (fh,):
        fh.write(text.encode())


@contextlib.contextmanager
def _atomic_file(*paths):
    """Binary files that replace ``paths`` together when the ``with`` block succeeds.

    Each is staged under a unique name in its target's directory, keeping its
    rename on one file system.  A directory target is refused on entry and
    before the first rename; any failure removes every staging file, so the
    targets keep what they held and no stray file is left.
    """
    _refuse_directories(paths)
    umask = os.umask(0)
    os.umask(umask)
    staged = {}
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                fd, staged[path] = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
                files.append(stack.enter_context(open(fd, "wb")))
                # mkstemp creates the file 0600; give it the mode open() would
                os.fchmod(fd, 0o666 & ~umask)
            yield files
        _refuse_directories(paths)
        for path in paths:
            os.replace(staged.pop(path), path)
    except BaseException:
        for tmp in staged.values():
            os.unlink(tmp)
        raise


def _refuse_directories(paths) -> None:
    for path in filter(os.path.isdir, paths):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


# CSV work is split over forked processes (core._forked) only from two
# blocks of this size up: of the file, header included, for a load, and of
# the matrix's doubles for a write.  A 4 MiB block of text parses in about
# 0.05 s, and a fork and its pipe, sending the parsed block back, take 5 ms
# (2-core Xeon, paper-size process).  The 3.25 MB counts-tall CSV stays in
# one process; the 59 MB paper-size CSV and its 24 MB matrix split.
_SPLIT_BLOCK_BYTES = 4 << 20


def _line_cuts(raw, size: int, n: int) -> list[int]:
    """Offsets ``[0, ..., size]`` cutting a binary file into about ``n`` blocks.

    Each inner cut is the start of the first line at or after ``size * i // n``.
    Cuts fall only after ``\\n``, so CRLF pairs stay whole, and a file that
    ends its lines with ``\\r`` alone is one block.  Equal cuts are merged.
    """
    cuts = [0]
    for i in range(1, n):
        pos = max(size * i // n, cuts[-1])
        raw.seek(pos - 1)  # from the byte before: a line starting at pos is cut at pos
        while pos < size:
            chunk = raw.read(1 << 16)
            newline = chunk.find(b"\n")
            if newline >= 0:
                pos += newline
                break
            pos = pos + len(chunk) if chunk else size
        if pos >= size:
            break  # no line starts after this cut's target, nor after the next's
        if pos > cuts[-1]:
            cuts.append(pos)
    cuts.append(size)
    return cuts


class _ByteRange(io.RawIOBase):
    """Bytes ``start:stop`` of an open binary file, read as a file of their own."""

    def __init__(self, raw, start: int, stop: int):
        raw.seek(start)
        self._raw, self._left = raw, stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n


def _text_block(raw, start: int, stop: int):
    """Bytes ``start:stop`` of ``raw`` as text, decoded as ``open(path)`` decodes."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(raw, start, stop)),
                            encoding="utf-8")


def write_result(result, dataset: Dataset, path) -> None:
    """Serialize a clustering result as a deterministic JSON document.

    Floats are written with shortest round-trip precision, so the trace
    survives a write/read cycle exactly.
    """
    labels = np.asarray(result.labels)
    if labels.shape[0] != len(dataset.sample_ids):
        raise ValueError(
            f"result has {labels.shape[0]} labels for {len(dataset.sample_ids)} samples"
        )
    doc = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "eta": float(result.eta),
        "k": int(result.k),
        "sample_ids": list(dataset.sample_ids),
        "labels": [int(v) for v in labels],
        "selected_features": [dataset.feature_names[j] for j in result.selected_features],
        "objective_trace": [float(v) for v in result.objective_trace],
        "metrics": (
            {name: float(v) for name, v in sorted(result.metrics.items())}
            if result.metrics is not None
            else None
        ),
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_result(path) -> ResultDocument:
    """Read back a document produced by :func:`write_result`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != RESULT_FORMAT:
        raise ValueError(f"{path}: not a {RESULT_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version != RESULT_VERSION:
        raise ValueError(
            f"{path}: unsupported {RESULT_FORMAT} version {version!r}; "
            f"this reader accepts version {RESULT_VERSION}"
        )
    return ResultDocument(
        eta=float(doc["eta"]),
        k=int(doc["k"]),
        sample_ids=list(doc["sample_ids"]),
        labels=np.asarray(doc["labels"], dtype=int),
        selected_features=list(doc["selected_features"]),
        objective_trace=np.asarray(doc["objective_trace"], dtype=float),
        metrics=doc.get("metrics"),
    )
