"""Dataset ingestion, count-matrix preprocessing, synthetic data, and result files.

File formats:
  * matrix: delimited text (comma or tab, auto-detected), rows are samples,
    optional header row of feature names and leading rowname column;
  * labels: one integer per line;
  * result: a JSON document with labels per sample id, selected feature
    names, the l1 budget, the objective trace, and metrics when available.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import check_data_matrix, check_labels, spectral_norm

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


def _detect_delimiter(first_line: str) -> str:
    return "\t" if "\t" in first_line else ","


def load_matrix_csv(
    path,
    has_header: bool = False,
    has_rownames: bool = False,
    delimiter: str | None = None,
) -> Dataset:
    """Load a delimited numeric matrix (rows = samples, columns = features).

    The delimiter is auto-detected between comma and tab unless given.
    Ragged rows, non-numeric cells, NaN/Inf, and empty files raise with the
    offending 1-based row/column position; rows are numbered by file line,
    blank lines and the header included.
    """
    try:
        X, feature_names, sample_ids = _parse_loadtxt(
            path, has_header, has_rownames, delimiter
        )
    except ValueError:
        # the scan accepts the same files; on a bad one it names the cell
        X, feature_names, sample_ids = _parse_scan(
            path, has_header, has_rownames, delimiter
        )
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


def _parse_loadtxt(path, has_header, has_rownames, delimiter):
    """Fast path of :func:`load_matrix_csv`: ``np.loadtxt`` on the data lines.

    Returns ``(X, feature_names or None, sample_ids or None)``.  Raises
    ValueError on any file it cannot parse exactly as the scan would.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln for ln in fh if not ln.isspace())  # the scan skips these too
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        if delimiter is None:
            delimiter = _detect_delimiter(first)
        if len(delimiter) != 1:
            raise ValueError("np.loadtxt takes a one-character delimiter")
        feature_names = None
        if has_header:
            header = first.rstrip("\n").rstrip("\r").split(delimiter)
            if has_rownames:
                header = header[1:]
            feature_names = [h.strip() for h in header]
            first = next(lines, None)
            if first is None:
                raise ValueError(f"{path}: no data rows after header")
        rows = itertools.chain([first], lines)
        sample_ids = None
        if has_rownames:
            sample_ids = []
            rows = _split_rownames(rows, delimiter, sample_ids)
        X = np.loadtxt(rows, dtype=float, delimiter=delimiter, comments=None, ndmin=2)
    # a row that is only a rowname reaches loadtxt empty and is skipped there
    if sample_ids is not None and len(sample_ids) != X.shape[0]:
        raise ValueError(f"{path}: a row has no data columns")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: non-finite value")
    return X, feature_names, sample_ids


def _split_rownames(rows, delimiter, sample_ids):
    for row in rows:
        name, _, rest = row.partition(delimiter)
        sample_ids.append(name.strip())
        yield rest


def _parse_scan(path, has_header, has_rownames, delimiter):
    """Row-by-row parse of :func:`load_matrix_csv` with positional errors."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n").rstrip("\r")) for n, ln in enumerate(fh, start=1)]
    lines = [(n, ln) for n, ln in lines if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty file")
    if delimiter is None:
        delimiter = _detect_delimiter(lines[0][1])

    feature_names: list[str] | None = None
    body_start = 0
    if has_header:
        header = lines[0][1].split(delimiter)
        if has_rownames:
            header = header[1:]
        feature_names = [h.strip() for h in header]
        body_start = 1
    if body_start >= len(lines):
        raise ValueError(f"{path}: no data rows after header")

    sample_ids: list[str] = []
    rows: list[list[float]] = []
    width = None
    for lineno, line in lines[body_start:]:
        cells = line.split(delimiter)
        if has_rownames:
            sample_ids.append(cells[0].strip())
            cells = cells[1:]
        if width is None:
            width = len(cells)
            if width == 0:
                raise ValueError(f"{path}: row {lineno} has no data columns")
        elif len(cells) != width:
            raise ValueError(
                f"{path}: row {lineno} has {len(cells)} columns, expected {width}"
            )
        parsed = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {lineno}, "
                    f"column {col + 1}"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite value at row {lineno}, column {col + 1}"
                )
            parsed.append(value)
        rows.append(parsed)

    X = np.asarray(rows, dtype=float)
    return X, feature_names, (sample_ids if has_rownames else None)


def load_labels(path) -> np.ndarray:
    """Read one integer cluster index per line."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
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
    _atomic_write(path, "".join(f"{int(v)}\n" for v in labels))


def write_matrix_csv(path, dataset: Dataset, header: bool = True, rownames: bool = True) -> None:
    """Write a dataset matrix as comma-separated text with full float precision."""
    X = np.asarray(dataset.matrix, dtype=float)
    out = []
    if header:
        head = ",".join(dataset.feature_names)
        if rownames:
            head = "," + head  # empty corner cell above the rowname column
        out.append(head)
    for i in range(X.shape[0]):
        cells = list(map(repr, X[i].tolist()))
        if rownames:
            cells.insert(0, dataset.sample_ids[i])
        out.append(",".join(cells))
    _atomic_write(path, "\n".join(out) + "\n")


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
    if np.any(X < 0):
        i, j = np.argwhere(X < 0)[0]
        raise ValueError(f"negative count at sample {i}, feature {j}")
    sums = X.sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise ValueError(f"sample {zero[0]} has zero total count")
    return X / sums[:, None] * 1e6


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
    # never leave a partial or stray file behind on failure; a unique name in
    # the target's directory keeps the final rename on one file system
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
