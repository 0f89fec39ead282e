"""Seeded input for the counts-tall workload.

Everything here is the benchmark's own code: the program under test only
ever sees the files these functions produce.  The paper-size planted data
comes from the program itself (`ksparse synth`, `generate_synthetic`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# tall count matrix
COUNTS_CELLS, COUNTS_GENES, COUNTS_K = 4000, 400, 6
COUNTS_LOW_SHARE, COUNTS_LOW_RATE = 0.3, 0.2
COUNTS_RATE_RANGE = (1.0, 3.0)
COUNTS_MARKERS_PER_CLUSTER, COUNTS_MARKER_BOOST = 10, 6.0
# the first marker of each cluster is boosted this much instead, so that the
# program's start on the highest-variance genes sees every cluster
COUNTS_LEAD_BOOST = 12.0
COUNTS_DEPTH_RANGE = (0.8, 1.25)
COUNTS_FILTER_MIN_COUNT, COUNTS_FILTER_MIN_CELLS = 2, 400


@dataclass
class Counts:
    """A Poisson count matrix with its planted structure."""

    matrix: np.ndarray  # cells x genes, integer counts
    labels: np.ndarray  # planted cluster per cell
    markers: np.ndarray  # markers[c] = gene indices boosted in cluster c

    @property
    def gene_names(self) -> list[str]:
        return [f"gene{j}" for j in range(self.matrix.shape[1])]

    @property
    def cell_ids(self) -> list[str]:
        return [f"cell{i}" for i in range(self.matrix.shape[0])]


def make_counts(seed: int) -> Counts:
    """Cells x genes Poisson counts with balanced, shuffled planted clusters.

    The background is deliberately mild (a fixed low rate or a uniform
    rate per gene): with a heavy-tailed background the top-variance start
    of k-means locks onto noise genes instead of markers.
    """
    rng = np.random.default_rng(seed)
    m, g, k = COUNTS_CELLS, COUNTS_GENES, COUNTS_K
    labels = rng.permutation(np.arange(m) % k)
    rates = rng.uniform(*COUNTS_RATE_RANGE, size=g)
    low = rng.choice(g, size=int(round(COUNTS_LOW_SHARE * g)), replace=False)
    rates[low] = COUNTS_LOW_RATE
    markers = rng.choice(g, size=(k, COUNTS_MARKERS_PER_CLUSTER), replace=False)
    lam = np.tile(rates, (m, 1))
    for c in range(k):
        cells = labels == c
        lam[np.ix_(cells, markers[c, 1:])] += COUNTS_MARKER_BOOST
        lam[cells, markers[c, 0]] += COUNTS_LEAD_BOOST
    depth = rng.uniform(*COUNTS_DEPTH_RANGE, size=m)
    counts = rng.poisson(lam * depth[:, None])
    return Counts(counts, labels, markers)


def write_counts_csv(path, counts: Counts) -> None:
    """Comma-separated integers with a gene header row and a cell-id column."""
    rows = [",".join([""] + counts.gene_names)]
    for cell, row in zip(counts.cell_ids, counts.matrix):
        rows.append(cell + "," + ",".join(map(str, row.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def kept_genes(matrix: np.ndarray) -> np.ndarray:
    """The benchmark's own statement of the CLI's expression filter."""
    reached = (matrix >= COUNTS_FILTER_MIN_COUNT).sum(axis=0)
    return np.flatnonzero(reached >= COUNTS_FILTER_MIN_CELLS)
