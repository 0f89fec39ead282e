"""Single-cell style preprocessing: filter, counts-per-million, spectral scaling.

Builds a mock UMI count matrix (cells x genes), drops lowly expressed
genes, normalizes library sizes to one million, and scales by the spectral
norm, after which the step k_sparse measures, 1/sigma_max^2, is 1.
"""

import numpy as np

from ksparse import cpm_normalize, filter_low_expressed, scale_by_spectral_norm, spectral_norm

rng = np.random.default_rng(7)
n_cells, n_genes = 200, 500
rates = rng.choice([0.2, 2.0, 10.0], size=n_genes, p=[0.5, 0.3, 0.2])
counts = rng.poisson(rates, size=(n_cells, n_genes)).astype(float)
print(f"raw counts: {n_cells} cells x {n_genes} genes, "
      f"median library size {np.median(counts.sum(axis=1)):.0f}\n")

filtered, kept = filter_low_expressed(counts, min_count=2.0, min_cells=150)
print(f"filter (>=2 counts in >=150 cells): kept {kept.size} genes")

cpm = cpm_normalize(filtered)
print(f"CPM: every library size now {cpm.sum(axis=1).min():.0f}..{cpm.sum(axis=1).max():.0f}")

scaled, sigma = scale_by_spectral_norm(cpm)
print(f"spectral scaling: sigma_max was {sigma:.1f}, now {spectral_norm(scaled):.6f}")
print("\nthe scaled matrix feeds k_sparse directly (cfg.normalize=False, step 1/sigma_max^2 = 1)")
