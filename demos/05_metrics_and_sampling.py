#!/usr/bin/env python3
"""Density metrics and quasi-Monte-Carlo sampling from fitted densities."""

import numpy as np

import freedec as fd

law_a = fd.marchenko_pastur_law(0.5)
law_b = fd.marchenko_pastur_law(0.64)

grid = np.linspace(0.0, 3.5, 4096)
rho_a = fd.law_density(law_a, grid)
rho_b = fd.law_density(law_b, grid)

report = fd.compare_densities(grid[1:], rho_a[1:], rho_b[1:], order=1000)
print("MP(0.50) vs MP(0.64):")
print(report.to_table())

# quasi-Monte-Carlo draws reproduce the distribution function closely
pts = fd.qmc_sample(grid, rho_a, 1000)
ecdf = (np.arange(pts.size) + 1) / pts.size
ks = np.max(np.abs(fd.law_cdf(law_a, pts) - ecdf))
print(f"\nQMC sample of 1000 eigenvalues: KS distance to the law {ks:.5f}")
print(f"single QMC draw is the median: {fd.qmc_sample(grid, rho_a, 1)[0]:.4f} "
      f"(law median {np.interp(0.5, fd.law_cdf(law_a, grid), grid):.4f})")

# histogram-based empirical variants cross-check the grid versions
sample_a = fd.qmc_sample(grid, rho_a, 20000)
sample_b = fd.qmc_sample(grid, rho_b, 20000)
print(f"\nTV  grid/empirical: {fd.total_variation(grid[1:], rho_a[1:], rho_b[1:]):.4f} / "
      f"{fd.total_variation_samples(sample_a, sample_b):.4f}")
print(f"JS  grid/empirical: {fd.jensen_shannon(grid[1:], rho_a[1:], rho_b[1:]):.4f} / "
      f"{fd.jensen_shannon_samples(sample_a, sample_b):.4f}")

# log-determinant of a 1000-dimensional matrix following MP(0.5)
mask = grid > 0.01
print(f"\nlog-determinant at n=1000 under MP(0.5): "
      f"{fd.log_determinant(grid[mask], rho_a[mask], 1000):.2f}")
