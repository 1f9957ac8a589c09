#!/usr/bin/env python3
"""Fit a smooth density model to the spectrum of a sampled submatrix.

Draws a Wishart matrix whose spectrum follows the Marchenko-Pastur law,
samples a principal submatrix, fits the Chebyshev density model, and writes
the fitted density next to the analytic law (``fit.csv``).
"""

import numpy as np

import freedec as fd

n_full, n_sub, dof = 2000, 800, 20000

draw = fd.draw_ensemble("mp", n_full, seed=11, d=dof)
sub = fd.sample_principal_submatrix(draw.matrix, n_sub, seed=12)
sample = fd.eigenvalues_symmetric(sub)
print(f"submatrix {n_sub} of {n_full}: eigenvalues in "
      f"[{sample.eigenvalues[0]:.4f}, {sample.eigenvalues[-1]:.4f}]")

model = fd.fit_density(sample, k_max=50)
print(f"support estimate: ({model.support[0]:.4f}, {model.support[1]:.4f})")
print(f"coefficients kept: {model.meta['k_eff'] + 1} of {model.psi.size}")
print(f"mass: {model.mass():.8f}, repaired: {model.repaired}")

# any principal submatrix of a Wishart matrix is Wishart with the same dof,
# so the submatrix spectrum follows MP with the smaller ratio
law = fd.marchenko_pastur_law(n_sub / dof)
grid = np.linspace(model.support[0], model.support[1], 1024)
fitted = model.density(grid)
exact = fd.law_density(law, grid)
print(f"L1 distance to the analytic law: {np.trapezoid(np.abs(fitted - exact), grid):.4f}")

with open("fit.csv", "w", encoding="utf-8") as fh:
    fh.write("x,fitted,analytic\n")
    for row in zip(grid, fitted, exact):
        fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
print("wrote fit.csv")
