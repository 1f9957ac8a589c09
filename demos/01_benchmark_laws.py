#!/usr/bin/env python3
"""Tour of the closed-form benchmark laws and their transforms.

Evaluates each law's density, Stieltjes transform (both branches), Hilbert
transform and R-transform, checks the defining identities numerically, and
writes the densities to ``laws.csv``.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

import freedec as fd

laws = {
    "wigner(r=2)": fd.wigner_law(2.0),
    "marchenko-pastur(0.5)": fd.marchenko_pastur_law(0.5),
    "kesten-mckay(4)": fd.kesten_mckay_law(4),
    "wachter(2.5, 1.5625)": fd.wachter_law(2.5, 1.5625),
    "meixner(0.1, 4, 0.6)": fd.meixner_law(0.1, 4.0, 0.6),
}

rng = fd.make_rng(1)
print(f"{'law':24s} {'support':28s} {'quad resid':>11s} {'R identity':>11s} {'plemelj':>9s}")
columns = {}
for name, law in laws.items():
    lo, hi = law.support
    # the transform is the Herglotz root of Q m^2 - P m + 1 = 0
    z = rng.uniform(lo, hi, 50) + 1j * rng.uniform(0.1, 2.0, 50) * (hi - lo)
    m = fd.law_stieltjes(law, z)
    quad = np.max(np.abs(
        npoly.polyval(z, law.q) * m * m
        - npoly.polyval(z, law.p) * m + 1.0
    ))
    # R is the other side of the coin: R(-m(w)) - 1/m(w) returns w
    rres = np.max(np.abs(fd.law_r_transform(law, -m) - 1.0 / m - z))
    # boundary values recover the density
    x = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 101)
    plem = np.max(np.abs(fd.law_stieltjes(law, x + 1e-6j).imag / np.pi - fd.law_density(law, x)))
    print(f"{name:24s} [{lo:10.4f}, {hi:10.4f}]  {quad:11.2e} {rres:11.2e} {plem:9.1e}")
    grid = np.linspace(lo, hi, 512)
    columns[name] = (grid, fd.law_density(law, grid))

with open("laws.csv", "w", encoding="utf-8") as fh:
    fh.write("law,x,density\n")
    for name, (grid, dens) in columns.items():
        for xv, dv in zip(grid, dens):
            fh.write(f"{name},{xv:.10g},{dv:.10g}\n")
print("\nwrote laws.csv")

# the Meixner family is closed under decompression: flowing the parameters
# reproduces the scaled R-transform exactly
a, b, c = 0.1, 4.0, 0.6
for alpha in (2.0, 32.0):
    a2, b2, c2 = fd.meixner_decompression_params(a, b, c, alpha)
    print(f"meixner flow x{alpha:g}: (a, b, c) -> ({a2:.4f}, {b2:.4f}, {c2:.4f})")
