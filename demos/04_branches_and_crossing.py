#!/usr/bin/env python3
"""The two branches of the Stieltjes transform and the crossing phenomenon.

The principal branch has a cut along the spectral support; the secondary
branch continues through it, which is what the characteristic solver needs,
because every label curve descends through the support cut in finite time.
"""

import numpy as np

import freedec as fd

law = fd.marchenko_pastur_law(1 / 50)
ev = fd.LawEvaluator(law)
lo, hi = law.support
x_mid = 0.5 * (lo + hi)

print("branch values just above/below the cut at the support midpoint:")
for eta in (1e-3, 1e-6):
    up = fd.law_stieltjes(law, x_mid + 1j * eta, "secondary")
    dn = fd.law_stieltjes(law, x_mid - 1j * eta, "secondary")
    pr = fd.law_stieltjes(law, x_mid - 1j * eta, "principal")
    print(f"  eta={eta:.0e}: secondary jump {abs(up - dn):.2e}, "
          f"principal jump {abs(up - pr):.2e}")
print("the secondary branch is continuous through the cut; the principal one is not")

# labels z0 = phi(t, z) descend and cross the axis inside the support
print("\ncrossing times for labels starting above the support:")
for height in (0.05, 0.2, 0.8):
    z = complex(x_mid, height)
    report = fd.verify_crossing(ev, z, t_max=12.0)
    print(f"  z = {z:.3f}: t* = {report.t_star:.4f}, crossing at "
          f"x = {report.crossing_point:.4f}, inside support: {report.inside_support}")

# decompressed support grows with the ratio
for ratio in (2.0, 8.0, 32.0):
    sup = fd.track_support(ev, np.log(ratio))
    target = fd.marchenko_pastur_law(ratio / 50).support
    print(f"ratio {ratio:4.0f}: tracked support ({sup[0]:8.4f}, {sup[1]:8.4f})   "
          f"analytic ({target[0]:8.4f}, {target[1]:8.4f})")
