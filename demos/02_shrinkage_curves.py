"""Every shrinker on one spectrum.

Fits the shrinkage curve on data from an ill-conditioned covariance and
prints the precision values each method assigns to the smallest, median,
and largest sample eigenvalues.  The inverse 1/lambda explodes on the left
edge; the criterion-optimal curve does not.
"""

import numpy as np

from hdshrink import (
    PriorSpec,
    eigh,
    hotelling_shrinker,
    identity_shrinker,
    lappw_select_b,
    lw_comparator,
    lw_curve,
    make_covariance,
    proposed_shrinker,
    ridge_shrinker,
    sample_covariance,
)
from hdshrink.simulate import substream

p, n, kappa = 200, 300, 1e2
sigma = make_covariance(p, kappa, seed=1)
vals, vecs = np.linalg.eigh(sigma)
root = (vecs * np.sqrt(vals)) @ vecs.T
X = root @ substream(1, "train").uniform(-np.sqrt(3.0), np.sqrt(3.0), (p, n))
spec = eigh(sample_covariance(X))
curve = lw_curve(spec.eigenvalues, n)
prior = PriorSpec("identity")

rows = {
    "proposed": proposed_shrinker(curve, prior).values,
    "lw": lw_comparator(curve).values,
    "lappw": ridge_shrinker(curve.lam, lappw_select_b(curve, prior)).values,
    "hotelling": hotelling_shrinker(curve.lam).values,
    "identity": identity_shrinker(p).values,
}

i_lo, i_mid, i_hi = 0, p // 2, p - 1
print(f"kappa = {kappa:g}; sample eigenvalues "
      f"{curve.lam[i_lo]:.4f} / {curve.lam[i_mid]:.4f} / {curve.lam[i_hi]:.4f}")
print(f"{'method':>10}  {'f(min)':>10}  {'f(median)':>10}  {'f(max)':>10}")
for name, vals in rows.items():
    print(f"{name:>10}  {vals[i_lo]:10.4f}  {vals[i_mid]:10.4f}  {vals[i_hi]:10.4f}")
