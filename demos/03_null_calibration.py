"""Standardized scores under the null are close to standard normal.

Repeatedly fits the criterion-optimal shrinker on fresh reference data and
scores one signal-free test vector per fit.  The standardized scores should
have mean near 0 and variance near 1, so fixed normal thresholds give
predictable false-alarm rates.
"""

from statistics import NormalDist

import numpy as np

from hdshrink import (
    PriorSpec,
    Standardizer,
    eigh,
    lw_curve,
    make_covariance,
    proposed_shrinker,
    sample_covariance,
    srht_many,
)
from hdshrink.simulate import substream

p, n, trials = 150, 450, 200
sigma = make_covariance(p, 100.0, seed=9)
vals, vecs = np.linalg.eigh(sigma)
root = (vecs * np.sqrt(vals)) @ vecs.T
prior = PriorSpec("covariance_matched")

zs = []
for t in range(trials):
    rng = substream(9, "demo", t)
    X = root @ rng.standard_normal((p, n))
    spec = eigh(sample_covariance(X))
    curve = lw_curve(spec.eigenvalues, n)
    shrink = proposed_shrinker(curve, prior)
    y = root @ rng.standard_normal((p, 1))
    t2 = srht_many(y, X.mean(axis=1), spec, shrink.values)[0]
    zs.append(Standardizer(shrink.values, curve)(t2))

zs = np.array(zs)
print(f"{trials} null scores: mean {zs.mean():+.3f}, variance {zs.var(ddof=1):.3f}")
for tau in (1.2816, 2.3263, 3.0902):
    empirical = float(np.mean(zs > tau))
    normal = 1.0 - NormalDist().cdf(tau)
    print(f"tau={tau:.4f}: empirical {empirical:.4f}  normal {normal:.4f}")
