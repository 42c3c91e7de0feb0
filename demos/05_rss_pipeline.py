"""Sensor-network pipeline on a synthetic fixture.

Builds a small RSS-style time series with a baseline drift and an injected
activity shift, runs the detrend + resampled detection experiment, and
prints per-method AUC.  Real recordings use the same CSV layout
(t,label,ch_0001..ch_NNNN), so swapping in measured data is a one-line
change.
"""

import numpy as np

from hdshrink import RssExperimentConfig, RssSeries, auc, rss_experiment
from hdshrink.simulate import substream

T, p = 400, 24
rng = substream(77, "rss-demo")

timestamps = 0.5 * np.arange(T)
activity = np.zeros(T, dtype=bool)
activity[150:190] = True
activity[300:330] = True

baseline = np.linspace(0, 1.5, T)[:, None] * rng.uniform(-1, 1, p)[None, :]
noise = rng.standard_normal((T, p))
shift = np.zeros((T, p))
shift[activity] = 1.2 * rng.standard_normal(p)[None, :]
series = RssSeries(
    timestamps=timestamps, channels=baseline + noise + shift, activity=activity
)

cfg = RssExperimentConfig(
    n=120,
    resamples=5,
    detrend="moving_average",
    window=101,
    seed=7,
    methods=("proposed", "lw", "tyler", "cq", "hotelling", "identity"),
)
scores, curves = rss_experiment(series, cfg)
pairs = sum(block.score_z.size for block in scores.blocks)
print(f"scored {pairs} (method, instant) pairs, {len(scores.failures)} failed fits")
for curve in curves:
    print(f"{curve.method:>10}: AUC = {auc(curve):.4f}")
