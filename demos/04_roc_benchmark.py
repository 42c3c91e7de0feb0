"""Desk-scale Monte-Carlo detection benchmark.

Runs a reduced version of the synthetic experiment (fewer trials than the
acceptance suite) and prints the per-method AUC ordering.  The signal scale
is calibrated so the known-covariance detector sits mid-ROC, where the
methods separate most.
"""

import dataclasses

from hdshrink import ExperimentConfig, auc, make_covariance, run_trials
from hdshrink.evaluate import pooled_rocs
from hdshrink.simulate import calibrate_gamma

cfg = ExperimentConfig(
    p=100,
    n=150,
    kappa=1e2,
    gamma=None,
    trials=20,
    tests_per_trial_h0=40,
    tests_per_trial_h1=40,
    component_dist="uniform",
    seed=123,
)

sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
gamma = calibrate_gamma(cfg, sigma)
print(f"calibrated signal scale gamma = {gamma:.3f}")

outputs = run_trials(dataclasses.replace(cfg, gamma=gamma), Sigma=sigma, threads=4)
fits = [f for o in outputs for f in o.fits]
for curve in pooled_rocs(fits):
    print(f"{curve.method:>10}: AUC = {auc(curve):.4f}")
