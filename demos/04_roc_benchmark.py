"""Desk-scale Monte-Carlo detection benchmark.

Runs a reduced version of the synthetic experiment (fewer trials than the
acceptance suite) and prints the per-method AUC ordering.  The signal scale
is calibrated so the known-covariance detector sits mid-ROC, where the
methods separate most.
"""

import dataclasses

import numpy as np

from hdshrink import ExperimentConfig, auc, make_covariance, roc, run_trials
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
for method in cfg.methods:
    h0 = np.concatenate([o.scores[method]["h0_z"] for o in outputs])
    h1 = np.concatenate([o.scores[method]["h1_z"] for o in outputs])
    print(f"{method:>10}: AUC = {auc(roc(h0, h1)):.4f}")
