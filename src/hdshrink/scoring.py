"""Fit-once/score-many plumbing shared by the synthetic and sensor-data
experiment drivers.

A reference sample fixes the spectrum, shrinkage curve, and per-method
scorers; test vectors are then scored in bulk.  Spectral methods emit both
the raw quadratic form and its standardized score; the scatter fixed point
and the cross-product comparator have no spectral standardization, so their
standardized column repeats the raw score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import detector, shrinkers
from .errors import ConfigError
from .linalg import Spectrum, eigh, sample_covariance
from .mpkernel import LwCurve, kernel_matrix, lw_curve

METHODS = ("proposed", "lw", "lappw", "tyler", "cq", "hotelling", "identity")
SPECTRAL_METHODS = ("proposed", "lw", "lappw", "hotelling", "identity")


@dataclass(frozen=True)
class FittedReference:
    """Everything derived from one reference sample."""

    xbar: np.ndarray
    spec: Spectrum
    curve: Optional[LwCurve]
    X: np.ndarray


def fit_reference(X: np.ndarray, need_curve: bool = True) -> FittedReference:
    X = np.asarray(X, dtype=float)
    S = sample_covariance(X)
    spec = eigh(S, X.shape[1])
    curve = None
    if need_curve:
        curve = lw_curve(spec.eigenvalues, X.shape[0], X.shape[1])
    return FittedReference(xbar=X.mean(axis=1), spec=spec, curve=curve, X=X)


class _SpectralScorer:
    def __init__(self, fit: FittedReference, values: np.ndarray, kmat):
        self.fit = fit
        self.values = values
        p = fit.spec.p
        self.mu = detector.mu_tilde(values, fit.curve.d_tilde)
        self.sigma = detector.standardization_scale(values, fit.curve, kmat=kmat)
        self.p = p

    def __call__(self, Y: np.ndarray):
        raw = detector.srht_many(Y, self.fit.xbar, self.fit.spec, self.values)
        z = (raw - self.mu * self.p) / (self.sigma * math.sqrt(self.p))
        return z, raw


class _TylerScorer:
    def __init__(self, fit: FittedReference, rho: float):
        scatter = shrinkers.tyler_estimator(fit.X, rho=rho)
        self.precision = np.linalg.inv(scatter)
        self.xbar = fit.xbar

    def __call__(self, Y: np.ndarray):
        D = Y - self.xbar[:, None]
        raw = np.einsum("ij,ij->j", D, self.precision @ D)
        return raw.copy(), raw


class _CrossProductScorer:
    """Two-sample cross-product statistic specialized to one test vector.

    The reference self-product is unbiased by dropping its diagonal; the
    resulting detector is score-equivalent to ||y - xbar||^2 up to a
    per-reference constant.
    """

    def __init__(self, fit: FittedReference):
        X = fit.X
        n = X.shape[1]
        G = X.T @ X
        self.offset = (G.sum() - np.trace(G)) / (n * (n - 1))
        self.xbar = fit.xbar

    def __call__(self, Y: np.ndarray):
        raw = np.einsum("ij,ij->j", Y, Y) - 2.0 * (self.xbar @ Y) + self.offset
        return raw.copy(), raw


def build_scorer(method, fit, prior, tyler_rho=0.1, lappw_grid_points=10_000):
    """Construct a callable Y -> (z_scores, raw_scores) for one method."""
    if method in SPECTRAL_METHODS:
        curve = fit.curve
        kmat = kernel_matrix(curve.lam, curve.n, curve.bandwidth_exponent)
        if method == "proposed":
            values = shrinkers.proposed_shrinker(curve, prior)[0].values
        elif method == "lw":
            values = shrinkers.lw_comparator(curve).values
        elif method == "lappw":
            b = shrinkers.lappw_select_b(curve, prior, lappw_grid_points)
            values = shrinkers.ridge_shrinker(curve.lam, b, label="lappw").values
        elif method == "hotelling":
            values = shrinkers.hotelling_shrinker(curve.lam).values
        else:
            values = shrinkers.identity_shrinker(curve.p).values
        return _SpectralScorer(fit, values, kmat)
    if method == "tyler":
        return _TylerScorer(fit, tyler_rho)
    if method == "cq":
        return _CrossProductScorer(fit)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
