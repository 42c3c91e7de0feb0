"""Shrinkage-regularized quadratic-form detection: the raw statistic, its
empirical standardization, and the detection criterion.

Standardization convention: sigma_tilde2_batch() estimates the trace
functional p^{-1} tr(f(S) Sigma f(S) Sigma) for each row f of its input.  A
Gaussian quadratic form z'Az has variance 2 tr(A^2), so the one null scale,
standardization_scale, is sqrt(2 * sigma_tilde2) per sqrt(p); Standardizer
and criterion_batch divide by it, and the null scores are then
asymptotically standard normal for Gaussian data.

Each quantity comes in one batched form: squared_projection, the one
projection rule, maps a stack Y of test vectors to Q = (U'(Y - xbar))^2, and
srht_many is f @ Q; gamma_tilde_all, sigma_tilde2_batch, standardization_scale
and criterion_batch take a (..., p) stack of shrinker value vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateStatisticError, DimensionError
from .mpkernel import LwCurve

GAUSSIAN_QF_VARIANCE_FACTOR = 2.0


def squared_projection(Y, xbar, spec) -> np.ndarray:
    """Q = (U'(y - xbar))^2 for every column y of Y, U spec's eigenvectors:
    the same for every shrinker f, whose statistic is f @ Q."""
    Y = np.asarray(Y, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    p = spec.eigenvalues.size
    if Y.ndim != 2 or Y.shape[0] != p or xbar.shape != (p,):
        raise DimensionError(f"projection dims disagree: Y {Y.shape}, xbar {xbar.shape}, p={p}")
    proj = spec.eigenvectors.T @ (Y - xbar[:, None])
    return np.square(proj, out=proj)


def srht_many(Y, xbar, spec, curve_values) -> np.ndarray:
    """Quadratic-form statistic (y - xbar)' f(S) (y - xbar) for every
    column y of Y.

    f(S) is represented spectrally by per-eigenvalue values on spec's basis.
    """
    f = np.asarray(curve_values, dtype=float)
    if f.shape != spec.eigenvalues.shape:
        raise DimensionError(f"curve {f.shape} disagrees with p={spec.eigenvalues.size}")
    return f @ squared_projection(Y, xbar, spec)


def gamma_tilde_all(F, curve: LwCurve) -> np.ndarray:
    """Smoothed resolvent correction of shrinker values, batched.

    For each row f of F (shape (..., p)) returns
    Gf(lam_i) = f(lam_i) - (pi/n) sum_j (f(lam_j) - f(lam_i)) d_j Kmat[j, i],
    with Kmat the curve's hilbert_matrix.  The pi converts the
    Hilbert-kernel sum into the principal-value integral against the
    shrinkage-weighted spectral measure.
    """
    F = np.asarray(F, dtype=float)
    if F.shape[-1] != curve.p:
        raise DimensionError("shrinker and eigenvalue lengths disagree")
    d, K = curve.d_tilde, curve.hilbert_matrix
    scale = np.pi / curve.n
    colsum = d @ K
    return F * (1.0 + scale * colsum) - scale * ((F * d) @ K)


def sigma_tilde2_batch(F, curve: LwCurve) -> np.ndarray:
    """Variance functional p^{-1} sum_i [Gf(lam_i)]^2 lam_i d(lam_i) for
    every row f of F.

    Consistent for the trace functional p^{-1} tr(f(S) Sigma f(S) Sigma).
    """
    g = gamma_tilde_all(F, curve)
    return np.mean(g * g * curve.lam * curve.d_tilde, axis=-1)


def standardization_scale(F, curve: LwCurve) -> np.ndarray:
    """Null sd per sqrt(p), sqrt(2 max(sigma_tilde2(f), 0)), of each row f of F;
    DegenerateStatisticError unless every one is finite and positive."""
    s2 = sigma_tilde2_batch(F, curve)
    sigma = np.sqrt(GAUSSIAN_QF_VARIANCE_FACTOR * np.maximum(s2, 0.0))
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise DegenerateStatisticError(
            f"standardization scale degenerate (sigma={np.min(sigma)})"
        )
    return sigma


class Standardizer:
    """Empirical centering mu = p^{-1} sum_i f(lam_i) d(lam_i) and scale
    sigma of the statistic for one shrinker on one curve; calling it maps
    raw statistics t2 (a number or an array) to approximately
    standard-normal scores z = (t2 - mu p) / (sigma sqrt(p)).
    """

    def __init__(self, f_vals, curve: LwCurve):
        f = np.asarray(f_vals, dtype=float)
        self.p = curve.p
        self.sigma = float(standardization_scale(f[None, :], curve)[0])
        self.mu = float(np.mean(f * curve.d_tilde))

    def __call__(self, t2):
        return (t2 - self.mu * self.p) / (self.sigma * math.sqrt(self.p))


def criterion_batch(F, hbar_vals, curve: LwCurve) -> np.ndarray:
    """Detection criterion u = [p^{-1} sum_i hbar(lam_i) f(lam_i)] / sigma(f)
    for every row f of F, with sigma(f) the standardization_scale.

    Degree-0 homogeneous in f; the quantity the proposed shrinker maximizes.
    """
    F = np.asarray(F, dtype=float)
    hbar = np.asarray(hbar_vals, dtype=float)
    if hbar.shape != (curve.p,):
        raise DimensionError("criterion inputs disagree in length")
    return F @ hbar / curve.p / standardization_scale(F, curve)
