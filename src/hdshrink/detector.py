"""Shrinkage-regularized quadratic-form detection: the raw statistic, its
empirical standardization, the detection criterion, and tail bounds.

Standardization convention: sigma_tilde2_batch() estimates the trace
functional p^{-1} tr(f(S) Sigma f(S) Sigma) for each row f of its input.  A
Gaussian quadratic form z'Az has variance 2 tr(A^2), so every
standardization scale in this module is sqrt(2 * sigma_tilde2) * sqrt(p);
with that scale the null scores are asymptotically standard normal for
Gaussian data and the error-function significance levels below are exact in
the limit.

Shrinker functionals come in one batched form each: gamma_tilde_all and
sigma_tilde2_batch take a (..., p) stack of shrinker value vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatisticError, DimensionError, DomainError
from .linalg import Spectrum
from .mpkernel import DEFAULT_BANDWIDTH_EXPONENT, LwCurve, kernel_matrix

GAUSSIAN_QF_VARIANCE_FACTOR = 2.0


@dataclass(frozen=True)
class DetectionScore:
    """Raw statistic with its empirical centering and scale.

    Invariant: z == (t2 - mu_tilde * p) / (sigma_tilde * sqrt(p)).
    """

    t2: float
    mu_tilde: float
    sigma_tilde: float
    z: float
    p: int


@dataclass(frozen=True)
class CriterionValue:
    """Detection criterion u = numerator / sigma_tilde for one shrinker."""

    u: float
    numerator: float
    sigma_tilde: float


@dataclass(frozen=True)
class TailConstants:
    """Constants for sub-Gaussian tail reporting.

    gaussian_exact uses the limiting normal law; hanson_wright reports the
    concentration bound 2 exp(-c tau^2 / C^4).  Bounds are for reporting
    only and never gate a decision.
    """

    c: float = 0.125
    C: float = 1.0
    mode: str = "gaussian_exact"

    def __post_init__(self):
        if self.mode not in ("gaussian_exact", "hanson_wright"):
            raise DomainError(f"unknown tail mode {self.mode!r}")
        if self.c <= 0 or self.C <= 0:
            raise DomainError("tail constants must be positive")


def srht(y, xbar, spec: Spectrum, curve_values) -> float:
    """Quadratic-form statistic (y - xbar)' f(S) (y - xbar).

    f(S) is represented spectrally by per-eigenvalue values on spec's basis.
    """
    y = np.asarray(y, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    f = np.asarray(curve_values, dtype=float)
    if y.shape != (spec.p,) or xbar.shape != (spec.p,) or f.shape != (spec.p,):
        raise DimensionError(
            f"srht dims disagree: y {y.shape}, xbar {xbar.shape}, "
            f"curve {f.shape}, p={spec.p}"
        )
    proj = spec.eigenvectors.T @ (y - xbar)
    return float(np.sum(f * proj * proj))


def srht_many(Y, xbar, spec: Spectrum, curve_values) -> np.ndarray:
    """srht for every column of Y against one fitted spectrum."""
    Y = np.asarray(Y, dtype=float)
    f = np.asarray(curve_values, dtype=float)
    proj = spec.eigenvectors.T @ (Y - np.asarray(xbar, dtype=float)[:, None])
    return f @ (proj * proj)


def mu_tilde(f_vals, d_vals) -> float:
    """Empirical centering p^{-1} sum_i f(lam_i) d(lam_i)."""
    f = np.asarray(f_vals, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    if f.shape != d.shape:
        raise DimensionError("f and d value vectors must have equal length")
    return float(np.mean(f * d))


def gamma_tilde_all(
    F, lam, d_vals, n, bandwidth_exponent=DEFAULT_BANDWIDTH_EXPONENT, kmat=None
) -> np.ndarray:
    """Smoothed resolvent correction of shrinker values, batched.

    For each row f of F (shape (..., p)) returns
    Gf(lam_i) = f(lam_i) - (pi/n) sum_j (f(lam_j) - f(lam_i)) d_j Kmat[j, i].
    The pi converts the Hilbert-kernel sum into the principal-value integral
    against the shrinkage-weighted spectral measure.
    """
    lam = np.asarray(lam, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.shape[-1] != lam.shape[0] or d.shape != lam.shape:
        raise DimensionError("shrinker/eigenvalue/shrinkage lengths disagree")
    if kmat is None:
        kmat = kernel_matrix(lam, n, bandwidth_exponent)
    scale = np.pi / n
    colsum = d @ kmat
    return F * (1.0 + scale * colsum) - scale * ((F * d) @ kmat)


def sigma_tilde2_batch(F, curve: LwCurve, kmat=None) -> np.ndarray:
    """Variance functional p^{-1} sum_i [Gf(lam_i)]^2 lam_i d(lam_i) for
    every row f of F.

    Consistent for the trace functional p^{-1} tr(f(S) Sigma f(S) Sigma).
    """
    if kmat is None:
        kmat = kernel_matrix(curve.lam, curve.n, curve.bandwidth_exponent)
    g = gamma_tilde_all(F, curve.lam, curve.d_tilde, curve.n, kmat=kmat)
    return np.mean(g * g * curve.lam * curve.d_tilde, axis=-1)


def standardization_scale(f_vals, curve: LwCurve, kmat=None) -> float:
    """Null standard deviation of the statistic per sqrt(p)."""
    F = np.asarray(f_vals, dtype=float)[None, :]
    s2 = float(sigma_tilde2_batch(F, curve, kmat=kmat)[0])
    return math.sqrt(GAUSSIAN_QF_VARIANCE_FACTOR * max(s2, 0.0))


def standardize(t2, f_vals, curve: LwCurve, p: int) -> DetectionScore:
    """Center and scale the raw statistic into an approximately
    standard-normal score."""
    f = np.asarray(f_vals, dtype=float)
    if f.shape[0] != p or curve.p != p:
        raise DimensionError("dimension p disagrees with shrinker or curve")
    mu = mu_tilde(f, curve.d_tilde)
    sigma = standardization_scale(f, curve)
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DegenerateStatisticError(
            f"standardization scale degenerate (sigma={sigma})"
        )
    z = (float(t2) - mu * p) / (sigma * math.sqrt(p))
    return DetectionScore(t2=float(t2), mu_tilde=mu, sigma_tilde=sigma, z=z, p=p)


def detection_criterion(f_vals, hbar_vals, curve: LwCurve) -> CriterionValue:
    """u = [p^{-1} sum_i hbar(lam_i) f(lam_i)] / sigma(f).

    Degree-0 homogeneous in f; the quantity the proposed shrinker maximizes.
    """
    f = np.asarray(f_vals, dtype=float)
    hb = np.asarray(hbar_vals, dtype=float)
    if f.shape != hb.shape or f.shape[0] != curve.p:
        raise DimensionError("criterion inputs disagree in length")
    numerator = float(np.mean(hb * f))
    sigma = standardization_scale(f, curve)
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DegenerateStatisticError(
            f"criterion scale degenerate (sigma={sigma})"
        )
    return CriterionValue(u=numerator / sigma, numerator=numerator, sigma_tilde=sigma)


def significance_bound(tau: float, tc: TailConstants) -> float:
    """Upper bound (or exact Gaussian value) for the null exceedance
    probability at threshold tau."""
    if tc.mode == "gaussian_exact":
        return 0.5 * math.erfc(tau / math.sqrt(2.0))
    return 2.0 * math.exp(-tc.c * tau * tau / tc.C**4)


def power_bound(u: float, tau: float, tc: TailConstants, clamp: bool = False) -> float:
    """Lower bound on detection power 1 - 2 exp(-c (u - tau)_+^2 / C^4).

    The raw bound lies in [-1, 1); pass clamp=True for the max(0, .) report.
    """
    gap = max(u - tau, 0.0)
    raw = 1.0 - 2.0 * math.exp(-tc.c * gap * gap / tc.C**4)
    return max(0.0, raw) if clamp else raw
