"""Precision-shrinkage curve constructions: the criterion-optimal shrinker,
its deterministic-limit oracle, and the comparator estimators (nonlinear
reciprocal, ridge with grid-selected intercept, regularized scatter fixed
point, identity, classical inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import criterion_batch
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionError,
    DomainError,
    NumericError,
    RegimeError,
)
from .linalg import forward_substitute
from .mpkernel import (
    DensityOracle,
    LwCurve,
    eps_den,
    pv_hilbert,
    pv_hilbert_nodes,
)

PRIOR_MODES = ("identity", "covariance_matched")


@dataclass(frozen=True)
class ShrinkageCurve:
    """Nonnegative per-eigenvalue precision values f(lam_i) plus a label."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericError(f"shrinkage curve {self.label!r} has non-finite values")
        if np.any(v < 0):
            raise NumericError(f"shrinkage curve {self.label!r} has negative values")
        object.__setattr__(self, "values", v)

    def to_csv(self, path, lam) -> None:
        lam = np.asarray(lam, dtype=float)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lambda,value,label\n")
            for x, v in zip(lam, self.values):
                fh.write(f"{x:.17g},{v:.17g},{self.label}\n")


@dataclass(frozen=True)
class PriorSpec:
    """Mean-shift dispersion prior: identity or matched to the covariance."""

    mode: str = "identity"
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise ConfigError(
                f"prior mode must be one of {PRIOR_MODES}, got {self.mode!r}"
            )
        if not 0.0 < self.scale < np.inf:
            raise ConfigError(
                f"prior scale must be positive and finite, got {self.scale}"
            )


@dataclass(frozen=True)
class ProposedShrinkIntermediates:
    """Per-eigenvalue pieces of the proposed shrinker, exposed for testing."""

    H_n: np.ndarray
    g_n: np.ndarray
    Gbar_n: np.ndarray
    xi_n: np.ndarray
    eta_n: np.ndarray


def hbar_values(prior: PriorSpec, curve: LwCurve) -> np.ndarray:
    """Prior weight at each eigenvalue: ones for identity, the shrinkage
    curve itself when the prior matches the covariance."""
    if prior.mode == "identity":
        return prior.scale * np.ones(curve.p)
    return prior.scale * np.asarray(curve.d_tilde, dtype=float)


def proposed_shrinker(curve: LwCurve, prior: PriorSpec, hbar=None):
    """Criterion-optimal shrinker values at the sample eigenvalues.

    With Kmat[j, i] the scaled Hilbert kernel of eigenvalue j at
    eigenvalue i (the curve's hilbert_matrix):

        H(x_i)  = p^{-1} sum_j hbar_j Kmat[j, i]
        g(x)    = 1 - phi - phi pi x Hw~(x)
        Gbar(x) = -phi pi x
        xi      = (g^2 hbar + g Gbar H) / (d x)
        eta_j   = (Gbar_j^2 H_j + Gbar_j g_j hbar_j) / (d_j x_j)
        f(x_i)  = xi_i - p^{-1} sum_j eta_j Kmat[j, i]

    clipped at zero after the full evaluation.  Returns the curve and the
    intermediates.  An explicit hbar vector overrides the prior's weights.
    """
    lam = curve.lam
    p = curve.p
    if p >= curve.n:
        raise RegimeError(f"proposed shrinker requires p < n, got p={p}, n={curve.n}")
    phi = curve.phi_n
    d = curve.d_tilde
    if hbar is None:
        hbar = hbar_values(prior, curve)
    else:
        hbar = np.asarray(hbar, dtype=float)
        if hbar.shape != lam.shape:
            raise DimensionError("hbar override length must match the spectrum")

    denom = d * lam
    if np.any(denom <= eps_den(lam)):
        raise NumericError("shrinkage denominator d(lam) * lam underflowed its floor")

    K = curve.hilbert_matrix
    H_n = (hbar @ K) / p
    g_n = 1.0 - phi - phi * np.pi * lam * curve.hw_tilde
    Gbar_n = -phi * np.pi * lam
    xi_n = (g_n * g_n * hbar + g_n * Gbar_n * H_n) / denom
    eta_n = (Gbar_n * Gbar_n * H_n + Gbar_n * g_n * hbar) / denom
    f = xi_n - (eta_n @ K) / p
    values = np.maximum(f, 0.0)
    inter = ProposedShrinkIntermediates(
        H_n=H_n, g_n=g_n, Gbar_n=Gbar_n, xi_n=xi_n, eta_n=eta_n
    )
    return ShrinkageCurve(values=values, label="proposed"), inter


def _fstar_tables(oracle: DensityOracle, hbar):
    """Tabulate the integrand pieces of the limiting optimal shrinker."""
    grid = oracle.grid
    w = oracle.w_grid
    hw = np.nan_to_num(oracle.hw_grid)
    phi = oracle.phi
    delta = oracle.delta(grid)
    hb = np.asarray(hbar(grid), dtype=float)
    if hb.shape != grid.shape:
        hb = np.full(grid.shape, float(hbar(grid[0])))
    h = hb * w
    H = np.nan_to_num(pv_hilbert_nodes(h, grid))
    g = 1.0 - phi - phi * np.pi * grid * hw
    # (G^2 H + G g h) / a reduces to w * (phi pi) * (phi pi x H - g hbar) / delta
    q = np.where(
        w > 0.0,
        phi * np.pi * w * (phi * np.pi * grid * H - g * hb) / delta,
        0.0,
    )
    return grid, w, hw, delta, hb, H, g, q


def fstar_oracle(oracle: DensityOracle, hbar, x) -> float:
    """Limiting optimal shrinker at x, strictly inside the support.

    f* = (g^2 h + g G H) / a - H[(G^2 H + G g h) / a], with every Hilbert
    transform computed by principal-value quadrature on the oracle grid.
    """
    a, b = oracle.support
    if not (a < x < b):
        raise DomainError(f"x={x} is not strictly inside the support ({a}, {b})")
    grid, w, hw, _, _, H, g, q = _fstar_tables(oracle, hbar)
    return float(_fstar_eval(oracle, hbar, np.asarray([x]), grid, hw, H, g, q)[0])


def _fstar_eval(oracle, hbar, xs, grid, hw, H, g, q):
    phi = oracle.phi
    valid = ~np.isnan(oracle.hw_grid)
    Hw_x = np.interp(xs, grid[valid], oracle.hw_grid[valid])
    Hvalid = slice(2, grid.shape[0] - 2)
    H_x = np.interp(xs, grid[Hvalid], H[Hvalid])
    hb_x = np.asarray(hbar(xs), dtype=float)
    if hb_x.shape != xs.shape:
        hb_x = np.full(xs.shape, float(hbar(xs[0])))
    delta_x = oracle.delta(xs)
    g_x = 1.0 - phi - phi * np.pi * xs * Hw_x
    term1 = g_x * g_x * hb_x / (xs * delta_x) - phi * np.pi * g_x * H_x / delta_x
    term2 = np.array([pv_hilbert(q, grid, float(x)) for x in xs])
    return term1 - term2


def fstar_curve(oracle: DensityOracle, hbar, xs) -> np.ndarray:
    """fstar_oracle evaluated at an array of interior points."""
    xs = np.asarray(xs, dtype=float)
    a, b = oracle.support
    if np.any(xs <= a) or np.any(xs >= b):
        raise DomainError("all evaluation points must lie strictly inside the support")
    grid, w, hw, _, _, H, g, q = _fstar_tables(oracle, hbar)
    return _fstar_eval(oracle, hbar, xs, grid, hw, H, g, q)


def lw_comparator(curve: LwCurve) -> ShrinkageCurve:
    """Nonlinear-shrinkage baseline: reciprocal of the shrinkage curve."""
    d = np.asarray(curve.d_tilde, dtype=float)
    values = 1.0 / np.maximum(d, eps_den(curve.lam))
    return ShrinkageCurve(values=values, label="lw")


def ridge_shrinker(lam, b: float, label: str = "ridge") -> ShrinkageCurve:
    """Linear-shrinkage precision values 1 / (lam_i + b)."""
    if b <= 0:
        raise DomainError(f"ridge intercept must be positive, got {b}")
    lam = np.asarray(lam, dtype=float)
    return ShrinkageCurve(values=1.0 / (lam + b), label=label)


def lappw_select_b(
    curve: LwCurve, prior: PriorSpec, grid_points: int = 10_000
) -> float:
    """Intercept for the ridge family maximizing the detection criterion.

    Searches a log-spaced grid on [mean(lam), 20 max(lam)]; exact argmax
    over the grid with ties broken toward the smaller intercept.
    """
    if grid_points < 2:
        raise ConfigError(f"grid needs at least 2 points, got {grid_points}")
    lam = curve.lam
    hbar = hbar_values(prior, curve)
    bs = np.geomspace(lam.mean(), 20.0 * lam.max(), int(grid_points))
    best_u = -np.inf
    best_b = bs[0]
    chunk = 4096
    for start in range(0, bs.size, chunk):
        bchunk = bs[start : start + chunk]
        u = criterion_batch(1.0 / (lam[None, :] + bchunk[:, None]), hbar, curve)
        j = int(np.argmax(u))
        if u[j] > best_u:
            best_u = float(u[j])
            best_b = float(bchunk[j])
    return best_b


def tyler_estimator(
    X, rho: float = 0.1, tol: float = 1e-8, max_iter: int = 500
) -> np.ndarray:
    """Regularized scatter M-estimator fixed point, trace-normalized.

    Iterates S <- (1 - rho) (p/n) sum_i x_i x_i' / (x_i' S^{-1} x_i) + rho I
    on centered samples, rescaling to trace p each step, until the relative
    Frobenius change is below tol.
    """
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("tyler_estimator expects a p x n data matrix")
    p, n = X.shape
    if rho == 0.0 and n <= p:
        raise RegimeError(
            "the unregularized scatter fixed point needs n > p; pass rho > 0"
        )
    Xc = X - X.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(Xc, axis=0)
    if np.any(norms == 0.0):
        raise DataError("tyler_estimator: a centered sample is the zero vector")

    sigma = np.eye(p)
    residual = np.inf
    for _ in range(max_iter):
        try:
            L = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"scatter iterate lost positive definiteness: {exc}"
            ) from exc
        Z = forward_substitute(L, Xc)
        q = np.einsum("ij,ij->j", Z, Z)  # x_i' sigma^{-1} x_i
        W = Xc / np.sqrt(q)
        updated = W @ W.T  # symmetric product: numpy calls syrk
        updated *= (1.0 - rho) * (p / n)
        updated[np.diag_indices(p)] += rho
        updated *= p / np.trace(updated)
        updated = (updated + updated.T) / 2.0
        residual = np.linalg.norm(updated - sigma) / np.linalg.norm(sigma)
        sigma = updated
        if residual <= tol:
            return sigma
    raise ConvergenceError(
        f"tyler_estimator did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def identity_shrinker(p: int) -> ShrinkageCurve:
    """Trivial all-ones curve: the statistic reduces to ||y - xbar||^2."""
    if p < 1:
        raise DimensionError(f"dimension must be positive, got {p}")
    return ShrinkageCurve(values=np.ones(p), label="identity")


def hotelling_shrinker(lam) -> ShrinkageCurve:
    """Classical plug-in inverse 1 / lam_i; needs a well-separated spectrum."""
    lam = np.asarray(lam, dtype=float)
    floor = 1e-10 * lam.max()
    if np.any(lam <= floor):
        raise RegimeError(
            "sample spectrum is near-singular; the plug-in inverse needs "
            "p < n with a full-rank sample covariance"
        )
    return ShrinkageCurve(values=1.0 / lam, label="hotelling")
