"""Precision-shrinkage curve constructions: the criterion-optimal shrinker,
its deterministic-limit oracle, and the comparator estimators (nonlinear
reciprocal, ridge with grid-selected intercept, regularized scatter fixed
point, identity, classical inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import (
    GAUSSIAN_QF_VARIANCE_FACTOR,
    criterion_batch,
    gamma_tilde_all,
    sigma_tilde_unit_norms,
)
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
GRID_CHUNK = 4096
TYLER_TOL = 1e-8  # relative Frobenius change that stops tyler_estimator


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

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise ConfigError(
                f"prior mode must be one of {PRIOR_MODES}, got {self.mode!r}"
            )


def hbar_values(prior: PriorSpec, curve: LwCurve) -> np.ndarray:
    """Prior weight at each eigenvalue: ones for identity, the shrinkage
    curve itself when the prior matches the covariance."""
    if prior.mode == "identity":
        return np.ones(curve.p)
    return np.asarray(curve.d_tilde, dtype=float)


def proposed_shrinker(curve: LwCurve, prior: PriorSpec, hbar=None) -> ShrinkageCurve:
    """Criterion-optimal shrinker values at the sample eigenvalues.

    With Kmat[j, i] the scaled Hilbert kernel of eigenvalue j at
    eigenvalue i (the curve's hilbert_matrix):

        H(x_i)  = p^{-1} sum_j hbar_j Kmat[j, i]
        g(x)    = 1 - phi - phi pi x Hw~(x)
        Gbar(x) = -phi pi x
        xi      = (g^2 hbar + g Gbar H) / (d x)
        eta_j   = (Gbar_j^2 H_j + Gbar_j g_j hbar_j) / (d_j x_j)
        f(x_i)  = xi_i - p^{-1} sum_j eta_j Kmat[j, i]

    clipped at zero after the full evaluation.  An explicit hbar vector
    overrides the prior's weights.
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
    return ShrinkageCurve(values=np.maximum(f, 0.0), label="proposed")


def _hbar_at(hbar, x) -> np.ndarray:
    """The prior weight function at the points x, broadcast when it
    returns one number."""
    hb = np.asarray(hbar(x), dtype=float)
    return hb if hb.shape == x.shape else np.full(x.shape, float(hbar(x[0])))


def fstar_curve(oracle: DensityOracle, hbar, xs) -> np.ndarray:
    """Limiting optimal shrinker at the points xs, strictly inside the
    support.

    f* = (g^2 h + g G H) / a - H[(G^2 H + G g h) / a], with every Hilbert
    transform computed by principal-value quadrature on the oracle grid.
    """
    xs = np.asarray(xs, dtype=float)
    a, b = oracle.support
    if np.any(xs <= a) or np.any(xs >= b):
        raise DomainError("all evaluation points must lie strictly inside the support")
    grid, w, phi = oracle.grid, oracle.w_grid, oracle.phi
    hb = _hbar_at(hbar, grid)
    H = np.nan_to_num(pv_hilbert_nodes(hb * w, grid))
    g = 1.0 - phi - phi * np.pi * grid * np.nan_to_num(oracle.hw_grid)
    # (G^2 H + G g h) / a reduces to w * (phi pi) * (phi pi x H - g hbar) / delta
    q = np.where(
        w > 0.0,
        phi * np.pi * w * (phi * np.pi * grid * H - g * hb) / oracle.delta(grid),
        0.0,
    )
    valid = ~np.isnan(oracle.hw_grid)
    Hw_x = np.interp(xs, grid[valid], oracle.hw_grid[valid])
    Hvalid = slice(2, grid.shape[0] - 2)
    H_x = np.interp(xs, grid[Hvalid], H[Hvalid])
    delta_x = oracle.delta(xs)
    g_x = 1.0 - phi - phi * np.pi * xs * Hw_x
    term1 = g_x * g_x * _hbar_at(hbar, xs) / (xs * delta_x)
    term1 -= phi * np.pi * g_x * H_x / delta_x
    term2 = np.array([pv_hilbert(q, grid, float(x)) for x in xs])
    return term1 - term2


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

    Searches a log-spaced grid on [mean(lam), 20 max(lam)]: the exact argmax
    of criterion_batch over the grid, ties broken toward the smaller
    intercept.  lappw_criterion_bounds screens the grid at low rank; only
    the points whose upper bound reaches the best lower bound are evaluated
    in full.
    """
    if grid_points < 2:
        raise ConfigError(f"grid needs at least 2 points, got {grid_points}")
    lam = curve.lam
    hbar = hbar_values(prior, curve)
    bs = np.geomspace(lam.mean(), 20.0 * lam.max(), int(grid_points))
    u_lo, u_hi = lappw_criterion_bounds(curve, hbar, bs)
    (candidates,) = np.nonzero(u_hi >= u_lo.max())
    best_u = -np.inf
    best_b = bs[0]
    for start in range(0, candidates.size, GRID_CHUNK):
        bchunk = bs[candidates[start : start + GRID_CHUNK]]
        u = criterion_batch(1.0 / (lam[None, :] + bchunk[:, None]), hbar, curve)
        j = int(np.argmax(u))
        if u[j] > best_u:
            best_u = float(u[j])
            best_b = float(bchunk[j])
    return best_b


def lappw_criterion_bounds(curve: LwCurve, hbar, bs):
    """Bounds (u_lo, u_hi) on criterion_batch of every ridge row
    1/(lam + b), b in the log-spaced grid bs, in O(p^2 r + len(bs) r^2)
    work and without a len(bs) x p array.

    With log b = c + h x, x in [-1, 1], entry i of a row is
    f_i(x) = 1/(lam_i + exp(c + h x)).  It is analytic in the Bernstein
    ellipse E_rho of semi-minor axis 3 pi/(4h); there exp(c + h x) lies in
    the sector |arg| <= 3 pi/4, at distance at least lam_i/sqrt(2) from
    -lam_i, so |f_i| <= sqrt(2)/lam_i, and the degree-n interpolant in the
    n + 1 Chebyshev points is within 4 sqrt(2) rho^-n / ((rho - 1) lam_i)
    of f_i (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2).
    The numerator hbar'f is linear in f, and sqrt(2 p sigma_tilde2(f)) =
    sqrt(2) ||A f|| with A linear (sigma_tilde_unit_norms), so an entry
    error e moves the numerator by at most |hbar|'e and ||A f|| by at most
    sum_i e_i ||A e_i||.  The interpolant's ||A f|| is ||R t(x)||, with R
    the triangular factor of the r = n + 1 coefficient rows mapped by A
    and t(x) the Chebyshev basis at x.

    Rounding is bounded by the stated slack 8 (p + r^2) eps, relative to
    each quantity's scale: O(r^2) for the Chebyshev transform and
    recurrence, O(p) for the p-term sums here and in criterion_batch.  n
    is the smallest degree whose interpolation error is below that slack.
    A point whose scale bound reaches 0, or whose bounds are not finite,
    gets (-inf, inf).
    """
    lam, p = curve.lam, curve.p
    hbar = np.asarray(hbar, dtype=float)
    bs = np.asarray(bs, dtype=float)
    c = 0.5 * (np.log(bs[-1]) + np.log(bs[0]))
    h = 0.5 * (np.log(bs[-1]) - np.log(bs[0]))
    minor = 0.75 * np.pi / h
    rho = minor + np.hypot(minor, 1.0)
    n = 1
    while _interpolation_error(rho, n) > _slack(p, n + 1):
        n += 1
    slack = _slack(p, n + 1)
    # Interpolant in the points cos(j pi / n): its coefficients are a
    # discrete cosine transform in which the two end terms count half.
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    values = 1.0 / (lam[None, :] + np.exp(c + h * nodes)[:, None])
    values[[0, n]] *= 0.5
    coef = (2.0 / n) * (_chebyshev_basis(nodes, n) @ values)
    coef[[0, n]] *= 0.5
    v = coef @ hbar
    mapped = gamma_tilde_all(coef, curve) * np.sqrt(lam * curve.d_tilde)
    R = np.linalg.qr(mapped.T, mode="r")
    entry_err = (_interpolation_error(rho, n) + slack) / lam
    num_err = np.abs(hbar) @ entry_err + slack * np.abs(v).sum()
    norm_err = sigma_tilde_unit_norms(curve) @ entry_err
    norm_err += slack * np.linalg.norm(R, axis=0).sum()
    x = np.clip((np.log(bs) - c) / h, -1.0, 1.0)
    num = np.empty(bs.shape)
    norm = np.empty(bs.shape)
    for start in range(0, bs.size, GRID_CHUNK):
        t = _chebyshev_basis(x[start : start + GRID_CHUNK], n)
        num[start : start + GRID_CHUNK] = v @ t
        rt = R @ t
        norm[start : start + GRID_CHUNK] = np.sqrt(np.einsum("ij,ij->j", rt, rt))
    u_lo = np.full(bs.shape, -np.inf)
    u_hi = np.full(bs.shape, np.inf)
    ok = (norm > norm_err) & np.isfinite(num)
    scale = np.sqrt(GAUSSIAN_QF_VARIANCE_FACTOR * p)
    corners = [
        (num[ok] + dn) / (scale * (norm[ok] + dr))
        for dn in (-num_err, num_err)
        for dr in (-norm_err, norm_err)
    ]
    u_lo[ok] = np.min(corners, axis=0)
    u_hi[ok] = np.max(corners, axis=0)
    # criterion_batch's own rounding
    u_lo -= slack * np.abs(u_lo)
    u_hi += slack * np.abs(u_hi)
    return u_lo, u_hi


def _interpolation_error(rho: float, n: int) -> float:
    """Thm 8.2 bound per unit of 1/lam_i, with |f_i| <= sqrt(2)/lam_i."""
    return 4.0 * np.sqrt(2.0) / ((rho - 1.0) * rho**n)


def _slack(p: int, r: int) -> float:
    return 8.0 * (p + r * r) * np.finfo(float).eps


def _chebyshev_basis(x, n: int) -> np.ndarray:
    """Chebyshev polynomials T_0 .. T_n at the points x, one row each."""
    t = np.empty((n + 1, x.size))
    t[0] = 1.0
    t[1] = x
    twice = 2.0 * x
    for k in range(2, n + 1):
        np.multiply(twice, t[k - 1], out=t[k])
        t[k] -= t[k - 2]
    return t


def tyler_estimator(X, rho: float = 0.1, max_iter: int = 500) -> np.ndarray:
    """Regularized scatter M-estimator fixed point, trace-normalized.

    Iterates S <- (1 - rho) (p/n) sum_i x_i x_i' / (x_i' S^{-1} x_i) + rho I
    on centered samples, rescaling to trace p each step, until the relative
    Frobenius change is at most TYLER_TOL.
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
        if residual <= TYLER_TOL:
            return sigma
    raise ConvergenceError(
        f"tyler_estimator did not reach tol={TYLER_TOL} in {max_iter} iterations "
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
