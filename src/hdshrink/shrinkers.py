"""Precision-shrinkage curve constructions: the criterion-optimal shrinker,
its deterministic-limit oracle, and the comparator estimators (nonlinear
reciprocal, ridge whose intercept a zooming log-grid search picks to
maximize the criterion, regularized scatter fixed point, identity,
classical inverse).
"""

from __future__ import annotations

from collections import deque
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
from .linalg import cholesky, inverse_quadratic_forms
from .mpkernel import DensityOracle, LwCurve, check_spectrum, pv_hilbert

PRIOR_MODES = ("identity", "covariance_matched")
LAPPW_GRID = 10_000  # log-spaced intercepts lappw_select_b searches
LAPPW_POINTS = 33  # evaluated per round; at most 4 rounds cover LAPPW_GRID
TYLER_TOL = 1e-8  # relative Frobenius change that stops tyler_estimator
TYLER_DEPTH = 5  # differences tyler_estimator's Anderson mixing keeps
ORACLE_GRID_POINTS = 4001  # pv_hilbert nodes under fstar_curve


@dataclass(frozen=True)
class ShrinkageCurve:
    """Nonnegative per-eigenvalue precision values f(lam_i)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericError("shrinkage curve has non-finite values")
        if np.any(v < 0):
            raise NumericError("shrinkage curve has negative values")
        object.__setattr__(self, "values", v)


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


def proposed_shrinker(curve: LwCurve, prior: PriorSpec) -> ShrinkageCurve:
    """Criterion-optimal shrinker values at the sample eigenvalues.

    With Kmat[j, i] the scaled Hilbert kernel of eigenvalue j at
    eigenvalue i (the curve's hilbert_matrix):

        H(x_i)  = p^{-1} sum_j hbar_j Kmat[j, i]
        g(x)    = 1 - phi - phi pi x Hw~(x)
        Gbar(x) = -phi pi x
        xi      = (g^2 hbar + g Gbar H) / (d x)
        eta_j   = (Gbar_j^2 H_j + Gbar_j g_j hbar_j) / (d_j x_j)
        f(x_i)  = xi_i - p^{-1} sum_j eta_j Kmat[j, i]

    clipped at zero after the full evaluation, with hbar the prior's
    weights (hbar_values).
    """
    lam = curve.lam
    p = curve.p
    if p >= curve.n:
        raise RegimeError(f"proposed shrinker requires p < n, got p={p}, n={curve.n}")
    phi = curve.phi_n
    hbar = hbar_values(prior, curve)
    denom = curve.d_tilde * lam
    K = curve.hilbert_matrix
    H_n = (hbar @ K) / p
    g_n = 1.0 - phi - phi * np.pi * lam * curve.hw_tilde
    Gbar_n = -phi * np.pi * lam
    xi_n = (g_n * g_n * hbar + g_n * Gbar_n * H_n) / denom
    eta_n = (Gbar_n * Gbar_n * H_n + Gbar_n * g_n * hbar) / denom
    f = xi_n - (eta_n @ K) / p
    return ShrinkageCurve(values=np.maximum(f, 0.0))


def fstar_curve(oracle: DensityOracle, hbar, xs) -> np.ndarray:
    """Limiting optimal shrinker at the points xs, strictly inside the
    support, for the prior weight function hbar (a callable on arrays).

    f* = (g^2 h + g G H) / a - H[(G^2 H + G g h) / a], with g and the
    denominator a = x delta from the oracle's closed forms.  The two
    remaining Hilbert transforms, of hbar w and of the bracket, come from
    pv_hilbert on ORACLE_GRID_POINTS nodes that span the support padded by
    a quarter of its width on each side: at the nodes inside the support
    for the bracket, and at xs directly.

    Identity model, hbar = 1: delta = 1 on the support, the bracket's
    transform is Re(phi^2 x m^2 - phi (1 - phi) m) with m = pi (Hw + i w),
    and f* = 1 - phi pi Hw (g + phi pi x Hw - (1 - phi)) = 1.
    """
    xs = np.asarray(xs, dtype=float)
    a, b = oracle.support
    if np.any(xs <= a) or np.any(xs >= b):
        raise DomainError("all evaluation points must lie strictly inside the support")
    phi = oracle.phi
    pad = 0.25 * (b - a)
    grid = np.linspace(a - pad, b + pad, ORACLE_GRID_POINTS)
    w, hb = oracle.w(grid), hbar(grid)
    inside = w > 0.0
    t = grid[inside]
    g = 1.0 - phi - phi * np.pi * t * oracle.Hw(t)
    H = pv_hilbert(hb * w, grid, t)
    # (G^2 H + G g h) / a reduces to w * (phi pi) * (phi pi x H - g hbar) / delta
    q = np.zeros_like(grid)
    q[inside] = phi * np.pi * w[inside] * (phi * np.pi * t * H - g * hb[inside])
    q[inside] /= oracle.delta(t)
    delta_x = oracle.delta(xs)
    g_x = 1.0 - phi - phi * np.pi * xs * oracle.Hw(xs)
    term1 = g_x * g_x * hbar(xs) / (xs * delta_x)
    term1 -= phi * np.pi * g_x * pv_hilbert(hb * w, grid, xs) / delta_x
    return term1 - pv_hilbert(q, grid, xs)


def lw_comparator(curve: LwCurve) -> ShrinkageCurve:
    """Nonlinear-shrinkage baseline: reciprocal of the shrinkage curve."""
    return ShrinkageCurve(values=1.0 / curve.d_tilde)


def ridge_shrinker(lam, b: float) -> ShrinkageCurve:
    """Linear-shrinkage precision values 1 / (lam_i + b)."""
    if b <= 0:
        raise DomainError(f"ridge intercept must be positive, got {b}")
    lam = np.asarray(lam, dtype=float)
    return ShrinkageCurve(values=1.0 / (lam + b))


def lappw_select_b(curve: LwCurve, prior: PriorSpec) -> float:
    """Intercept for the ridge family maximizing the detection criterion.

    Zooming search over LAPPW_GRID log-spaced intercepts on
    [mean(lam), 20 max(lam)]: each round scores LAPPW_POINTS evenly spaced
    grid indices of the bracket in one stacked criterion_batch call, then
    narrows the bracket to the two neighbours of the round's argmax, until a
    round has evaluated every index of its bracket.  Returns the best
    intercept seen, ties going to the one found first (the smaller, within a
    round).  Another stacking of the rows can move sigma by 1 ulp, and so
    can change b at an exact tie.
    """
    lam = curve.lam
    hbar = hbar_values(prior, curve)
    grid = np.geomspace(lam.mean(), 20.0 * lam.max(), LAPPW_GRID)
    lo, hi = 0, LAPPW_GRID - 1
    best_b, best_u = grid[0], -np.inf
    while True:
        idx = np.unique(np.rint(np.linspace(lo, hi, LAPPW_POINTS)).astype(int))
        u = criterion_batch(1.0 / (lam[None, :] + grid[idx, None]), hbar, curve)
        j = int(np.argmax(u))
        if u[j] > best_u:
            best_b, best_u = float(grid[idx[j]]), float(u[j])
        if idx.size == hi - lo + 1:
            return best_b
        lo, hi = idx[max(j - 1, 0)], idx[min(j + 1, idx.size - 1)]


def _anderson_mix(g, f, dg, df):
    """g - dG gamma, with gamma the least-squares fit of the residual f by
    its differences dF, solved on their Gram matrix."""
    F = np.array(df)
    gamma = np.linalg.lstsq(F @ F.T, F @ f, rcond=None)[0]
    return g - gamma @ np.array(dg)


def _diagonal_change(Xc, sq_norms, rho, g, w):
    """||diag(S(g) - S(w))|| for tyler_estimator's trace-normalized scatters
    of the centered samples Xc with squared norms sq_norms: at most their
    Frobenius distance, in O(pn) and without a p x n temporary."""
    p, n = Xc.shape
    a, b = (p / ((1.0 - rho) * (p / n) * (v @ sq_norms) + rho * p) for v in (g, w))
    d = np.einsum("ij,ij,j->i", Xc, Xc, a * g - b * w)
    d *= (1.0 - rho) * (p / n)
    d += rho * (a - b)
    return np.linalg.norm(d)


def tyler_estimator(X, rho: float = 0.1, max_iter: int = 500) -> np.ndarray:
    """Regularized scatter M-estimator fixed point, trace-normalized.

    The fixed point (Chen, Wiesel & Hero, IEEE Trans. Signal Process. 2011)
    of S = (1 - rho) (p/n) sum_i w_i x_i x_i' + rho I, rescaled to trace p,
    with sample weights w_i = 1 / (x_i' S^{-1} x_i) on centered samples.
    S(w) is a function of the n weights, and the iteration runs on them.
    Each iteration factors S(w), takes the plain weights g = 1 / q from the
    factor, and returns the plain image S(g) once its relative Frobenius
    change from S(w) is at most TYLER_TOL. Otherwise the next w is the
    Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011) of the last
    TYLER_DEPTH differences of g and of g - w, or g itself, with the
    differences dropped, when a mixed weight is not positive. The start
    w_i = 1 / mean ||x_i||^2 makes S the trace-normalized (1 - rho) S_n + rho I
    of the sample covariance S_n.

    The p x p image S(g) is formed only when the change of its diagonal, an
    O(pn) lower bound on the Frobenius change, cannot rule out convergence,
    and on the last allowed iteration, so ConvergenceError reports the exact
    change. Every iterate and the result are those of forming it every time.
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
    sq_norms = np.einsum("ij,ij->j", Xc, Xc)
    if np.any(sq_norms == 0.0):
        raise DataError("tyler_estimator: a centered sample is the zero vector")

    def scatter(w):
        W = Xc * np.sqrt(w)
        S = W @ W.T  # symmetric product: numpy calls syrk
        S *= (1.0 - rho) * (p / n)
        S[np.diag_indices(p)] += rho
        S *= p / np.trace(S)
        return S

    w = np.full(n, n / sq_norms.sum())
    sigma = scatter(w)
    dg, df = deque(maxlen=TYLER_DEPTH), deque(maxlen=TYLER_DEPTH)
    residual = np.inf
    for it in range(max_iter):
        g = 1.0 / inverse_quadratic_forms(cholesky(sigma), Xc)
        # The bound is at most the residual, and rounding moves either by
        # about eps in units of ||sigma||, eight orders below TYLER_TOL: a
        # bound above twice the tolerance means a residual above it.
        bound = _diagonal_change(Xc, sq_norms, rho, g, w) / np.linalg.norm(sigma)
        image = None
        if bound <= 2.0 * TYLER_TOL or it == max_iter - 1:
            image = scatter(g)
            residual = np.linalg.norm(image - sigma) / np.linalg.norm(sigma)
            if residual <= TYLER_TOL:
                return image
        f = g - w
        if it:
            dg.append(g - g_last)
            df.append(f - f_last)
        g_last, f_last = g, f
        w, sigma = g, image
        if df:
            mixed = _anderson_mix(g, f, dg, df)
            if np.all(mixed > 0.0):
                w, sigma = mixed, scatter(mixed)
            else:
                dg.clear()
                df.clear()
        if sigma is None:
            sigma = scatter(g)
    raise ConvergenceError(
        f"tyler_estimator did not reach tol={TYLER_TOL} in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def identity_shrinker(p: int) -> ShrinkageCurve:
    """Trivial all-ones curve: the statistic reduces to ||y - xbar||^2."""
    if p < 1:
        raise DimensionError(f"dimension must be positive, got {p}")
    return ShrinkageCurve(values=np.ones(p))


def hotelling_shrinker(lam) -> ShrinkageCurve:
    """Classical plug-in inverse 1 / lam_i of a spectrum that passes
    check_spectrum."""
    return ShrinkageCurve(values=1.0 / check_spectrum(lam))
