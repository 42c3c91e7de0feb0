"""Semicircular-kernel estimation of the limiting spectral density, its
Hilbert transform, and the nonlinear shrinkage curve built from them, plus
closed-form and principal-value quadrature oracles for the identity model.

Conventions: the Hilbert transform carries the 1/pi factor,
Hf(x) = pi^{-1} p.v. integral f(t) / (t - x) dt, and the kernel pair is
k(x) = sqrt((4 - x^2)_+) / (2 pi) with K = Hk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, RegimeError

BANDWIDTH_EXPONENT = -1.0 / 3.0
ORACLE_GRID_POINTS = 4001


def semicircle_kernel(x):
    """Semicircle bump k and its Hilbert transform K, elementwise.

    k(x) = sqrt((4 - x^2)_+) / (2 pi)
    K(x) = (-x + sign(x) sqrt((x^2 - 4)_+)) / (2 pi)
    """
    x = np.asarray(x, dtype=float)
    k = np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)
    K = (-x + np.sign(x) * np.sqrt(np.clip(x * x - 4.0, 0.0, None))) / (2.0 * np.pi)
    if k.ndim == 0:
        return float(k), float(K)
    return k, K


def eps_den(x):
    """Denominator floor 1e-12 * max(1, x^2) used by every shrinkage ratio."""
    x = np.asarray(x, dtype=float)
    out = 1e-12 * np.maximum(1.0, x * x)
    return float(out) if out.ndim == 0 else out


def _shrinkage_limit(x, phi, w, hw):
    """x / ([1 - phi - pi phi x hw]^2 + (pi phi x w)^2), floored at eps_den(x)."""
    scale = np.pi * phi * x
    den = (1.0 - phi - scale * hw) ** 2 + (scale * w) ** 2
    return x / np.maximum(den, eps_den(x))


def _check_spectrum(lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim != 1:
        raise DimensionError("eigenvalues must form a 1-d vector")
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError("kernel estimates require strictly positive eigenvalues")
    return lam


def kernel_matrix(lam, n, x):
    """Density and Hilbert bump matrices (k_mat, K_mat) of the eigenvalues
    lam at the points x, K_mat[j, i] = K((x_i - lam_j) / (D lam_j)) / (D lam_j)
    with D = n**BANDWIDTH_EXPONENT, and k_mat likewise with k.

    Row j is the scaled bump centred at lam_j; the column means are the
    kernel estimates of the spectral density and of its Hilbert transform
    at x_i.  Each bump integrates to one.
    """
    lam = _check_spectrum(lam)
    width = float(n) ** BANDWIDTH_EXPONENT * lam[:, None]
    t = (np.atleast_1d(x)[None, :] - lam[:, None]) / width
    k, K = semicircle_kernel(t)
    return k / width, K / width


@dataclass(frozen=True)
class LwCurve:
    """Kernel density, Hilbert transform, and shrinkage values at the
    sample eigenvalues, the Hilbert bump matrix K_mat of kernel_matrix
    (shared by the shrinker and standardization sums), and the aspect ratio
    and sample size that produced them."""

    lam: np.ndarray
    w_tilde: np.ndarray
    hw_tilde: np.ndarray
    d_tilde: np.ndarray
    hilbert_matrix: np.ndarray = field(repr=False)
    phi_n: float
    n: int

    @property
    def p(self) -> int:
        return self.lam.shape[0]


def lw_curve(lam, p, n) -> LwCurve:
    """Evaluate the observable shrinkage curve at each sample eigenvalue.

    d(x) = x / ([1 - p/n - (p/n) pi x Hw~(x)]^2 + (p/n)^2 pi^2 x^2 w~(x)^2),
    with the denominator floored at eps_den(x).
    """
    lam = _check_spectrum(lam)
    if lam.shape[0] != p:
        raise DimensionError(f"expected {p} eigenvalues, got {lam.shape[0]}")
    if p >= n:
        raise RegimeError(f"shrinkage curve requires p < n, got p={p}, n={n}")
    phi = p / n
    dmat, hmat = kernel_matrix(lam, n, lam)
    # Means over j along contiguous [i, j] rows (pairwise summation); a mean
    # over axis 0 adds in another order and moves the last bits of d.
    w = np.ascontiguousarray(dmat.T).mean(axis=1)
    hw = np.ascontiguousarray(hmat.T).mean(axis=1)
    return LwCurve(
        lam=lam,
        w_tilde=w,
        hw_tilde=hw,
        d_tilde=_shrinkage_limit(lam, phi, w, hw),
        hilbert_matrix=hmat,
        phi_n=phi,
        n=int(n),
    )


def _check_uniform_grid(grid) -> float:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 8:
        raise DimensionError("pv_hilbert needs a 1-d grid of at least 8 points")
    steps = np.diff(grid)
    h = steps.mean()
    if h <= 0 or np.abs(steps - h).max() > 1e-9 * abs(h):
        raise DomainError("pv_hilbert requires a uniform, increasing grid")
    return float(h)


def _digamma(z: float) -> float:
    """Digamma for z > 0 via upward recurrence and the asymptotic series."""
    acc = 0.0
    while z < 8.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    return acc + (
        np.log(z)
        - 0.5 / z
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
    )


def pv_hilbert(f_vals, grid, x) -> float:
    """Principal-value Hilbert transform of a tabulated function at x.

    Sum over the uniform grid with the two nodes straddling the singularity
    excluded, plus the analytic correction for the excluded pair.  Writing
    theta for the fractional offset of x in its cell, the punctured sum of
    the singular part differs from the principal value by the digamma gap
    psi(1 + theta) - psi(2 - theta) and the smooth part misses 2h f'(x), so

        pv = sum + 2h f'(x) + f(x) [psi(2 - theta) - psi(1 + theta)].

    Second-order accurate for C^2 integrands, uniformly in theta; used as
    an oracle, not inside the fitted estimators.
    """
    f = np.asarray(f_vals, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if f.shape != grid.shape:
        raise DimensionError("tabulated values and grid must have equal length")
    h = _check_uniform_grid(grid)
    N = grid.shape[0]
    pos = (x - grid[0]) / h
    if not (2.0 <= pos <= N - 3.0):
        raise DomainError(
            f"x={x} is not strictly inside the grid interior [{grid[2]}, {grid[-3]}]"
        )
    df = np.gradient(f, h)
    nearest = int(round(pos))
    if abs(pos - nearest) < 1e-9:
        # x on a node: drop that node; the punctured sum of the singular
        # part is already symmetric and the smooth part misses h f'(x).
        mask = np.ones(N, dtype=bool)
        mask[nearest] = False
        total = h * np.sum(f[mask] / (grid[mask] - x))
        total += h * df[nearest]
        return float(total / np.pi)
    k = int(np.floor(pos))
    theta = pos - k
    mask = np.ones(N, dtype=bool)
    mask[k] = False
    mask[k + 1] = False
    total = h * np.sum(f[mask] / (grid[mask] - x))
    fx = (1.0 - theta) * f[k] + theta * f[k + 1]
    fpx = (1.0 - theta) * df[k] + theta * df[k + 1]
    total += 2.0 * h * fpx + fx * (_digamma(2.0 - theta) - _digamma(1.0 + theta))
    return float(total / np.pi)


def pv_hilbert_nodes(f_vals, grid) -> np.ndarray:
    """pv_hilbert evaluated at every interior grid node (indices 2..N-3).

    Returns an array aligned with the grid; the 2 outermost nodes on each
    side are NaN because the stencil cannot reach them.
    """
    f = np.asarray(f_vals, dtype=float)
    grid = np.asarray(grid, dtype=float)
    h = _check_uniform_grid(grid)
    N = grid.shape[0]
    df = np.gradient(f, h)
    out = np.full(N, np.nan)
    idx = np.arange(2, N - 2)
    # Chunk the outer difference to bound memory on long grids.
    for start in range(0, idx.size, 512):
        rows = idx[start : start + 512]
        diff = grid[None, :] - grid[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = f[None, :] / diff
        ratio[np.arange(rows.size), rows] = 0.0
        out[rows] = (h * ratio.sum(axis=1) + h * df[rows]) / np.pi
    return out


@dataclass(frozen=True)
class DensityOracle:
    """Closed-form density with quadrature-based Hilbert transform and the
    known shrinkage limit, for one aspect ratio phi."""

    phi: float
    support: tuple
    w: Callable
    Hw: Callable
    delta: Callable
    grid: np.ndarray
    w_grid: np.ndarray
    hw_grid: np.ndarray


def identity_mp_oracle(phi: float) -> DensityOracle:
    """Oracle for identity population covariance at aspect ratio phi.

    The density is the classical square-root law on
    [(1 - sqrt(phi))^2, (1 + sqrt(phi))^2]; its Hilbert transform is
    tabulated by principal-value quadrature on ORACLE_GRID_POINTS nodes; the
    shrinkage limit is identically one on the support.
    """
    if not (0.0 < phi < 1.0):
        raise DomainError(f"aspect ratio must lie in (0, 1), got {phi}")
    sq = np.sqrt(phi)
    a = (1.0 - sq) ** 2
    b = (1.0 + sq) ** 2

    def w(x):
        x = np.asarray(x, dtype=float)
        inside = (x > a) & (x < b)
        out = np.zeros_like(x, dtype=float)
        xs = np.where(inside, x, 1.0)
        vals = np.sqrt(np.clip((xs - a) * (b - xs), 0.0, None)) / (
            2.0 * np.pi * phi * xs
        )
        out = np.where(inside, vals, 0.0)
        return float(out) if out.ndim == 0 else out

    pad = 0.25 * (b - a)
    grid = np.linspace(a - pad, b + pad, ORACLE_GRID_POINTS)
    w_grid = w(grid)
    hw_grid = pv_hilbert_nodes(w_grid, grid)
    valid = ~np.isnan(hw_grid)

    def Hw(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, grid[valid], hw_grid[valid])
        return float(out) if out.ndim == 0 else out

    def delta(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        out = np.where(inside, 1.0, _shrinkage_limit(x, phi, 0.0, Hw(x)))
        return float(out) if out.ndim == 0 else out

    return DensityOracle(
        phi=phi,
        support=(a, b),
        w=w,
        Hw=Hw,
        delta=delta,
        grid=grid,
        w_grid=w_grid,
        hw_grid=hw_grid,
    )


def delta_curve(oracle: DensityOracle, x) -> float:
    """Shrinkage limit evaluated from the oracle's density and transform.

    delta(x) = x / ([1 - phi - pi phi x Hw(x)]^2 + pi^2 phi^2 x^2 w(x)^2),
    with the floored denominator shared with lw_curve.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("delta_curve requires x > 0")
    out = _shrinkage_limit(x, oracle.phi, oracle.w(x), oracle.Hw(x))
    return float(out) if out.ndim == 0 else out
