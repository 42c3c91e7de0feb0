"""Semicircular-kernel estimation of the limiting spectral density, its
Hilbert transform, and the nonlinear shrinkage curve built from them, plus
the closed-form oracle of the identity model and the principal-value
quadrature rule that shrinkers.fstar_curve uses.

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


def semicircle_kernel(x):
    """Semicircle bump k and its Hilbert transform K, elementwise.

    k(x) = sqrt((4 - x^2)_+) / (2 pi)
    K(x) = (-x + sign(x) sqrt((x^2 - 4)_+)) / (2 pi)
    """
    x = np.asarray(x, dtype=float)
    k = np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)
    K = (-x + np.sign(x) * np.sqrt(np.clip(x * x - 4.0, 0.0, None))) / (2.0 * np.pi)
    return k, K


def _shrinkage_limit(x, phi, w, hw):
    """x / ([1 - phi - pi phi x hw]^2 + (pi phi x w)^2), floored at 1e-12."""
    scale = np.pi * phi * x
    den = (1.0 - phi - scale * hw) ** 2 + (scale * w) ** 2
    return x / np.maximum(den, 1e-12)


def check_spectrum(lam) -> np.ndarray:
    """lam as a float vector if it is a usable spectrum, else a DomainError.
    The one rule: finite, with lam_min > p eps lam_max (numpy's matrix_rank
    tolerance), which is scale-free, like every ratio built on lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise DimensionError("eigenvalues must form a nonempty 1-d vector")
    low, high = lam.min(), lam.max()
    if not low > lam.size * np.finfo(float).eps * high:  # NaN and inf fail too
        raise DomainError(
            f"the spectrum is singular or not finite: smallest eigenvalue {low:.3g}, "
            f"largest {high:.3g}, p = {lam.size}"
        )
    return lam


def kernel_matrix(lam, n, x):
    """Density and Hilbert bump matrices (k_mat, K_mat) of the eigenvalues
    lam at the points x, K_mat[j, i] = K((x_i - lam_j) / (D lam_j)) / (D lam_j)
    with D = n**BANDWIDTH_EXPONENT, and k_mat likewise with k.

    Row j is the scaled bump centred at lam_j; the column means are the
    kernel estimates of the spectral density and of its Hilbert transform
    at x_i.  Each bump integrates to one.
    """
    lam = check_spectrum(lam)
    width = float(n) ** BANDWIDTH_EXPONENT * lam[:, None]
    t = (np.atleast_1d(x)[None, :] - lam[:, None]) / width
    k, K = semicircle_kernel(t)
    return k / width, K / width


@dataclass(frozen=True)
class LwCurve:
    """Kernel density, Hilbert transform, and shrinkage values at the
    sample eigenvalues, the Hilbert bump matrix K_mat of kernel_matrix
    (shared by the shrinker and standardization sums), and the sample size
    that produced them."""

    lam: np.ndarray
    w_tilde: np.ndarray
    hw_tilde: np.ndarray
    d_tilde: np.ndarray
    hilbert_matrix: np.ndarray = field(repr=False)
    n: int

    @property
    def p(self) -> int:
        return self.lam.shape[0]

    @property
    def phi_n(self) -> float:
        return self.p / self.n


def lw_curve(lam, n) -> LwCurve:
    """Evaluate the observable shrinkage curve at the p sample eigenvalues lam.

    d(x) = x / ([1 - p/n - (p/n) pi x Hw~(x)]^2 + (p/n)^2 pi^2 x^2 w~(x)^2),
    with the denominator floored at 1e-12.  kernel_matrix checks lam.
    """
    lam = np.asarray(lam, dtype=float)
    p = lam.size
    if p >= n:
        raise RegimeError(f"shrinkage curve requires p < n, got p={p}, n={n}")
    dmat, hmat = kernel_matrix(lam, n, lam)
    # Means over j along contiguous [i, j] rows (pairwise summation); a mean
    # over axis 0 adds in another order and moves the last bits of d.
    w = np.ascontiguousarray(dmat.T).mean(axis=1)
    hw = np.ascontiguousarray(hmat.T).mean(axis=1)
    return LwCurve(
        lam=lam,
        w_tilde=w,
        hw_tilde=hw,
        d_tilde=_shrinkage_limit(lam, p / n, w, hw),
        hilbert_matrix=hmat,
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


def _digamma(z) -> np.ndarray:
    """Digamma for z > 0 via upward recurrence and the asymptotic series,
    elementwise."""
    z = np.array(z, dtype=float)
    acc = np.zeros_like(z)
    while np.any(z < 8.0):
        low = z < 8.0
        acc -= np.where(low, 1.0 / z, 0.0)
        z = np.where(low, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    return acc + (
        np.log(z)
        - 0.5 / z
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
    )


def pv_hilbert(f_vals, grid, xs):
    """Principal-value Hilbert transform of a tabulated function at the
    points xs.

    Sum over the uniform grid with the two nodes k, k + 1 around each x
    excluded, plus the analytic correction for the excluded pair.  Writing
    theta in [0, 1) for the fractional offset of x in its cell, the
    punctured sum of the singular part differs from the principal value by
    the digamma gap psi(1 + theta) - psi(2 - theta), and the smooth part
    misses the pair's h [g(t_k) + g(t_k+1)], g(t) = (f(t) - f(x)) / (t - x),
    which is 2h f'(x) + (1/2 - theta) h^2 f''(x) to second order, so

        pv = sum + 2h f'(x) + (1/2 - theta) h^2 f''(x)
             + f(x) [psi(2 - theta) - psi(1 + theta)].

    Second-order accurate for C^2 integrands, uniformly in theta, a node
    (theta = 0) included.  The f'' term makes the rule continuous where the
    excluded pair moves on at a node; without it the value would jump by
    the second difference of f there over pi.  Used as an oracle, not
    inside the fitted estimators.
    """
    f = np.asarray(f_vals, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if f.shape != grid.shape:
        raise DimensionError("tabulated values and grid must have equal length")
    h = _check_uniform_grid(grid)
    N = grid.shape[0]
    x = np.asarray(xs, dtype=float)
    flat = x.ravel()
    pos = (flat - grid[0]) / h
    # Nodes 2 and N - 3 are inside, whichever way their offset rounds.
    if not np.all((pos > 2.0 - 1e-9) & (pos < N - 3.0 + 1e-9)):
        raise DomainError(
            f"points must lie inside the grid interior [{grid[2]}, {grid[-3]}]"
        )
    k = np.floor(pos).astype(int)
    theta = pos - k
    df = np.gradient(f, h)
    d2f = np.zeros(N)  # h^2 f'' at the nodes, by second differences
    d2f[1:-1] = f[:-2] - 2.0 * f[1:-1] + f[2:]
    fx = (1.0 - theta) * f[k] + theta * f[k + 1]
    fpx = (1.0 - theta) * df[k] + theta * df[k + 1]
    f2x = (1.0 - theta) * d2f[k] + theta * d2f[k + 1]
    punctured = np.empty(pos.size)
    # Chunk the outer difference to bound memory on long grids.
    for start in range(0, pos.size, 512):
        rows = slice(start, start + 512)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = f[None, :] / (grid[None, :] - flat[rows, None])
        r = np.arange(ratio.shape[0])
        ratio[r, k[rows]] = 0.0
        ratio[r, k[rows] + 1] = 0.0
        punctured[rows] = ratio.sum(axis=1)
    total = h * punctured + 2.0 * h * fpx + (0.5 - theta) * f2x
    total += fx * (_digamma(2.0 - theta) - _digamma(1.0 + theta))
    return (total / np.pi).reshape(x.shape)


@dataclass(frozen=True)
class DensityOracle:
    """Closed-form density w and Hilbert transform Hw for one aspect ratio
    phi; delta is lw_curve's shrinkage limit at them."""

    phi: float
    support: tuple
    w: Callable
    Hw: Callable

    def delta(self, x):
        return _shrinkage_limit(x, self.phi, self.w(x), self.Hw(x))


def identity_mp_oracle(phi: float) -> DensityOracle:
    """Oracle for identity population covariance at aspect ratio phi.

    The density is the classical square-root law on [a, b] =
    [(1 - sqrt(phi))^2, (1 + sqrt(phi))^2].  Its Hilbert transform is the
    real part of the Stieltjes transform m(x + i0) over pi, the root of
    phi z m^2 - (1 - phi - z) m + 1 = 0 (Marchenko & Pastur 1967):

        Hw(x) = (1 - phi - x + sign(x - 1 - phi) sqrt(((x - a)(x - b))_+))
                / (2 pi phi x),  x > 0.

    Its delta is one on the support.
    """
    if not (0.0 < phi < 1.0):
        raise DomainError(f"aspect ratio must lie in (0, 1), got {phi}")
    sq = np.sqrt(phi)
    a = (1.0 - sq) ** 2
    b = (1.0 + sq) ** 2

    def w(x):
        x = np.asarray(x, dtype=float)
        inside = (x > a) & (x < b)
        xs = np.where(inside, x, 1.0)
        vals = np.sqrt(np.clip((xs - a) * (b - xs), 0.0, None)) / (
            2.0 * np.pi * phi * xs
        )
        return np.where(inside, vals, 0.0)

    def Hw(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("the identity oracle requires x > 0")
        root = np.sqrt(np.clip((x - a) * (x - b), 0.0, None))
        root *= np.sign(x - 1.0 - phi)
        return (1.0 - phi - x + root) / (2.0 * np.pi * phi * x)

    return DensityOracle(phi=phi, support=(a, b), w=w, Hw=Hw)
