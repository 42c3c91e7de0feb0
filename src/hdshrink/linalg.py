"""Dense symmetric linear algebra: sample covariance, eigendecomposition,
Cholesky factors and triangular solves, plus control of the BLAS thread
count.

Data matrices are p x n arrays whose columns are observations.  All
operations are pure; returned arrays are freshly allocated.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .errors import DataError, DimensionError, NumericError

SYMMETRY_RTOL = 1e-12
FORWARD_BLOCK = 64  # rows per diagonal block in forward_substitute


@functools.lru_cache(maxsize=None)
def blas_thread_control():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    when its exported setter is not found.  Looked up on first use, through
    numpy's core extension module, which links that OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with BLAS at one thread, then restore the previous
    count.  Without the OpenBLAS setter the thread count is left alone
    (set OPENBLAS_NUM_THREADS=1 instead)."""
    control = blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def validate_data_matrix(X: np.ndarray) -> np.ndarray:
    """Check a p x n data matrix (columns are samples) and return it as float64."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"data matrix must be 2-d, got shape {X.shape}")
    p, n = X.shape
    if p < 1:
        raise DimensionError("data matrix needs at least one row")
    if n < 2:
        raise DimensionError(f"need at least 2 samples (columns), got {n}")
    if not np.all(np.isfinite(X)):
        raise DataError("data matrix contains non-finite entries")
    return X


def validate_symmetric(M: np.ndarray) -> np.ndarray:
    """Check that M is square, finite, and symmetric to relative 1e-12."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DataError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise DataError("matrix is not symmetric to relative 1e-12")
    return M


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """Bessel-corrected sample covariance of the columns of X (p x n)."""
    X = validate_data_matrix(X)
    n = X.shape[1]
    centered = X - X.mean(axis=1, keepdims=True)
    # numpy computes a @ a.T with syrk and mirrors it: exactly symmetric.
    return centered @ centered.T / (n - 1)


def eigh(S: np.ndarray):
    """numpy's EighResult of a symmetric S: eigenvalues ascending, eigenvectors
    the matching orthonormal columns with LAPACK's signs, which no statistic
    reads, as each squares a projection on a column.  LAPACK reads only the
    lower triangle of S: every producer is exactly symmetric, so S is
    decomposed as validated, with no (S + S') / 2 copy."""
    S = validate_symmetric(S)
    try:
        return np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed on {S.shape[0]}x{S.shape[0]} matrix "
            f"(trace={np.trace(S):.6g}, max|entry|={np.abs(S).max():.6g}): {exc}"
        ) from exc


def forward_substitute(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for a nonsingular lower-triangular L, by blocked forward
    substitution: each block of FORWARD_BLOCK rows has the solved rows above
    it eliminated, then is solved with the inverse of its diagonal block, so
    the work is matrix products throughout.  Every product goes to one
    block-sized buffer, not to a fresh array per block."""
    Y = np.array(B, dtype=float, order="C")
    p = L.shape[0]
    buf = np.empty((min(FORWARD_BLOCK, p), Y.shape[1]))
    for k in range(0, p, FORWARD_BLOCK):
        e = min(k + FORWARD_BLOCK, p)
        t = buf[: e - k]
        if k:
            np.matmul(L[k:e, :k], Y[:k], out=t)
            Y[k:e] -= t
        np.matmul(np.linalg.inv(L[k:e, k:e]), Y[k:e], out=t)
        Y[k:e] = t
    return Y


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite S."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"matrix lost positive definiteness: {exc}") from exc


def inverse_quadratic_forms(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """d_j' S^{-1} d_j for every column d_j of D, as ||L^{-1} d_j||^2 from
    the Cholesky factor L of S."""
    Z = forward_substitute(L, D)
    return np.einsum("ij,ij->j", Z, Z)


def load_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated matrix; shape is inferred."""
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataError(f"failed to parse matrix CSV {path}: {exc}") from exc
    if not np.all(np.isfinite(M)):
        raise DataError(f"matrix CSV {path} contains non-finite entries")
    return M
