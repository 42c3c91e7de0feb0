import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, quad_vec

from hdshrink.mpkernel import BANDWIDTH_EXPONENT, semicircle_kernel


def haar_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def spd_root(Sigma):
    vals, vecs = np.linalg.eigh((Sigma + Sigma.T) / 2.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def spectral_matrix(spec, c):
    """sum_i c_i u_i u_i' on the eigenvectors of an eigh result, symmetrized."""
    M = (spec.eigenvectors * c) @ spec.eigenvectors.T
    return (M + M.T) / 2.0


def pv_of_semicircle(x):
    """Hilbert transform of the bump k of semicircle_kernel at x, 1/pi
    included: QUADPACK's QAWC rule for p.v. integral k(t) / (t - x) dt on
    [-2, 2], an integration warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, _ = quad(lambda t: semicircle_kernel(t)[0], -2.0, 2.0, weight="cauchy", wvar=x)
    return val / np.pi


def pv_of_kernel_density(lam, n, xs, bound):
    """Hilbert transform, 1/pi included, of the kernel density of the
    eigenvalues lam (kernel_matrix's column mean) at points xs inside its
    support [a, b], by subtracting the singularity:

        p.v. integral w(t) / (t - x) dt
            = integral (w(t) - w(x)) / (t - x) dt + w(x) ln((b - x) / (x - a)).

    The regular integral is one adaptive Gauss-Kronrod pass (quad_vec) over
    all of xs, with breakpoints at every bump edge and at xs.  Its error
    estimate over pi must stay below a tenth of the caller's bound.
    """
    lam = np.asarray(lam, dtype=float)
    xs = np.asarray(xs, dtype=float)
    width = float(n) ** BANDWIDTH_EXPONENT * lam
    edges = np.concatenate([lam - 2.0 * width, lam + 2.0 * width])
    a, b = edges.min(), edges.max()
    centers, scale = lam[:, None], width[:, None]

    def density(t):
        return (semicircle_kernel((t - centers) / scale)[0] / scale).mean(axis=0)

    wx = density(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        regular, err, info = quad_vec(
            lambda t: (density(t) - wx) / (t - xs),
            a,
            b,
            epsabs=1e-3,
            points=np.concatenate([edges, xs]),
            full_output=True,
        )
    assert info.success, info.message
    assert err / np.pi < bound / 10.0, f"quadrature error estimate {err / np.pi:.2e}"
    return (regular + wx * np.log((b - xs) / (xs - a))) / np.pi


def write_rss_csv(series, path):
    """Write an RssSeries in the t,label,ch_0001,... layout at 17 digits."""
    header = ",".join(["t", "label"] + [f"ch_{i:04d}" for i in range(1, series.p + 1)])
    data = np.column_stack([series.timestamps, series.activity, series.channels])
    fmt = ["%.17g", "%d"] + ["%.17g"] * series.p
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=header, comments="")


@pytest.fixture(scope="session")
def identity_fit():
    """One shared identity-covariance fit at p=200, n=1000."""
    from hdshrink.linalg import eigh, sample_covariance
    from hdshrink.mpkernel import lw_curve

    rng = np.random.default_rng(7)
    p, n = 200, 1000
    X = rng.standard_normal((p, n))
    spec = eigh(sample_covariance(X))
    curve = lw_curve(spec.eigenvalues, n)
    return X, spec, curve
