import numpy as np
import pytest


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
