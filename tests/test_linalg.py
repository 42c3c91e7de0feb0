import numpy as np
import pytest

from hdshrink.errors import DataError, DimensionError, NumericError
from hdshrink.linalg import eigh, forward_substitute, load_matrix, sample_covariance
from hdshrink.shrinkers import tyler_estimator

from conftest import spectral_matrix


class TestSampleCovariance:
    def test_hand_computed_1d(self):
        S = sample_covariance(np.array([[1.0, 3.0]]))
        assert S.shape == (1, 1)
        assert S[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_identical_columns_give_zero(self):
        X = np.tile(np.array([[2.0], [5.0], [-1.0]]), (1, 6))
        assert np.abs(sample_covariance(X)).max() == 0.0

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 5))
        S = sample_covariance(X)
        xbar = X.mean(axis=1)
        for i in range(3):
            for j in range(3):
                expected = sum(
                    (X[i, k] - xbar[i]) * (X[j, k] - xbar[j]) for k in range(5)
                ) / 4.0
                assert S[i, j] == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 9))
        shift = rng.standard_normal((4, 1))
        S0 = sample_covariance(X)
        S1 = sample_covariance(X + shift)
        assert np.abs(S0 - S1).max() <= 1e-10 * (1 + np.abs(S0).max())

    def test_needs_two_samples(self):
        with pytest.raises(DimensionError):
            sample_covariance(np.ones((3, 1)))

    def test_rejects_nonfinite(self):
        X = np.ones((2, 3))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            sample_covariance(X)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("estimate", [sample_covariance, tyler_estimator])
def test_covariance_estimates_exactly_symmetric(estimate, order):
    # Neither estimate symmetrizes its result: numpy's a @ a.T goes to syrk,
    # which mirrors one triangle.  rss passes an F-ordered transpose.
    X = np.asarray(np.random.default_rng(9).standard_normal((37, 90)), order=order)
    S = estimate(X)
    assert np.array_equal(S, S.T)


class TestEigh:
    def test_identity(self):
        spec = eigh(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_with_permutation_vectors(self):
        spec = eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
        perm = np.abs(spec.eigenvectors)
        assert np.allclose(perm @ perm.T, np.eye(3), atol=1e-12)
        assert np.allclose(sorted(np.argmax(perm, axis=0)), [0, 1, 2])

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        S = (A + A.T) / 2.0
        spec = eigh(S)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(rebuilt - S).max() <= 1e-8 * (1 + np.abs(S).max())

    def test_orthonormal(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        spec = eigh((A + A.T) / 2.0)
        U = spec.eigenvectors
        assert np.abs(U.T @ U - np.eye(6)).max() <= 1e-10

    def test_deterministic_signs(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 5))
        S = (A + A.T) / 2.0
        u1 = eigh(S).eigenvectors
        u2 = eigh(S.copy()).eigenvectors
        assert np.array_equal(u1, u2)

    def test_small_asymmetry_absorbed(self):
        S = np.eye(3)
        S[0, 1] += 1e-14
        spec = eigh(S)
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_returns_numpys_result_unchanged(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        S = (A + A.T) / 2.0
        spec, reference = eigh(S), np.linalg.eigh(S)
        assert type(spec) is type(reference)
        assert spec.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == reference.eigenvectors.tobytes()

    def test_lapack_failure_is_a_numeric_error(self, monkeypatch):
        def failing(S):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericError, match="eigensolver failed on 3x3 matrix"):
            eigh(np.eye(3))


class TestApplySpectral:
    """f(S) = U diag(c) U' rebuilt from eigh's eigenpairs."""

    def test_identity_curve_reproduces_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        S = (A + A.T) / 2.0
        spec = eigh(S)
        assert np.abs(spectral_matrix(spec, spec.eigenvalues) - S).max() <= 1e-10

    def test_ones_curve_gives_identity(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        spec = eigh((A + A.T) / 2.0)
        assert np.abs(spectral_matrix(spec, np.ones(4)) - np.eye(4)).max() <= 1e-10

    def test_reciprocal_curve_inverts(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 8))
        S = sample_covariance(A) + 0.5 * np.eye(4)
        spec = eigh(S)
        inv = spectral_matrix(spec, 1.0 / spec.eigenvalues)
        assert np.abs(inv - np.linalg.inv(S)).max() <= 1e-8

    def test_roundtrip_recovers_curve(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = rng.standard_normal((5, 5))
            spec = eigh((A + A.T) / 2.0)
            c = rng.uniform(0.1, 3.0, 5)
            M = spectral_matrix(spec, c)
            back = eigh(M).eigenvalues
            assert np.abs(back - np.sort(c)).max() <= 1e-8


class TestForwardSubstitute:
    @pytest.mark.parametrize("p", [1, 63, 64, 65, 130])
    def test_matches_solve(self, p):
        # p around the 64-row block: below it, at it, one row past it, and
        # three blocks.
        rng = np.random.default_rng(p)
        G = rng.standard_normal((p, p))
        L = np.linalg.cholesky(np.eye(p) + G @ G.T / p)  # condition <= ~5
        B = rng.standard_normal((p, 14))[:, ::2]  # non-contiguous columns
        before = B.copy()
        Y = forward_substitute(L, B)
        ref = np.linalg.solve(L, B)
        assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(B, before)


class TestQuadraticForm:
    def test_nonnegative_on_sample_covariances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            X = rng.standard_normal((5, 8))
            S = sample_covariance(X)
            v = rng.standard_normal(5)
            assert v @ S @ v >= -1e-12


class TestCsvIO:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 4))
        path = tmp_path / "m.csv"
        np.savetxt(path, M, delimiter=",")
        assert np.abs(load_matrix(path) - M).max() <= 1e-12

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.5, -2.25, 3.0])
        path = tmp_path / "v.csv"
        np.savetxt(path, v[None, :], delimiter=",")
        M = load_matrix(path)
        assert M.shape == (1, 3)
        assert np.allclose(M.ravel(), v)

    def test_no_header_and_comma_separator(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.5,4.5\n")
        M = load_matrix(path)
        assert M.shape == (2, 2)
        assert M[1, 0] == 3.5
