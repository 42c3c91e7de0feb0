import dataclasses
import math

import numpy as np
import pytest

from hdshrink.detector import (
    Standardizer,
    criterion_batch,
    gamma_tilde_all,
    sigma_tilde2_batch,
    srht_many,
    standardization_scale,
)
from hdshrink.errors import DegenerateStatisticError, DimensionError
from hdshrink.linalg import eigh, sample_covariance
from hdshrink.mpkernel import lw_curve, semicircle_kernel
from hdshrink.shrinkers import PriorSpec, hotelling_shrinker, proposed_shrinker


class TestSrht:
    def test_ones_curve_is_squared_distance(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 12))
        spec = eigh(sample_covariance(X))
        y = rng.standard_normal(5)
        xbar = X.mean(axis=1)
        assert srht_many(y[:, None], xbar, spec, np.ones(5))[0] == pytest.approx(
            np.sum((y - xbar) ** 2), abs=1e-12
        )

    def test_zero_at_reference_mean(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 9))
        spec = eigh(sample_covariance(X))
        xbar = X.mean(axis=1)
        assert srht_many(xbar[:, None], xbar, spec, np.ones(4))[0] == 0.0

    def test_two_path_consistency(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 20))
        spec = eigh(sample_covariance(X))
        curve = rng.uniform(0.1, 2.0, 4)
        y = rng.standard_normal(4)
        xbar = X.mean(axis=1)
        direct = srht_many(y[:, None], xbar, spec, curve)[0]
        M = (spec.eigenvectors * curve) @ spec.eigenvectors.T
        via_matrix = (y - xbar) @ ((M + M.T) / 2.0) @ (y - xbar)
        assert direct == pytest.approx(via_matrix, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 9))
        spec = eigh(sample_covariance(X))
        with pytest.raises(DimensionError):
            srht_many(np.ones((5, 1)), np.ones(4), spec, np.ones(4))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 15))
        spec = eigh(sample_covariance(X))
        curve = rng.uniform(0.5, 1.5, 6)
        xbar = X.mean(axis=1)
        Y = rng.standard_normal((6, 7))
        batch = srht_many(Y, xbar, spec, curve)
        M = (spec.eigenvectors * curve) @ spec.eigenvectors.T
        M = (M + M.T) / 2.0
        singles = [(Y[:, j] - xbar) @ M @ (Y[:, j] - xbar) for j in range(7)]
        assert np.allclose(batch, singles, atol=1e-12)


class TestMuTilde:
    """The centering mu = p^{-1} sum_i f(lam_i) d(lam_i) of Standardizer."""

    def test_reciprocal_cancellation(self, identity_fit):
        _, _, curve = identity_fit
        assert Standardizer(1.0 / curve.d_tilde, curve).mu == pytest.approx(
            1.0, abs=1e-14
        )

    def test_length_mismatch(self, identity_fit):
        _, _, curve = identity_fit
        with pytest.raises(DimensionError):
            Standardizer(np.ones(199), curve)

    def test_tracks_true_mean_functional(self, identity_fit):
        # colored oracle: m_n = p^{-1} sum f(lam_i) u_i' Sigma u_i with the
        # true Sigma = I for this fixture
        X, _, curve = identity_fit
        f = hotelling_shrinker(curve.lam).values
        m_true = np.mean(f)  # u'Iu = 1
        gap = abs(Standardizer(f, curve).mu - m_true)
        assert gap <= X.shape[1] ** (-1.0 / 6.0)


class TestGammaTilde:
    def test_constant_passthrough(self, identity_fit):
        _, _, curve = identity_fit
        f = np.full(200, 2.5)
        vals = gamma_tilde_all(f[None, :], curve)[0]
        for i in (0, 100, 199):
            assert vals[i] == pytest.approx(2.5, abs=1e-12)

    def test_large_n_limit_recovers_f(self):
        lam = np.linspace(0.5, 2.0, 10)
        f = lam**2
        curve = dataclasses.replace(lw_curve(lam, 10**9), d_tilde=np.ones(10))
        vals = gamma_tilde_all(f[None, :], curve)[0]
        assert np.abs(vals - f).max() <= 1e-5

    def test_matches_bruteforce_double_loop(self, identity_fit):
        _, _, curve = identity_fit
        rng = np.random.default_rng(5)
        f = rng.uniform(0.2, 2.0, 200)
        lam, d, n = curve.lam, curve.d_tilde, curve.n
        delta = n ** (-1.0 / 3.0)
        for i in (0, 57, 199):
            total = 0.0
            for j in range(200):
                width = delta * lam[j]
                _, K = semicircle_kernel((lam[i] - lam[j]) / width)
                total += (f[j] - f[i]) * d[j] * K / width
            expected = f[i] - np.pi / n * total
            got = gamma_tilde_all(f[None, :], curve)[0, i]
            assert got == pytest.approx(expected, abs=1e-12)


class TestSigmaTilde2:
    def test_zero_shrinker(self, identity_fit):
        _, _, curve = identity_fit
        assert sigma_tilde2_batch(np.zeros((1, 200)), curve)[0] == 0.0

    def test_constant_reduction(self, identity_fit):
        _, _, curve = identity_fit
        c = 1.7
        expected = c * c * np.mean(curve.lam * curve.d_tilde)
        got = sigma_tilde2_batch(np.full((1, 200), c), curve)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_within_15_percent_of_trace_oracle(self, identity_fit):
        _, spec, curve = identity_fit
        shrink = proposed_shrinker(curve, PriorSpec("identity"))
        fS = (spec.eigenvectors * shrink.values) @ spec.eigenvectors.T
        oracle = np.trace(fS @ fS) / spec.eigenvalues.size  # Sigma = I
        got = sigma_tilde2_batch(shrink.values[None, :], curve)[0]
        assert got == pytest.approx(oracle, rel=0.15)


class TestStandardize:
    def test_zero_score_at_centering(self, identity_fit):
        _, _, curve = identity_fit
        f = np.ones(200)
        mu = np.mean(f * curve.d_tilde)
        assert Standardizer(f, curve)(mu * 200) == 0.0

    def test_affine_arithmetic(self, identity_fit):
        _, _, curve = identity_fit
        f = np.ones(200)
        score = Standardizer(f, curve)
        assert score.mu == np.mean(f * curve.d_tilde)
        assert score.sigma == standardization_scale(f[None, :], curve)[0]
        # invariant: z reconstructs exactly from the stored fields
        assert score(42.0) == (42.0 - score.mu * 200) / (
            score.sigma * math.sqrt(200)
        )

    def test_degenerate_variance_rejected(self, identity_fit):
        _, _, curve = identity_fit
        with pytest.raises(DegenerateStatisticError):
            Standardizer(np.zeros(200), curve)

    def test_scale_of_a_stack_is_each_rows_sigma(self, identity_fit):
        _, spec, curve = identity_fit
        lam = spec.eigenvalues
        F = np.stack(
            [np.ones(200), 1.0 / lam, proposed_shrinker(curve, PriorSpec("identity")).values]
        )
        sigmas = [Standardizer(f, curve).sigma for f in F]
        assert [standardization_scale(F[i : i + 1], curve)[0] for i in range(3)] == sigmas
        # Three rows go through another BLAS product than one row, which may
        # sum in another order: the proposed row reads 1 ulp off here.
        np.testing.assert_array_max_ulp(standardization_scale(F, curve), sigmas, maxulp=4)

    def test_one_degenerate_row_same_error_everywhere(self, identity_fit):
        _, _, curve = identity_fit
        F = np.stack([np.ones(200), np.zeros(200), np.full(200, 2.0)])
        with pytest.raises(DegenerateStatisticError) as standardizer:
            Standardizer(F[1], curve)
        with pytest.raises(DegenerateStatisticError) as criterion:
            criterion_batch(F, np.ones(200), curve)
        message = str(standardizer.value)
        assert message == str(criterion.value)
        assert message == "standardization scale degenerate (sigma=0.0)"

    def test_shift_invariance_of_pipeline(self):
        rng = np.random.default_rng(6)
        p, n = 30, 120
        X = rng.standard_normal((p, n))
        y = rng.standard_normal(p)
        shift = rng.standard_normal(p)

        def score(Xd, yd):
            spec = eigh(sample_covariance(Xd))
            curve = lw_curve(spec.eigenvalues, n)
            f = proposed_shrinker(curve, PriorSpec("identity"))
            t2 = srht_many(yd[:, None], Xd.mean(axis=1), spec, f.values)[0]
            return Standardizer(f.values, curve)(t2)

        z0 = score(X, y)
        z1 = score(X + shift[:, None], y + shift)
        assert z1 == pytest.approx(z0, rel=1e-9)


class TestDetectionCriterion:
    def test_scale_invariance_exact(self, identity_fit):
        _, _, curve = identity_fit
        rng = np.random.default_rng(7)
        f = rng.uniform(0.5, 1.5, 200)
        hbar = np.ones(200)
        u1 = criterion_batch(f[None, :], hbar, curve)[0]
        u2 = criterion_batch(4.0 * f[None, :], hbar, curve)[0]
        assert u2 == pytest.approx(u1, rel=1e-14)

    def test_zero_shrinker_degenerate(self, identity_fit):
        _, _, curve = identity_fit
        with pytest.raises(DegenerateStatisticError):
            criterion_batch(np.zeros((1, 200)), np.ones(200), curve)

    def test_ratio_field_consistency(self, identity_fit):
        _, _, curve = identity_fit
        f = np.ones(200)
        u = criterion_batch(f[None, :], np.ones(200), curve)[0]
        numerator = np.mean(f * np.ones(200))
        sigma = standardization_scale(f[None, :], curve)[0]
        assert u == pytest.approx(numerator / sigma, rel=1e-15)


class TestSeparationSurrogate:
    def test_h1_shift_tracks_criterion(self):
        # With signal norm gamma = p^(1/4) the mean standardized shift under
        # h1 equals the criterion value in the limit; require 80% of it.
        rng = np.random.default_rng(8)
        p, n, trials = 100, 300, 100
        gamma = p**0.25
        shifts, crits = [], []
        for _ in range(trials):
            X = rng.standard_normal((p, n))
            spec = eigh(sample_covariance(X))
            curve = lw_curve(spec.eigenvalues, n)
            f = proposed_shrinker(curve, PriorSpec("identity"))
            u = criterion_batch(f.values[None, :], np.ones(p), curve)[0]
            xbar = X.mean(axis=1)
            y0 = rng.standard_normal(p)
            direction = rng.standard_normal(p)
            y1 = y0 + gamma * direction / np.linalg.norm(direction)
            t2 = srht_many(np.column_stack([y0, y1]), xbar, spec, f.values)
            z0, z1 = Standardizer(f.values, curve)(t2)
            shifts.append(z1 - z0)
            crits.append(u)
        assert np.mean(shifts) >= 0.8 * np.mean(crits)
