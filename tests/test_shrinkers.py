import dataclasses
import functools
import tracemalloc
from collections import deque

import numpy as np
import pytest

import hdshrink.shrinkers
from hdshrink.detector import criterion_batch, srht_many
from hdshrink.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateStatisticError,
    DomainError,
    NumericError,
    RegimeError,
)
from hdshrink.linalg import cholesky, eigh, inverse_quadratic_forms, sample_covariance
from hdshrink.mpkernel import identity_mp_oracle, lw_curve
from hdshrink.shrinkers import (
    LAPPW_GRID,
    PRIOR_MODES,
    PriorSpec,
    TYLER_DEPTH,
    TYLER_TOL,
    fstar_curve,
    hbar_values,
    hotelling_shrinker,
    identity_shrinker,
    lappw_select_b,
    lw_comparator,
    proposed_shrinker,
    ridge_shrinker,
    tyler_estimator,
)
from hdshrink.simulate import _draw, _spd_root, make_covariance, substream

from conftest import spectral_matrix

ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))


def _criterion(F, prior, curve):
    """Detection criterion of each row of F (or of one vector) under prior."""
    u = criterion_batch(np.atleast_2d(F), hbar_values(prior, curve), curve)
    return u if np.ndim(F) == 2 else u[0]


class TestHbarValues:
    def test_identity_mode_is_ones(self, identity_fit):
        _, _, curve = identity_fit
        assert np.array_equal(hbar_values(PriorSpec("identity"), curve), np.ones(200))

    def test_covariance_matched_is_d_tilde(self, identity_fit):
        _, _, curve = identity_fit
        hb = hbar_values(PriorSpec("covariance_matched"), curve)
        assert np.array_equal(hb, curve.d_tilde)

    def test_covariance_matched_near_one_for_identity_data(self, identity_fit):
        _, _, curve = identity_fit
        hb = hbar_values(PriorSpec("covariance_matched"), curve)
        assert np.abs(hb - 1.0).mean() <= 0.1

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ConfigError):
            PriorSpec("spiked")


class TestProposedShrinker:
    def test_close_to_limit_on_identity_data(self, identity_fit):
        _, _, curve = identity_fit
        shrink = proposed_shrinker(curve, PriorSpec("identity"))
        oracle = identity_mp_oracle(0.2)
        a, b = oracle.support
        lam = curve.lam
        xs = np.clip(lam, a + 1e-4, b - 1e-4)
        fs = fstar_curve(oracle, ONES, xs)
        assert np.abs(shrink.values - fs).mean() <= 0.15

    def test_scaling_equivariance_inverse_square(self):
        # Precision values of the scaled problem are 1/c^2 times the
        # original: the criterion is scale-free in f, and this formula's
        # representative carries the prior's fixed normalization.
        rng = np.random.default_rng(0)
        lam = np.sort(rng.uniform(0.5, 2.0, 50))
        c = 2.5
        base = proposed_shrinker(lw_curve(lam, 400), PriorSpec("identity"))
        scaled = proposed_shrinker(lw_curve(c * lam, 400), PriorSpec("identity"))
        assert np.allclose(scaled.values, base.values / c**2, rtol=1e-10, atol=1e-12)

    def test_nonnegative_and_bounded(self, identity_fit):
        _, _, curve = identity_fit
        for mode in ("identity", "covariance_matched"):
            shrink = proposed_shrinker(curve, PriorSpec(mode))
            assert np.all(shrink.values >= 0.0)
            assert shrink.values.max() <= 10.0 * (1.0 / curve.d_tilde).max()

    def test_values_match_docstring_formulas(self, identity_fit):
        _, _, curve = identity_fit
        shrink = proposed_shrinker(curve, PriorSpec("identity"))
        phi, lam, p, K = curve.phi_n, curve.lam, curve.p, curve.hilbert_matrix
        hbar = np.ones(p)
        H = hbar @ K / p
        g = 1 - phi - phi * np.pi * lam * curve.hw_tilde
        Gbar = -phi * np.pi * lam
        xi = (g**2 * hbar + g * Gbar * H) / (curve.d_tilde * lam)
        eta = (Gbar**2 * H + Gbar * g * hbar) / (curve.d_tilde * lam)
        assert np.allclose(shrink.values, np.maximum(xi - eta @ K / p, 0.0))

    def test_requires_p_below_n(self):
        lam = np.linspace(0.5, 1.5, 20)
        curve = lw_curve(lam, 100)
        bad = dataclasses.replace(curve, n=10)
        with pytest.raises(RegimeError):
            proposed_shrinker(bad, PriorSpec("identity"))


class TestFstarOracle:
    def test_zero_prior_weight_gives_zero(self):
        oracle = identity_mp_oracle(0.2)
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert fstar_curve(oracle, zero, [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_regression_value(self):
        # Quadrature value at the default grid; the identity model's exact
        # limit at x=1 is 1, approached as the grid refines.
        oracle = identity_mp_oracle(0.2)
        assert fstar_curve(oracle, ONES, [1.0])[0] == pytest.approx(
            1.0000004989012066, abs=1e-9
        )
        assert fstar_curve(oracle, ONES, [1.0])[0] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("phi", [0.1, 0.2, 0.5, 0.8])
    def test_identity_model_limit_is_one(self, phi):
        # delta = 1 and hbar = 1 make f* exactly 1 (fstar_curve docstring);
        # what is left is the quadrature error of pv_hilbert.
        oracle = identity_mp_oracle(phi)
        a, b = oracle.support
        xs = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 101)
        assert np.abs(fstar_curve(oracle, ONES, xs) - 1.0).max() <= 1e-4

    def test_rejects_x_outside_support(self):
        oracle = identity_mp_oracle(0.2)
        with pytest.raises(DomainError):
            fstar_curve(oracle, ONES, [5.0])


class TestLwComparator:
    def test_identity_data_near_one(self, identity_fit):
        _, _, curve = identity_fit
        assert np.abs(lw_comparator(curve).values - 1.0).mean() <= 0.12

    def test_reciprocal_monotone(self, identity_fit):
        _, _, curve = identity_fit
        vals = lw_comparator(curve).values
        d = curve.d_tilde
        i, j = int(np.argmin(d)), int(np.argmax(d))
        assert vals[i] > vals[j]

    def test_exact_reciprocal(self, identity_fit):
        _, _, curve = identity_fit
        product = lw_comparator(curve).values * curve.d_tilde
        assert np.abs(product - 1.0).max() <= 1e-15


class TestRidgeShrinker:
    def test_hand_values(self):
        curve = ridge_shrinker(np.array([1.0, 2.0]), 1.0)
        assert np.allclose(curve.values, [0.5, 1.0 / 3.0])

    def test_large_b_vanishes(self):
        vals = ridge_shrinker(np.array([1.0, 2.0]), 1e12).values
        assert np.all(vals <= 1e-11)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 12))
        S = sample_covariance(X)
        spec = eigh(S)
        b = 0.7
        shrunk = spectral_matrix(spec, ridge_shrinker(spec.eigenvalues, b).values)
        direct = np.linalg.inv(S + b * np.eye(4))
        assert np.abs(shrunk - direct).max() <= 1e-8

    def test_rejects_nonpositive_b(self):
        with pytest.raises(DomainError):
            ridge_shrinker(np.array([1.0]), 0.0)


RIDGE_CONFIGS = [
    (200, 300, 1e2, "uniform"),
    (100, 300, 1e3, "gaussian"),
    (800, 1200, 1e4, "uniform"),
]


@functools.lru_cache(maxsize=None)
def _ridge_fit(p, n, kappa, dist, seed):
    """Shrinkage curve of one reference sample drawn from make_covariance."""
    root = _spd_root(make_covariance(p, kappa, seed))
    X = _draw(substream(seed, "ridge-fit"), root, dist, n)
    return lw_curve(eigh(sample_covariance(X)).eigenvalues, n)


def _lappw_direct_reference(curve, prior, grid_points=10_000):
    """The full-grid search that lappw_select_b replaced: criterion_batch on
    every grid row, 4096 rows at a time, ties to the smaller b.  Returns the
    intercept and u at every grid point."""
    lam = curve.lam
    hbar = hbar_values(prior, curve)
    bs = np.geomspace(lam.mean(), 20.0 * lam.max(), int(grid_points))
    best_u = -np.inf
    best_b = bs[0]
    us = []
    for start in range(0, bs.size, 4096):
        bchunk = bs[start : start + 4096]
        u = criterion_batch(1.0 / (lam[None, :] + bchunk[:, None]), hbar, curve)
        us.append(u)
        j = int(np.argmax(u))
        if u[j] > best_u:
            best_u = float(u[j])
            best_b = float(bchunk[j])
    return best_b, np.concatenate(us)


class TestLappwSelectB:
    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("config", RIDGE_CONFIGS)
    def test_matches_direct_search(self, config, seed, mode):
        curve = _ridge_fit(*config, seed)
        prior = PriorSpec(mode)
        assert lappw_select_b(curve, prior) == _lappw_direct_reference(curve, prior)[0]

    @pytest.mark.parametrize("kappa", [1e2, 1e4])
    def test_matches_direct_search_on_criterion_7_configs(self, kappa):
        curve = _ridge_fit(200, 300, kappa, "uniform", 7)
        prior = PriorSpec("identity")
        assert lappw_select_b(curve, prior) == _lappw_direct_reference(curve, prior)[0]

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.01, 3.0)])
    def test_interior_argmax(self, alpha, beta):
        # Unit prior weights with weights lam d = alpha (lam + beta mean(lam))
        # favour f = 1/(lam + beta mean(lam)) when G is near the identity,
        # a ridge inside the grid; the argmax stays interior for both scales.
        fit = _ridge_fit(200, 300, 1e2, "uniform", 1)
        d = alpha * (1.0 + beta * fit.lam.mean() / fit.lam)
        curve = dataclasses.replace(fit, d_tilde=d)
        prior = PriorSpec("identity")
        b_ref, u = _lappw_direct_reference(curve, prior)
        assert 0 < int(np.argmax(u)) < u.size - 1
        assert np.any(np.diff(u) > 0) and np.any(np.diff(u) < 0)
        assert lappw_select_b(curve, prior) == b_ref

    def test_near_refined_maximum(self, identity_fit):
        # A grid four times finer gains less than 1e-6 of the criterion.
        _, _, curve = identity_fit
        prior = PriorSpec("identity")
        _, u_fine = _lappw_direct_reference(curve, prior, 4 * LAPPW_GRID)
        b = lappw_select_b(curve, prior)
        u_b = _criterion(1.0 / (curve.lam + b), prior, curve)
        assert u_b >= u_fine.max() * (1 - 1e-6)

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("grid_points", [2, 50, 500])
    def test_matches_direct_search_on_small_grids(self, grid_points, mode):
        # The criterion peaks at mean(lam) on this fit, so a grid of any
        # size over the range and the search pick that same float.
        curve = _ridge_fit(200, 300, 1e2, "uniform", 1)
        prior = PriorSpec(mode)
        b_ref, _ = _lappw_direct_reference(curve, prior, grid_points)
        assert lappw_select_b(curve, prior) == b_ref

    @pytest.mark.parametrize("ties", [[0, -1], slice(None)])
    def test_tie_goes_to_smaller_b(self, monkeypatch, ties):
        # The stand-in criterion is 1 at the tied grid intercepts and 0
        # elsewhere: the two ends of the range, which the first round both
        # evaluates, or every grid point, a constant criterion.  Either way
        # the search keeps the lower end, mean(lam).
        curve = lw_curve(np.full(60, 2.0), 200)
        tied = np.geomspace(2.0, 40.0, LAPPW_GRID)[ties]

        def tied_criterion(F, hbar, curve):
            b = 1.0 / F[:, 0] - 2.0
            return np.isclose(b[:, None], tied, rtol=1e-12).any(axis=1) * 1.0

        monkeypatch.setattr(hdshrink.shrinkers, "criterion_batch", tied_criterion)
        assert lappw_select_b(curve, PriorSpec("identity")) == curve.lam.mean() == 2.0

    def test_degenerate_scale_raises(self, identity_fit):
        _, _, fit = identity_fit
        curve = dataclasses.replace(fit, d_tilde=np.zeros(fit.p))
        with pytest.raises(DegenerateStatisticError):
            _lappw_direct_reference(curve, PriorSpec("identity"))
        with pytest.raises(DegenerateStatisticError):
            lappw_select_b(curve, PriorSpec("identity"))

    def test_peak_memory_at_most_2_mb_at_p800(self):
        curve = _ridge_fit(800, 1200, 1e4, "uniform", 1)
        tracemalloc.start()
        try:
            lappw_select_b(curve, PriorSpec("identity"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


def _tyler_input(p, n, seed=11):
    rng = np.random.default_rng(seed)
    return np.geomspace(1.0, 10.0, p)[:, None] * rng.standard_normal((p, n))


def _tyler_lu_reference(X, rho=0.1, tol=1e-13, max_iter=500):
    """The fixed point by the plain iteration from the identity, with q from
    an LU solve per iteration, run to a tolerance far below TYLER_TOL."""
    p, n = X.shape
    Xc = X - X.mean(axis=1, keepdims=True)
    sigma = np.eye(p)
    for _ in range(max_iter):
        q = np.einsum("ij,ij->j", Xc, np.linalg.solve(sigma, Xc))
        W = Xc / np.sqrt(q)
        updated = W @ W.T
        updated *= (1.0 - rho) * (p / n)
        updated[np.diag_indices(p)] += rho
        updated *= p / np.trace(updated)
        updated = (updated + updated.T) / 2.0
        residual = np.linalg.norm(updated - sigma) / np.linalg.norm(sigma)
        sigma = updated
        if residual <= tol:
            return sigma
    raise AssertionError("reference did not converge")


def _plain_step_change(T, X, rho):
    """Relative Frobenius change of T under one plain fixed-point step."""
    p, n = X.shape
    Xc = X - X.mean(axis=1, keepdims=True)
    q = np.einsum("ij,ij->j", Xc, np.linalg.solve(T, Xc))
    step = (1 - rho) * (p / n) * ((Xc / q) @ Xc.T) + rho * np.eye(p)
    step *= p / np.trace(step)
    return np.linalg.norm(step - T) / np.linalg.norm(T)


def _sim_accept_reference(p=200, n=300, seed=1, kappa=100.0):
    """The first trial's reference sample of a simulate configuration with
    uniform components; by default the acceptance one (kappa = 100)."""
    root = _spd_root(make_covariance(p, kappa, seed))
    return _draw(substream(seed, "trial", 0, "train"), root, "uniform", n)


def _scatter(Xc, w, rho):
    """tyler_estimator's trace-normalized scatter of the weights w."""
    p, n = Xc.shape
    W = Xc * np.sqrt(w)
    S = W @ W.T
    S *= (1.0 - rho) * (p / n)
    S[np.diag_indices(p)] += rho
    S *= p / np.trace(S)
    return S


def _tyler_every_image(X, rho=0.1, max_iter=500):
    """tyler_estimator with the image S(g) formed and compared on every
    iteration, as before the diagonal bound let it skip the image."""
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=1, keepdims=True)
    n = X.shape[1]
    w = np.full(n, n / np.einsum("ij,ij->j", Xc, Xc).sum())
    sigma = _scatter(Xc, w, rho)
    dg, df = deque(maxlen=TYLER_DEPTH), deque(maxlen=TYLER_DEPTH)
    residual = np.inf
    for it in range(max_iter):
        g = 1.0 / inverse_quadratic_forms(cholesky(sigma), Xc)
        image = _scatter(Xc, g, rho)
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
            mixed = hdshrink.shrinkers._anderson_mix(g, f, dg, df)
            if np.all(mixed > 0.0):
                w, sigma = mixed, _scatter(Xc, mixed, rho)
            else:
                dg.clear()
                df.clear()
    raise ConvergenceError("reference did not converge", residual=residual)


# (name, sample, rho) on which tyler_estimator must keep the bytes of the
# image-every-iteration loop; the Cauchy one clears its mixing history.
TYLER_BYTES_CASES = [
    ("sim-accept", lambda: _sim_accept_reference(), 0.1),
    ("geomspace 50 x 90", lambda: _tyler_input(50, 90), 0.1),
    ("cauchy rho 0", lambda: np.random.default_rng(0).standard_cauchy((50, 90)), 0.0),
    ("p > n", lambda: _tyler_input(60, 40), 0.1),
    ("sim-large", lambda: _sim_accept_reference(800, 1200, kappa=1e4), 0.1),
]


class TestTylerEstimator:
    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 40))
        A = tyler_estimator(X)
        B = tyler_estimator(-5.5 * X)
        assert np.abs(A - B).max() <= 1e-12

    def test_recovers_sphericity(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2, 2000))
        T = tyler_estimator(X, rho=0.1)
        assert np.abs(T - np.eye(2)).max() <= 0.1

    def test_fixed_point_residual_below_tol(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 60))
        T = tyler_estimator(X, rho=0.2)
        assert _plain_step_change(T, X, 0.2) <= 10 * TYLER_TOL

    def test_trace_normalized_and_spd(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 30))
        T = tyler_estimator(X, rho=0.1)
        assert np.trace(T) == pytest.approx(6.0, rel=1e-12)
        assert np.linalg.eigvalsh(T).min() > 0

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 20))
        with pytest.raises(ConvergenceError) as err:
            tyler_estimator(X, rho=0.1, max_iter=2)
        assert err.value.residual is not None

    def test_rho_validated(self):
        with pytest.raises(DomainError):
            tyler_estimator(np.ones((2, 4)), rho=1.0)

    @pytest.mark.parametrize("p, n", [(50, 90), (200, 300)])
    def test_matches_lu_solve_reference(self, p, n):
        # The reference runs to 1e-13. Stopped at TYLER_TOL, the plain
        # iteration lands 5.2e-9 / 7.2e-9 from it here, this one 5.7e-9 / 4.6e-9.
        X = _tyler_input(p, n)
        ref = _tyler_lu_reference(X)
        T = tyler_estimator(X)
        assert np.linalg.norm(T - ref) <= 2 * TYLER_TOL * np.linalg.norm(ref)

    @pytest.mark.parametrize("p, n", [(50, 90), (200, 300)])
    def test_one_plain_step_moves_result_at_most_10_tol(self, p, n):
        X = _tyler_input(p, n)
        assert _plain_step_change(tyler_estimator(X), X, 0.1) <= 10 * TYLER_TOL

    def test_max_iter_threshold_then_identical_bytes(self):
        # bench/run.py counts iterations by bisecting on max_iter, which
        # needs one K: ConvergenceError below it, the same result from it on.
        X = _sim_accept_reference()
        K = 1
        while True:
            try:
                first = tyler_estimator(X, max_iter=K)
                break
            except ConvergenceError:
                K += 1
        assert K <= 12
        for k in (K + 1, K + 2, K + 7, 500):
            assert tyler_estimator(X, max_iter=k).tobytes() == first.tobytes()

    def test_nonpositive_mixed_weights_take_plain_step(self, monkeypatch):
        mixed = []

        def spy(*args):
            w = anderson_mix(*args)
            mixed.append(bool(np.all(w > 0.0)))
            return w

        anderson_mix = hdshrink.shrinkers._anderson_mix
        monkeypatch.setattr(hdshrink.shrinkers, "_anderson_mix", spy)
        X = np.random.default_rng(0).standard_cauchy((50, 90))
        T = tyler_estimator(X, rho=0.0)
        assert False in mixed and True in mixed
        assert _plain_step_change(T, X, 0.0) <= 10 * TYLER_TOL

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    def test_cauchy_samples_reach_fixed_point(self, rho):
        X = np.random.default_rng(3).standard_cauchy((50, 90))
        T = tyler_estimator(X, rho=rho)
        assert _plain_step_change(T, X, rho) <= 10 * TYLER_TOL
        ref = _tyler_lu_reference(X, rho=rho)
        assert np.linalg.norm(T - ref) <= 5 * TYLER_TOL * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "make, rho", [c[1:] for c in TYLER_BYTES_CASES], ids=[c[0] for c in TYLER_BYTES_CASES]
    )
    def test_skipped_images_keep_every_byte(self, make, rho):
        X = make()
        assert tyler_estimator(X, rho=rho).tobytes() == _tyler_every_image(X, rho).tobytes()
        for k in (1, 2, 3):
            with pytest.raises(ConvergenceError) as ours:
                tyler_estimator(X, rho=rho, max_iter=k)
            with pytest.raises(ConvergenceError) as ref:
                _tyler_every_image(X, rho, max_iter=k)
            assert ours.value.residual == ref.value.residual, k

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    @pytest.mark.parametrize("p, n", [(30, 80), (80, 30)])
    def test_diagonal_change_bounds_frobenius_change(self, p, n, rho):
        rng = np.random.default_rng(12)
        X = _tyler_input(p, n)
        Xc = X - X.mean(axis=1, keepdims=True)
        sq_norms = np.einsum("ij,ij->j", Xc, Xc)
        # Weights on the scale of 1 / q, as the iteration's are. A spread
        # moves weight between samples; a rescaling moves it between the
        # data part and the rho I part of the trace-normalized scatter.
        w = rng.uniform(0.5, 2.0, n) * p / sq_norms
        spreads = (1e-9, 1e-4, 1e-1, 1.0, 3.0)
        for g in [w * np.exp(s * rng.standard_normal(n)) for s in spreads] + [3.0 * w]:
            Sg, Sw = _scatter(Xc, g, rho), _scatter(Xc, w, rho)
            bound = hdshrink.shrinkers._diagonal_change(Xc, sq_norms, rho, g, w)
            assert bound <= np.linalg.norm(Sg - Sw)
            assert bound == pytest.approx(np.linalg.norm(np.diag(Sg - Sw)), rel=1e-6, abs=1e-12)

    def test_non_positive_definite_iterate_raises(self):
        # A coordinate that is zero in every sample leaves a zero row and
        # column in the unregularized scatter, so its factorization fails.
        X = _tyler_input(6, 40)
        X[-1] = 0.0
        with pytest.raises(NumericError, match="positive definiteness"):
            tyler_estimator(X, rho=0.0)


class TestSimpleShrinkers:
    def test_identity_values(self):
        assert np.array_equal(identity_shrinker(3).values, np.ones(3))

    def test_identity_apply_spectral_exact(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4))
        spec = eigh((A + A.T) / 2.0)
        assert np.abs(spectral_matrix(spec, identity_shrinker(4).values) - np.eye(4)).max() <= 1e-12

    def test_identity_srht_is_squared_distance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 10))
        spec = eigh(sample_covariance(X))
        y = rng.standard_normal(4)
        xbar = X.mean(axis=1)
        t2 = srht_many(y[:, None], xbar, spec, identity_shrinker(4).values)[0]
        assert t2 == pytest.approx(np.sum((y - xbar) ** 2), abs=1e-10)

    def test_hotelling_values(self):
        assert np.allclose(hotelling_shrinker(np.array([2.0, 4.0])).values, [0.5, 0.25])

    def test_hotelling_composes_to_inverse(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 20))
        S = sample_covariance(X)
        spec = eigh(S)
        inv = spectral_matrix(spec, hotelling_shrinker(spec.eigenvalues).values)
        assert np.abs(inv - np.linalg.inv(S)).max() <= 1e-8

    def test_hotelling_matches_bruteforce_statistic(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 200))
        S = sample_covariance(X)
        spec = eigh(S)
        y = rng.standard_normal(5)
        xbar = X.mean(axis=1)
        f = hotelling_shrinker(spec.eigenvalues).values
        t2 = srht_many(y[:, None], xbar, spec, f)[0]
        v = y - xbar
        assert t2 == pytest.approx(v @ np.linalg.inv(S) @ v, rel=1e-10)

    def test_hotelling_rejects_near_singular(self):
        with pytest.raises(DomainError):
            hotelling_shrinker(np.array([1e-22, 1.0]))
