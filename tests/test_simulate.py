import dataclasses
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import hdshrink.mpkernel
import hdshrink.scoring
import hdshrink.shrinkers
import hdshrink.simulate
from hdshrink.cli import main
from hdshrink.detector import Standardizer, srht_many
from hdshrink.errors import ConfigError, DataError, DomainError, RegimeError
from hdshrink.linalg import blas_thread_control, sample_covariance
from hdshrink.rss import RssExperimentConfig, RssSeries, rss_experiment
from hdshrink.scoring import METHODS, Failure, ScoreBlock, parse_config
from hdshrink.shrinkers import PriorSpec, tyler_estimator
from hdshrink.simulate import (
    ExperimentConfig,
    _draw,
    _oracle_pilot_terms,
    _signal,
    _spd_root,
    calibrate_gamma,
    load_config,
    make_covariance,
    run_trials,
    substream,
    write_scores_csv,
)

SMALL = ExperimentConfig(
    p=50,
    n=90,
    kappa=100.0,
    gamma=3.0,
    trials=3,
    tests_per_trial_h0=8,
    tests_per_trial_h1=8,
    component_dist="uniform",
    seed=11,
    methods=("proposed", "identity"),
)


class TestMakeCovariance:
    def test_eigenvalue_extremes(self):
        sigma = make_covariance(200, 100.0, seed=0)
        vals = np.linalg.eigvalsh(sigma)
        assert vals.max() == pytest.approx(100.0, abs=1e-8)
        assert vals.min() == pytest.approx(1.0, abs=1e-8)

    def test_flat_spikes_at_kappa_one(self):
        sigma = make_covariance(100, 1.0, seed=1)
        vals = np.linalg.eigvalsh(sigma)
        assert vals.max() / vals.min() == pytest.approx(10 ** (1 / 40), rel=1e-8)

    def test_recipe_multiset_roundtrip(self):
        p, kappa = 60, 50.0
        sigma = make_covariance(p, kappa, seed=2)
        got = np.sort(np.linalg.eigvalsh(sigma))
        spikes = kappa ** (np.arange(1, 41) / 40)
        bulk = 10.0 ** ((np.arange(1, p - 39) - 1) / (40 * (p - 41)))
        expected = np.sort(np.concatenate([spikes, bulk]))
        assert np.abs(got - expected).max() <= 1e-8

    def test_small_p_rejected_with_hint(self):
        with pytest.raises(ConfigError, match="needs p >= 42 .* Sigma= to run_trials"):
            make_covariance(41, 10.0, seed=0)

    def test_blas_pinned_and_restored(self, monkeypatch):
        control = blas_thread_control()
        if control is None:
            pytest.skip("OpenBLAS thread setter not found")
        get, set_ = control
        original = get()
        set_(2)
        try:
            before = get()
            seen = []
            real = hdshrink.simulate._haar

            def spy(*args):
                seen.append(get())
                return real(*args)

            monkeypatch.setattr(hdshrink.simulate, "_haar", spy)
            make_covariance(60, 10.0, seed=0)
            assert seen == [1]
            assert get() == before
        finally:
            set_(original)


class TestSampleTraining:
    def test_component_variance_both_modes(self):
        for dist in ("uniform", "gaussian"):
            X = _draw(substream(3, "train"), np.eye(4), dist, 25_000)
            assert X.var() == pytest.approx(1.0, abs=0.03)

    def test_uniform_support_bounded(self):
        X = _draw(substream(4, "train"), np.eye(3), "uniform", 10_000)
        assert np.abs(X).max() <= np.sqrt(3.0)

    def test_lln_identity_covariance(self):
        X = _draw(substream(5, "train"), _spd_root(np.eye(50)), "gaussian", 5000)
        S = sample_covariance(X)
        assert np.abs(S - np.eye(50)).max() <= 0.1

    def test_non_pd_rejected(self):
        bad = np.diag([1.0, 0.0])
        with pytest.raises(DataError):
            _spd_root(bad)

    def test_asymmetric_covariance_rejected(self):
        # Asymmetry beyond relative 1e-12 is an input error, not averaged away.
        skewed = np.eye(3)
        skewed[0, 1] = 1e-9
        with pytest.raises(DataError, match="not symmetric"):
            _spd_root(skewed)


class TestSampleTest:
    def test_signal_norm_exact(self):
        rng = substream(7, "sig")
        sig = _signal(rng, np.eye(20), PriorSpec("identity"), 2.5, 40)
        norms = np.linalg.norm(sig, axis=0)
        assert np.abs(norms - 2.5).max() <= 1e-12

    def test_h1_requires_positive_gamma(self):
        with pytest.raises(ConfigError, match="gamma must be positive"):
            ExperimentConfig(p=44, n=80, gamma=0.0)

    def test_signal_direction_uniform_on_sphere(self):
        rng = substream(9, "sphere")
        sig = _signal(rng, np.eye(10), PriorSpec("identity"), 1.0, 10_000)
        mean_direction = sig.mean(axis=1)
        assert np.linalg.norm(mean_direction) <= 0.05

    def test_h0_vector_shape(self):
        y = _draw(substream(10, "test", False), np.eye(6), "gaussian", 1)
        assert y.shape == (6, 1)


class TestRunTrials:
    def test_one_kernel_matrix_per_fit(self, monkeypatch):
        cfg = ExperimentConfig(
            p=44, n=70, kappa=10.0, gamma=2.0, trials=1, tests_per_trial_h0=4,
            tests_per_trial_h1=4, seed=3,
        )
        real = hdshrink.mpkernel.kernel_matrix
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hdshrink.mpkernel, "kernel_matrix", counting)
        out = run_trials(cfg, Sigma=make_covariance(cfg.p, cfg.kappa, cfg.seed), threads=1)[0]
        assert all(isinstance(f, ScoreBlock) for f in out.fits)
        assert len(calls) == 1

    def test_identity_method_reduces_to_squared_distance(self):
        cfg = ExperimentConfig(
            p=50,
            n=90,
            kappa=100.0,
            gamma=3.0,
            trials=1,
            tests_per_trial_h0=5,
            tests_per_trial_h1=5,
            seed=12,
            methods=("identity",),
        )
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        out = run_trials(cfg, Sigma=sigma)[0]
        root = _spd_root(sigma)
        rng_train = substream(cfg.seed, "trial", 0, "train")
        X = _draw(rng_train, root, cfg.component_dist, cfg.n)
        rng_h0 = substream(cfg.seed, "trial", 0, "test_h0")
        Y0 = _draw(rng_h0, root, cfg.component_dist, 5)
        expected = np.sum((Y0 - X.mean(axis=1)[:, None]) ** 2, axis=0)
        (block,) = out.fits
        assert np.allclose(block.score_raw[~block.label_h1], expected, rtol=1e-12)

    def test_tyler_scores_match_direct_quadratic_form(self):
        cfg = dataclasses.replace(SMALL, trials=1, methods=("tyler",))
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        out = run_trials(cfg, Sigma=sigma)[0]
        root = _spd_root(sigma)
        rng_train = substream(cfg.seed, "trial", 0, "train")
        X = _draw(rng_train, root, cfg.component_dist, cfg.n)
        rng_h0 = substream(cfg.seed, "trial", 0, "test_h0")
        D = _draw(rng_h0, root, cfg.component_dist, 8)
        D -= X.mean(axis=1)[:, None]
        P = np.linalg.inv(tyler_estimator(X))
        expected = np.array([d @ P @ d for d in D.T])
        (block,) = out.fits
        h0_raw = block.score_raw[~block.label_h1]
        assert np.allclose(h0_raw, expected, rtol=1e-12, atol=0.0)

    def test_deterministic_rerun(self, tmp_path):
        sigma = make_covariance(SMALL.p, SMALL.kappa, SMALL.seed)
        a = _scores_csv_bytes(run_trials(SMALL, Sigma=sigma), tmp_path / "a.csv")
        b = _scores_csv_bytes(run_trials(SMALL, Sigma=sigma), tmp_path / "b.csv")
        assert a == b

    def test_thread_count_invariance(self, tmp_path):
        sigma = make_covariance(SMALL.p, SMALL.kappa, SMALL.seed)
        a = _scores_csv_bytes(run_trials(SMALL, Sigma=sigma, threads=1), tmp_path / "a.csv")
        b = _scores_csv_bytes(run_trials(SMALL, Sigma=sigma, threads=8), tmp_path / "b.csv")
        assert a == b

    def test_blas_pinned_in_trials_and_restored(self, monkeypatch):
        control = blas_thread_control()
        if control is None:
            pytest.skip("OpenBLAS thread setter not found")
        get, set_ = control
        original = get()
        set_(2)
        try:
            before = get()
            seen = []
            real = hdshrink.simulate.fit_and_score

            def spy(*args):
                seen.append(get())
                return real(*args)

            def failing(*args):
                raise RuntimeError("trial failed")

            monkeypatch.setattr(hdshrink.simulate, "fit_and_score", spy)
            run_trials(SMALL, threads=2)
            assert seen == [1] * SMALL.trials
            assert get() == before
            monkeypatch.setattr(hdshrink.simulate, "fit_and_score", failing)
            with pytest.raises(RuntimeError):
                run_trials(SMALL, threads=2)
            assert get() == before
        finally:
            set_(original)

    def test_workers_clamped_to_cores_and_trials(self, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        rng = substream(3, "clamp")
        activity = np.arange(60) % 10 == 0
        series = RssSeries(np.arange(60.0), rng.standard_normal((60, 3)), activity)
        rss_cfg = RssExperimentConfig(n=20, resamples=5, methods=("cq",))

        monkeypatch.setattr(hdshrink.scoring, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(hdshrink.scoring.os, "cpu_count", lambda: 2)
        run_trials(SMALL, threads=8)
        rss_experiment(series, rss_cfg, threads=8)
        run_trials(SMALL)  # default: the core count
        monkeypatch.setattr(hdshrink.scoring.os, "cpu_count", lambda: 16)
        run_trials(SMALL, threads=8)
        rss_experiment(series, rss_cfg, threads=8)
        run_trials(SMALL)
        rss_experiment(series, rss_cfg)
        assert sizes == [2, 2, 2, SMALL.trials, 5, SMALL.trials, 5]

    def test_method_failures_recorded_per_trial(self, monkeypatch):
        def singular(X):
            raise RegimeError("forced tyler failure")

        monkeypatch.setattr(hdshrink.shrinkers, "tyler_estimator", singular)
        cfg = ExperimentConfig(
            p=30,
            n=10,
            kappa=1.0,
            gamma=1.0,
            trials=1,
            tests_per_trial_h0=2,
            tests_per_trial_h1=2,
            seed=13,
            methods=("tyler", "cq"),
        )
        out = run_trials(cfg, Sigma=np.eye(30))[0]
        tyler, cq = out.fits
        assert isinstance(tyler, Failure) and tyler.method == "tyler"
        assert isinstance(cq, ScoreBlock) and cq.method == "cq"

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_unstandardized_z_repeats_raw_in_its_own_array(self, n_blocks):
        cfg = ExperimentConfig(p=12, n=40, seed=15, methods=("tyler", "cq"))
        rng = substream(15, "unstandardized")
        X = rng.standard_normal((12, 40))
        blocks = [rng.standard_normal((12, 5)) for _ in range(n_blocks)]
        labels = np.arange(5 * n_blocks) >= 5
        fits = hdshrink.scoring.fit_and_score(cfg, X, blocks, labels, trial=0)
        assert [f.method for f in fits] == ["tyler", "cq"]
        for block in fits:
            assert isinstance(block, ScoreBlock)
            assert np.array_equal(block.score_z, block.score_raw)
            assert not np.shares_memory(block.score_z, block.score_raw)

    def test_tyler_and_cq_fit_reads_no_spectrum(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum computed for tyler and cq")

        for name in ("sample_covariance", "eigh", "lw_curve"):
            monkeypatch.setattr(hdshrink.scoring, name, forbidden)
        cfg = ExperimentConfig(p=12, n=40, seed=15, methods=("tyler", "cq"))
        rng = substream(15, "no-spectrum")
        X, Y = rng.standard_normal((12, 40)), rng.standard_normal((12, 6))
        fits = hdshrink.scoring.fit_and_score(cfg, X, [Y], np.arange(6) >= 3, trial=0)
        assert [type(f) for f in fits] == [ScoreBlock, ScoreBlock]

    def test_curve_failure_fails_each_spectral_method_alike(self, monkeypatch):
        calls = []

        def no_curve(lam, n):
            calls.append(n)
            raise DomainError("forced curve failure")

        monkeypatch.setattr(hdshrink.scoring, "lw_curve", no_curve)
        cfg = ExperimentConfig(p=12, n=40, seed=15, methods=("proposed", "lw", "tyler", "cq"))
        rng = substream(15, "no-curve")
        X, Y = rng.standard_normal((12, 40)), rng.standard_normal((12, 6))
        fits = hdshrink.scoring.fit_and_score(cfg, X, [Y], np.arange(6) >= 3, trial=4)
        assert [f.method for f in fits] == list(cfg.methods)
        failure = Failure(4, "proposed", "DomainError", "forced curve failure")
        assert fits[:2] == [failure, failure._replace(method="lw")]
        assert [type(f) for f in fits[2:]] == [ScoreBlock, ScoreBlock]
        assert calls == [40, 40]  # a failed read is not kept: each method retries

    def test_h0_scores_finite_across_methods(self):
        cfg = ExperimentConfig(
            p=50,
            n=90,
            kappa=100.0,
            gamma=3.0,
            trials=2,
            tests_per_trial_h0=10,
            tests_per_trial_h1=10,
            seed=14,
        )
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        outputs = run_trials(cfg, Sigma=sigma)
        for out in outputs:
            assert [f.method for f in out.fits] == list(cfg.methods)
            for block in out.fits:
                assert isinstance(block, ScoreBlock)
                assert block.label_h1.tolist() == [False] * 10 + [True] * 10
                assert np.all(np.isfinite(block.score_z))
                assert np.all(np.isfinite(block.score_raw))

    def test_spectral_methods_require_p_below_n(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p=100, n=80, methods=("proposed",))

    @pytest.mark.parametrize("method", ["tyler", "cq", "bogus"])
    def test_spectral_curve_rejects_a_method_without_one(self, method):
        fit = hdshrink.scoring.fit_reference(substream(16, "curve").standard_normal((12, 40)))
        with pytest.raises(ConfigError, match="no spectral curve for"):
            hdshrink.scoring.spectral_curve(method, fit, PriorSpec())

    @pytest.mark.parametrize("method", hdshrink.scoring.SPECTRAL_METHODS)
    def test_spectral_z_is_free_of_data_units(self, method):
        # The statistic is degree-0 homogeneous in the data, and a power of
        # two rescales every float exactly, so z keeps its bits.
        root = _spd_root(make_covariance(60, 100.0, 1))
        rng = substream(1, "units")
        X, Y = _draw(rng, root, "gaussian", 100), _draw(rng, root, "gaussian", 20)

        def z(c):
            fit = hdshrink.scoring.fit_reference(c * X)
            return hdshrink.scoring.build_scorer(method, fit, PriorSpec())(c * Y)[0]

        reference = z(1.0)
        for k in (20, -10, -20):
            assert np.array_equal(z(2.0**k), reference), k


def _projection_fit(n_blocks, transposed, tag):
    """A 7-method config, a 12 x 40 reference and n_blocks test blocks of 5
    columns, C-ordered or transposed views (rss's layout)."""
    cfg = ExperimentConfig(p=12, n=40, seed=17)
    rng = substream(17, "projection", tag)
    X = rng.standard_normal((12, 40))
    if transposed:
        blocks = [rng.standard_normal((5, 12)).T for _ in range(n_blocks)]
    else:
        blocks = [rng.standard_normal((12, 5)) for _ in range(n_blocks)]
    return cfg, X, blocks, np.arange(5 * n_blocks) >= 5


def _counting_projection(monkeypatch):
    """Count detector.squared_projection calls; keep a weak reference to
    each result, which is dead once the result is dropped."""
    real, made = hdshrink.detector.squared_projection, []

    def counting(*args):
        Q = real(*args)
        made.append(weakref.ref(Q))
        return Q

    monkeypatch.setattr(hdshrink.detector, "squared_projection", counting)
    return made


class TestSharedProjection:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_spectral_scores_match_srht_many_per_block(self, n_blocks, transposed):
        cfg, X, blocks, labels = _projection_fit(n_blocks, transposed, "bytes")
        fits = hdshrink.scoring.fit_and_score(cfg, X, blocks, labels, trial=0)
        assert [type(f) for f in fits] == [ScoreBlock] * len(METHODS)
        ref = hdshrink.scoring.fit_reference(X)
        for block in fits:
            if block.method not in hdshrink.scoring.SPECTRAL_METHODS:
                continue
            values = hdshrink.scoring.spectral_curve(block.method, ref, cfg.prior).values
            to_z = Standardizer(values, ref.curve)
            raw = [srht_many(Y, ref.xbar, ref.spec, values) for Y in blocks]
            assert np.array_equal(block.score_raw, np.concatenate(raw)), block.method
            assert np.array_equal(block.score_z, np.concatenate([to_z(r) for r in raw]))

    @pytest.mark.parametrize(
        "methods, calls", [(METHODS, 2), (("tyler", "cq"), 0), (("cq", "identity"), 2)]
    )
    def test_one_projection_per_block(self, monkeypatch, methods, calls):
        made = _counting_projection(monkeypatch)
        cfg, X, blocks, labels = _projection_fit(2, False, "count")
        cfg = dataclasses.replace(cfg, methods=methods)
        fits = hdshrink.scoring.fit_and_score(cfg, X, blocks, labels, trial=0)
        assert [type(f) for f in fits] == [ScoreBlock] * len(methods)
        assert len(made) == calls
        assert all(ref() is None for ref in made)  # nothing keeps one past the fit

    def test_wrong_row_count_fails_each_spectral_method_alike(self):
        cfg, X, _, labels = _projection_fit(1, False, "rows")
        Y = substream(17, "projection", "short").standard_normal((11, 5))
        fits = hdshrink.scoring.fit_and_score(cfg, X, [Y], labels, trial=3)
        assert [f.method for f in fits] == list(METHODS)
        message = "projection dims disagree: Y (11, 5), xbar (12,), p=12"
        for f in fits:
            if f.method in hdshrink.scoring.SPECTRAL_METHODS:
                assert f == Failure(3, f.method, "DimensionError", message)

    def test_failure_on_last_block_leaves_only_the_failure(self, monkeypatch):
        real = hdshrink.scoring.build_scorer

        def second_block_fails(method, fit, prior):
            scorer, seen = real(method, fit, prior), []

            def score(Y):
                seen.append(Y)
                if method == "lw" and len(seen) == 2:
                    raise RuntimeError("forced block-2 failure")
                return scorer(Y)

            return score

        monkeypatch.setattr(hdshrink.scoring, "build_scorer", second_block_fails)
        cfg, X, blocks, labels = _projection_fit(2, False, "late")
        fits = hdshrink.scoring.fit_and_score(cfg, X, blocks, labels, trial=5)
        assert [f.method for f in fits] == list(METHODS)
        (failed,) = [f for f in fits if isinstance(f, Failure)]
        assert failed == Failure(5, "lw", "RuntimeError", "forced block-2 failure")
        for block in fits:
            if block is not failed:
                assert block.score_z.shape == block.score_raw.shape == (10,)

    def test_tyler_and_cq_score_before_the_projection(self, monkeypatch):
        made = _counting_projection(monkeypatch)
        real, events = hdshrink.scoring.build_scorer, []

        def logged(method, fit, prior):
            scorer = real(method, fit, prior)

            def score(Y):
                events.append((method, sum(ref() is not None for ref in made)))
                return scorer(Y)

            return score

        monkeypatch.setattr(hdshrink.scoring, "build_scorer", logged)
        cfg, X, blocks, labels = _projection_fit(2, False, "order")
        hdshrink.scoring.fit_and_score(cfg, X, blocks, labels, trial=0)
        # Per block: tyler and cq with no projection alive, then the first
        # spectral method makes the block's one, which the others share.
        first, *rest = [m for m in METHODS if m in hdshrink.scoring.SPECTRAL_METHODS]
        per_block = [("tyler", 0), ("cq", 0), (first, 0)] + [(m, 1) for m in rest]
        assert events == per_block * 2
        assert len(made) == 2


def _scores_csv_bytes(outputs, path):
    write_scores_csv(outputs, path)
    return path.read_bytes()


def _reference_scores_lines(outputs):
    """scores.csv lines (with header) as formatted one row at a time, the
    H0 tests then the H1 tests of each method."""
    lines = ["trial,method,label_h1,score_z,score_raw"]
    for trial, out in enumerate(outputs):
        for block in out.fits:
            for h in (0, 1):
                mine = block.label_h1 == h
                for z, raw in zip(block.score_z[mine], block.score_raw[mine]):
                    lines.append(f"{trial},{block.method},{h},{z:.17g},{raw:.17g}")
    return lines


def test_scores_csv_matches_per_row_formatting(tmp_path):
    sigma = make_covariance(SMALL.p, SMALL.kappa, SMALL.seed)
    outputs = run_trials(dataclasses.replace(SMALL, methods=METHODS), Sigma=sigma)
    reference = _reference_scores_lines(outputs)
    assert len(reference) == 1 + SMALL.trials * len(METHODS) * 16
    write_scores_csv(outputs, tmp_path / "scores.csv")
    assert (tmp_path / "scores.csv").read_bytes() == "".join(
        line + "\n" for line in reference
    ).encode()


def _direct_pilot_scores(cfg, sigma, gamma, pilots=20):
    """Pilot scores formed as calibration once did: Y1 = noise1 + gamma*sig
    - xbar, redrawn for every gamma, scored with a direct quadratic form."""
    root, Sigma_inv = _spd_root(sigma), np.linalg.inv(sigma)
    m = 40
    h0_all, h1_all = [], []
    for t in range(pilots):
        rng = substream(cfg.seed, "pilot", t)
        X = _draw(rng, root, cfg.component_dist, cfg.n)
        xbar = X.mean(axis=1)
        noise0 = _draw(rng, root, cfg.component_dist, m)
        noise1 = _draw(rng, root, cfg.component_dist, m)
        sig = _signal(rng, root, cfg.prior, 1.0, m)
        Y0 = noise0 - xbar[:, None]
        Y1 = noise1 + gamma * sig - xbar[:, None]
        h0_all.append(np.einsum("ij,ij->j", Y0, Sigma_inv @ Y0))
        h1_all.append(np.einsum("ij,ik,kj->j", Y1, Sigma_inv, Y1))
    return np.concatenate(h0_all), np.concatenate(h1_all)


def _pilot_scores(cfg, sigma, gamma, pilots=20):
    """H0/H1 pilot scores from calibrate_gamma's terms: the H1 score is
    the quadratic A + 2*gamma*B + gamma**2*C in the signal scale."""
    root, Sigma_inv = _spd_root(sigma), np.linalg.inv(sigma)
    h0, A, B, C = _oracle_pilot_terms(cfg, root, Sigma_inv, pilots)
    return h0, A + 2.0 * gamma * B + gamma**2 * C


def _reference_calibration(cfg, sigma):
    """The bracket-then-bisect search, redrawing the pilots at every step."""
    from hdshrink.evaluate import power_at_fpr, roc

    def power(gamma):
        return power_at_fpr(roc(*_direct_pilot_scores(cfg, sigma, gamma)), 0.1)

    lo, hi = 0.0, float(np.sqrt(np.trace(sigma) / cfg.p))
    for _ in range(40):
        if power(hi) >= 0.5:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise AssertionError("reference calibration failed to bracket")
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if power(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return hi


class TestGammaCalibration:
    def test_oracle_power_near_half(self):
        cfg = ExperimentConfig(
            p=42, n=80, kappa=10.0, gamma=None, trials=1, seed=15
        )
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        gamma = calibrate_gamma(cfg, sigma)
        from hdshrink.evaluate import power_at_fpr, roc

        h0, h1 = _pilot_scores(cfg, sigma, gamma)
        assert power_at_fpr(roc(h0, h1), 0.1) == pytest.approx(0.5, abs=0.1)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                p=42, n=80, kappa=10.0, gamma=None, trials=1, seed=4,
                component_dist="uniform", prior=PriorSpec("identity"),
            ),
            ExperimentConfig(
                p=60, n=150, kappa=10.0, gamma=None, trials=1, seed=5,
                component_dist="gaussian", prior=PriorSpec("covariance_matched"),
            ),
        ],
        ids=["uniform-identity", "gaussian-covariance_matched"],
    )
    def test_matches_redrawing_bisection(self, cfg):
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        assert calibrate_gamma(cfg, sigma) == _reference_calibration(cfg, sigma)

    def test_h1_scores_match_direct_quadratic_form(self):
        cfg = ExperimentConfig(
            p=50, n=90, kappa=100.0, gamma=None, trials=1, seed=16,
            prior=PriorSpec("covariance_matched"),
        )
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        gamma = 3.7
        h0, h1 = _pilot_scores(cfg, sigma, gamma, pilots=4)
        ref_h0, ref_h1 = _direct_pilot_scores(cfg, sigma, gamma, pilots=4)
        assert np.array_equal(h0, ref_h0)
        assert np.allclose(h1, ref_h1, rtol=1e-12, atol=0.0)


class TestConfigFile:
    def test_every_key_parses(self):
        text = (
            "p = 60\nn = 100\nkappa = 50\ngamma = 2.5\n"
            "prior.mode = covariance_matched\ntrials = 4\n"
            "tests_per_trial_h0 = 7\ntests_per_trial_h1 = 9\n"
            "component_dist = gaussian\nseed = 13\nmethods = lw, cq\n"
        )
        keys = {line.split(" = ")[0].split(".")[0] for line in text.splitlines()}
        assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert parse_config(ExperimentConfig, text) == ExperimentConfig(
            p=60,
            n=100,
            kappa=50.0,
            gamma=2.5,
            prior=PriorSpec("covariance_matched"),
            trials=4,
            tests_per_trial_h0=7,
            tests_per_trial_h1=9,
            component_dist="gaussian",
            seed=13,
            methods=("lw", "cq"),
        )

    def test_readme_block_names_every_key(self):
        # README's "simulate config, with every key" block parses and
        # names every field, so the documented keys follow the dataclass.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("The simulate config, with every key:")[1]
        block = block.split("```")[1]
        parse_config(ExperimentConfig, block)
        named = {
            line.split("#")[0].split("=")[0].strip()
            for line in block.splitlines()
            if "=" in line.split("#")[0]
        }
        fields = set()
        for f in dataclasses.fields(ExperimentConfig):
            if f.name == "prior":
                fields |= {f"prior.{g.name}" for g in dataclasses.fields(PriorSpec)}
            else:
                fields.add(f.name)
        assert named == fields

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(ExperimentConfig, "p = 10\nbogus = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(ExperimentConfig, "p = 10\np = 20\n")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(ExperimentConfig, "kappa = ten\n")

    def test_empty_method_list_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("p = 44\nn = 70\nmethods =\n")
        with pytest.raises(ConfigError, match="at least one method"):
            load_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_repeated_method_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("p = 44\nn = 70\nmethods = lw, lw, identity\n")
        with pytest.raises(ConfigError, match=r"repeated methods \['lw'\]"):
            load_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_comments_and_auto_gamma(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# tiny experiment\np = 44\nn = 66\ngamma = auto\n"
            "methods = proposed, identity\nprior.mode = covariance_matched\n"
        )
        cfg = load_config(path)
        assert cfg.p == 44 and cfg.gamma is None
        assert cfg.methods == ("proposed", "identity")
        assert cfg.prior.mode == "covariance_matched"

    @pytest.mark.parametrize(
        "line", ["tail.mode = hanson_wright", "tail.c = 0.25"], ids=["mode", "c"]
    )
    def test_tail_keys_rejected(self, tmp_path, line):
        path = tmp_path / "cfg"
        path.write_text(f"p = 44\n{line}\n")
        with pytest.raises(ConfigError, match="line 2: unknown key 'tail"):
            load_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2


class TestSubstream:
    def test_role_separation(self):
        a = substream(1, "train").standard_normal(4)
        b = substream(1, "test").standard_normal(4)
        assert not np.allclose(a, b)

    def test_order_free(self):
        first = substream(2, "trial", 5, "train").standard_normal(3)
        _ = substream(2, "trial", 0, "train").standard_normal(100)
        second = substream(2, "trial", 5, "train").standard_normal(3)
        assert np.array_equal(first, second)
