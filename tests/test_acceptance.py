"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py -v` to see the
lines; all tolerances are fixed here, not tuned at runtime.
"""

import dataclasses
import time

import numpy as np
from scipy.stats import kstest

from hdshrink.detector import (
    Standardizer,
    criterion_batch,
    gamma_tilde_all,
    sigma_tilde2_batch,
    srht_many,
)
from hdshrink.evaluate import auc, pooled_rocs, roc
from hdshrink.linalg import eigh, sample_covariance
from hdshrink.mpkernel import (
    identity_mp_oracle,
    kernel_matrix,
    lw_curve,
    pv_hilbert,
    semicircle_kernel,
)
from hdshrink.shrinkers import (
    PriorSpec,
    fstar_curve,
    hotelling_shrinker,
    identity_shrinker,
    lappw_select_b,
    lw_comparator,
    proposed_shrinker,
    ridge_shrinker,
)
from hdshrink.simulate import (
    ExperimentConfig,
    make_covariance,
    run_trials,
    substream,
    write_scores_csv,
)

ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _identity_curve(p, n, seed):
    rng = substream(seed, "acc-identity")
    X = rng.standard_normal((p, n))
    spec = eigh(sample_covariance(X))
    return spec, lw_curve(spec.eigenvalues, n)


def test_criterion_1_identity_curve_reduction():
    start = time.time()
    _, curve = _identity_curve(200, 1000, seed=1)
    err = float(np.abs(curve.d_tilde - 1.0).mean())
    elapsed = time.time() - start
    _report(1, "identity shrinkage-curve reduction", err <= 0.1 and elapsed < 5.0,
            f"mean |d-1| = {err:.4f}, {elapsed:.1f}s")


def test_criterion_2_convergence_rate_scaling():
    start = time.time()
    phi = 0.2
    ns = np.array([250, 500, 1000, 2000])
    means = []
    for n in ns:
        p = int(phi * n)
        errs = []
        for seed in range(10):
            rng = substream(2000 + seed, "acc-rate", int(n))
            X = rng.standard_normal((p, n))
            spec = eigh(sample_covariance(X))
            errs.append(np.abs(lw_curve(spec.eigenvalues, n).d_tilde - 1.0).mean())
        means.append(np.mean(errs))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    elapsed = time.time() - start
    _report(2, "error-rate scaling in n", -1.0 <= slope <= -0.4 and elapsed < 120,
            f"log-log slope = {slope:.3f}, {elapsed:.1f}s")


def test_criterion_3_kernel_hilbert_oracle_agreement():
    start = time.time()
    spec, curve = _identity_curve(200, 1000, seed=3)
    lam, n = spec.eigenvalues, curve.n
    delta = n ** (-1.0 / 3.0)
    step = delta * lam.min() / 20.0
    grid = np.arange(lam.min() * (1 - 2 * delta) - 0.05,
                     lam.max() * (1 + 2 * delta) + 0.05, step)
    w = kernel_matrix(lam, n, grid)[0].mean(axis=0)
    integral = float(np.sum(0.5 * (w[1:] + w[:-1]) * step))
    margin = 4 * delta * lam.mean()
    interior = grid[(grid > lam.min() + margin) & (grid < lam.max() - margin)][::20]
    hw = kernel_matrix(lam, n, interior)[1].mean(axis=0)
    sup = max(abs(pv_hilbert(w, grid, float(x)) - h) for x, h in zip(interior, hw))
    elapsed = time.time() - start
    ok = sup <= 1e-2 and abs(integral - 1.0) <= 1e-3 and elapsed < 10
    _report(3, "kernel vs principal-value quadrature", ok,
            f"sup err = {sup:.2e}, integral = {integral:.6f}, {elapsed:.1f}s")


def _figure_covariance(seed):
    """Uniform-eigenvalue bulk plus a rank-40 decade-spaced spike matrix."""
    rng = substream(seed, "acc-fig-cov")
    p = 200

    def haar():
        Q, R = np.linalg.qr(rng.standard_normal((p, p)))
        return Q * np.sign(np.diag(R))

    Q1, Q2 = haar(), haar()
    bulk = Q1 @ np.diag(rng.uniform(0.0, 1.0, p)) @ Q1.T
    spikes = np.zeros(p)
    spikes[:40] = 10.0 ** ((40 - np.arange(40)) / 10.0)
    sigma = bulk + Q2 @ np.diag(spikes) @ Q2.T
    return (sigma + sigma.T) / 2.0


def test_criterion_4_null_standardization_calibration():
    start = time.time()
    p, n, trials = 200, 400, 500
    sigma = _figure_covariance(seed=4)
    vals, vecs = np.linalg.eigh(sigma)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    prior = PriorSpec("covariance_matched")
    rng = substream(4, "acc-null-trials")
    zs = np.empty(trials)
    for t in range(trials):
        X = root @ rng.standard_normal((p, n))
        spec = eigh(sample_covariance(X))
        curve = lw_curve(spec.eigenvalues, n)
        shrink = proposed_shrinker(curve, prior)
        y = root @ rng.standard_normal((p, 1))
        t2 = srht_many(y, X.mean(axis=1), spec, shrink.values)[0]
        zs[t] = Standardizer(shrink.values, curve)(t2)
    mean, var = float(zs.mean()), float(zs.var(ddof=1))
    ks = float(kstest(zs, "norm").statistic)
    elapsed = time.time() - start
    ok = (
        -0.1 <= mean <= 0.1
        and 0.75 <= var <= 1.25
        and ks <= 0.08
        and elapsed < 180
    )
    _report(4, "null score calibration", ok,
            f"mean = {mean:+.4f}, var = {var:.4f}, KS = {ks:.4f}, {elapsed:.0f}s")


def test_criterion_5_variance_estimator_consistency():
    start = time.time()
    p, n = 200, 1000
    sigma = make_covariance(p, 100.0, seed=5)
    vals, vecs = np.linalg.eigh(sigma)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    worst = 0.0
    for seed in range(20):
        rng = substream(500 + seed, "acc-var")
        X = root @ rng.standard_normal((p, n))
        spec = eigh(sample_covariance(X))
        curve = lw_curve(spec.eigenvalues, n)
        shrink = proposed_shrinker(curve, PriorSpec("identity"))
        fS = (spec.eigenvectors * shrink.values) @ spec.eigenvectors.T
        oracle = float(np.einsum("ij,ji->", fS @ sigma, fS @ sigma)) / p
        rel = abs(sigma_tilde2_batch(shrink.values[None, :], curve)[0] / oracle - 1.0)
        worst = max(worst, rel)
    elapsed = time.time() - start
    _report(5, "variance estimator vs trace oracle", worst <= 0.15 and elapsed < 60,
            f"worst relative error over 20 seeds = {worst:.4f}, {elapsed:.0f}s")


def test_criterion_6_criterion_optimality():
    start = time.time()
    p, n = 200, 1000
    worst = np.inf
    worst_at = ""
    for cov_name in ("identity", "kappa100"):
        if cov_name == "identity":
            root = np.eye(p)
        else:
            sigma = make_covariance(p, 100.0, seed=6)
            vals, vecs = np.linalg.eigh(sigma)
            root = (vecs * np.sqrt(vals)) @ vecs.T
        for mode in ("identity", "covariance_matched"):
            prior = PriorSpec(mode)
            for seed in range(10):
                rng = substream(600 + seed, "acc-opt", cov_name)
                X = root @ rng.standard_normal((p, n))
                spec = eigh(sample_covariance(X))
                curve = lw_curve(spec.eigenvalues, n)
                hbar = np.ones(p) if mode == "identity" else curve.d_tilde
                u_prop = criterion_batch(
                    proposed_shrinker(curve, prior).values[None, :], hbar, curve
                )[0]
                comparators = [
                    lw_comparator(curve).values,
                    ridge_shrinker(curve.lam, lappw_select_b(curve, prior)).values,
                    hotelling_shrinker(curve.lam).values,
                    identity_shrinker(p).values,
                ]
                u_max = criterion_batch(np.array(comparators), hbar, curve).max()
                ratio = u_prop / u_max
                if ratio < worst:
                    worst, worst_at = ratio, f"{cov_name}/{mode}/seed{seed}"
    elapsed = time.time() - start
    _report(6, "finite-sample criterion optimality",
            worst >= 1.0 - 0.02 and elapsed < 120,
            f"worst U(proposed)/max U(comparator) = {worst:.4f} at {worst_at}, "
            f"{elapsed:.0f}s")


def test_criterion_7_roc_ordering():
    start = time.time()
    results = {}
    for kappa in (1e2, 1e4):
        cfg = ExperimentConfig(
            p=200,
            n=300,
            kappa=kappa,
            gamma=None,
            trials=100,
            tests_per_trial_h0=50,
            tests_per_trial_h1=50,
            component_dist="uniform",
            seed=7,
        )
        sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
        outputs = run_trials(cfg, Sigma=sigma, threads=8)
        curves = pooled_rocs([f for o in outputs for f in o.fits])
        results[kappa] = {c.method: auc(c) for c in curves}
    ok = all(set(aucs) == set(cfg.methods) for aucs in results.values())  # none failed
    details = []
    for kappa, aucs in results.items():
        prop = aucs["proposed"]
        gap = min(prop - a for m, a in aucs.items() if m != "proposed")
        ok &= all(prop >= a - 0.01 for m, a in aucs.items())
        details.append(f"kappa={kappa:g}: AUC(prop)={prop:.3f}, min gap={gap:+.3f}")
    cq_gap = results[1e4]["proposed"] - results[1e4]["cq"]
    ok &= cq_gap >= 0.03
    details.append(f"prop-cq gap at 1e4 = {cq_gap:.3f}")
    elapsed = time.time() - start
    ok &= elapsed < 1800
    _report(7, "Monte-Carlo ROC ordering", ok,
            "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_8_limit_shrinker_agreement():
    start = time.time()
    phi = 0.2
    oracle = identity_mp_oracle(phi)
    a, b = oracle.support
    dists = []
    for n in (500, 1000, 2000):
        p = int(phi * n)
        per_seed = []
        for seed in range(5):
            rng = substream(800 + seed, "acc-fstar", n)
            X = rng.standard_normal((p, n))
            spec = eigh(sample_covariance(X))
            curve = lw_curve(spec.eigenvalues, n)
            shrink = proposed_shrinker(curve, PriorSpec("identity"))
            xs = np.clip(curve.lam, a + 1e-4 * (b - a), b - 1e-4 * (b - a))
            fs = fstar_curve(oracle, ONES, xs)
            per_seed.append(float(np.abs(shrink.values - fs).mean()))
        dists.append(float(np.mean(per_seed)))
    elapsed = time.time() - start
    ok = (
        dists[1] <= 0.15
        and dists[0] >= dists[1] >= dists[2]
        and elapsed < 120
    )
    _report(8, "agreement with the limiting optimal shrinker", ok,
            f"L1 distances over n=(500,1000,2000): "
            f"({dists[0]:.4f}, {dists[1]:.4f}, {dists[2]:.4f}), {elapsed:.0f}s")


def test_criterion_9_exactness_micro_suite():
    start = time.time()
    checks = []

    # covariance double loop
    rng = substream(9, "acc-micro")
    X = rng.standard_normal((3, 5))
    S = sample_covariance(X)
    xbar = X.mean(axis=1)
    brute = np.array(
        [
            [
                sum((X[i, k] - xbar[i]) * (X[j, k] - xbar[j]) for k in range(5)) / 4.0
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    checks.append(("covariance double loop", np.abs(S - brute).max() <= 1e-12))

    # single-point kernel values
    checks.append(("kernel at 0", semicircle_kernel(0.0) == (1.0 / np.pi, 0.0)))
    k2, K2 = semicircle_kernel(2.0)
    checks.append(("kernel at edge", k2 == 0.0 and abs(K2 + 1 / np.pi) <= 1e-15))
    checks.append(
        ("density peak", abs(kernel_matrix([1.0], 1000, 1.0)[0][0, 0] - 10 / np.pi) <= 1e-12)
    )

    # gamma-correction double loop at one index
    lam = np.sort(rng.uniform(0.5, 2.0, 12))
    d = rng.uniform(0.8, 1.2, 12)
    f = rng.uniform(0.2, 2.0, 12)
    n = 300
    delta = n ** (-1.0 / 3.0)
    i = 5
    total = 0.0
    for j in range(12):
        width = delta * lam[j]
        _, K = semicircle_kernel((lam[i] - lam[j]) / width)
        total += (f[j] - f[i]) * d[j] * K / width
    expected = f[i] - np.pi / n * total
    curve = dataclasses.replace(lw_curve(lam, n), d_tilde=d)
    got = gamma_tilde_all(f[None, :], curve)[0, i]
    checks.append(("gamma double loop", abs(got - expected) <= 1e-12))

    # pairwise AUC oracle with ties
    h0 = rng.integers(0, 5, 19).astype(float)
    h1 = rng.integers(0, 5, 23).astype(float)
    wins = sum(1.0 for u in h1 for v in h0 if u > v)
    ties = sum(1.0 for u in h1 for v in h0 if u == v)
    pair = (wins + 0.5 * ties) / (h0.size * h1.size)
    checks.append(("pairwise AUC", abs(auc(roc(h0, h1)) - pair) <= 1e-12))

    # principal-value rule vs closed-form transform
    grid = np.linspace(-4, 4, 8001)
    ktab, _ = semicircle_kernel(grid)
    pv_ok = all(
        abs(pv_hilbert(ktab, grid, x) - semicircle_kernel(x)[1]) <= 1e-3
        for x in (0.0, 1.0, 1.5)
    )
    checks.append(("PV rule vs closed form", pv_ok))

    elapsed = time.time() - start
    failed = [name for name, ok in checks if not ok]
    _report(9, "exactness micro-suite", not failed and elapsed < 30,
            f"{len(checks)} checks, failed: {failed or 'none'}, {elapsed:.1f}s")


def test_criterion_10_simulation_determinism(tmp_path):
    start = time.time()
    cfg = ExperimentConfig(
        p=50,
        n=90,
        kappa=10.0,
        gamma=2.0,
        trials=4,
        tests_per_trial_h0=10,
        tests_per_trial_h1=10,
        seed=10,
    )
    sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
    runs = {}
    for name, threads in (("ref", 1), ("rerun", 1), ("threaded", 8)):
        path = tmp_path / f"{name}.csv"
        write_scores_csv(run_trials(cfg, Sigma=sigma, threads=threads), path)
        runs[name] = path.read_bytes()
    elapsed = time.time() - start
    ok = runs["ref"] == runs["rerun"] == runs["threaded"] and elapsed < 60
    lines = runs["ref"].count(b"\n")
    _report(10, "byte-identical simulation output", ok,
            f"{lines} lines compared across reruns and 1 vs 8 threads, "
            f"{elapsed:.0f}s")
