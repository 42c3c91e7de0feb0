"""Synthetic-data experiment engine: covariance generation, sub-Gaussian
sampling, signal injection, Monte-Carlo trials, and score emission.

Randomness uses counter-based Philox streams keyed by (seed, trial, role),
so trials can run on any number of threads without reordering draws and a
fixed seed reproduces output byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .evaluate import power_at_fpr, roc
from .linalg import eigh, single_threaded_blas
from .scoring import (
    METHODS,
    Failure,
    ScoreBlock,
    check_methods,
    check_regime,
    fit_and_score,
    map_indices,
    parse_config,
    write_score_blocks,
)
from .shrinkers import PriorSpec

SQRT3 = np.sqrt(3.0)
COMPONENT_DISTS = ("uniform", "gaussian")


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator keyed by (seed, *path), order-free.

    The Philox key is a hash of the full path, so any trial/role can be
    opened in any order on any thread with identical draws.
    """
    tag = repr((int(seed),) + tuple(path)).encode()
    key = int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ExperimentConfig:
    p: int = 200
    n: int = 300
    kappa: float = 100.0
    gamma: float | None = None  # None -> calibrated from pilot trials
    prior: PriorSpec = field(default_factory=PriorSpec)
    trials: int = 100
    tests_per_trial_h0: int = 50
    tests_per_trial_h1: int = 50
    component_dist: str = "uniform"
    seed: int = 0
    methods: tuple = METHODS

    def __post_init__(self):
        for name in ("trials", "tests_per_trial_h0", "tests_per_trial_h1"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 1.0 <= self.kappa < np.inf:
            raise ConfigError(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.component_dist not in COMPONENT_DISTS:
            raise ConfigError(
                f"component_dist must be one of {COMPONENT_DISTS}, "
                f"got {self.component_dist!r}"
            )
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        check_methods(self)
        check_regime(self.methods, self.p, self.n)


@dataclass(frozen=True)
class TrialOutput:
    """One trial's fits as scoring.fit_and_score returns them, each with its
    trial: per method, a ScoreBlock of the H0 then the H1 tests, or a Failure."""

    fits: list

    @property
    def scores(self) -> dict:
        """Read-only view that only bench/run.py reads: method -> {"h0_z",
        "h0_raw", "h1_z", "h1_raw"} of each ScoreBlock."""
        return {
            b.method: {
                f"h{h}_{col}": getattr(b, f"score_{col}")[b.label_h1 == h]
                for h in (0, 1)
                for col in ("z", "raw")
            }
            for b in self.fits
            if isinstance(b, ScoreBlock)
        }

    @property
    def errors(self) -> dict:
        """Read-only view that only bench/run.py reads: method -> Failure."""
        return {f.method: f for f in self.fits if isinstance(f, Failure)}


def _haar(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def make_covariance(p: int, kappa: float, seed: int) -> np.ndarray:
    """Covariance with piece-wise log-linear eigenvalues in a Haar-random
    basis.

    Eigenvalues are {kappa^(i/40)} for i=1..40 together with
    {10^((i-1)/(40(p-41)))} for i=1..p-40.  BLAS runs at one thread, so the
    bytes do not depend on its thread count.
    """
    if p < 42:
        raise ConfigError(
            f"eigenvalue recipe needs p >= 42 (got p={p}); library callers "
            "can pass their own Sigma= to run_trials"
        )
    if kappa < 1.0:
        raise ConfigError(f"condition number must be >= 1, got {kappa}")
    spikes = kappa ** (np.arange(1, 41) / 40.0)
    bulk = 10.0 ** ((np.arange(1, p - 39) - 1) / (40.0 * (p - 41)))
    lam = np.concatenate([spikes, bulk])
    with single_threaded_blas():
        Q = _haar(substream(seed, "covariance"), p)
        M = (Q * lam) @ Q.T
    return (M + M.T) / 2.0


def _spd_root(Sigma: np.ndarray) -> np.ndarray:
    spec = eigh(Sigma)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    if vals.min() <= 0:
        raise DataError(
            f"covariance is not positive definite (min eigenvalue {vals.min():.3e})"
        )
    return (vecs * np.sqrt(vals)) @ vecs.T


def _draw(rng, root, dist, count) -> np.ndarray:
    """count columns of root times i.i.d. unit-variance components."""
    shape = (root.shape[0], count)
    if dist == "uniform":
        return root @ rng.uniform(-SQRT3, SQRT3, shape)
    return root @ rng.standard_normal(shape)


def _signal(rng, root, prior: PriorSpec, gamma: float, count: int) -> np.ndarray:
    p = root.shape[0]
    g = rng.standard_normal((p, count))
    z = g if prior.mode == "identity" else root @ g
    return gamma * z / np.linalg.norm(z, axis=0, keepdims=True)


def _oracle_pilot_terms(cfg: ExperimentConfig, root, Sigma_inv, pilots=20):
    """Known-covariance detector on pilot substreams, split by signal scale.

    Returns (h0, A, B, C): the H0 scores, and per H1 column the terms of
    A + 2*gamma*B + gamma**2*C, the H1 score at signal norm gamma.  With
    D = noise - xbar and a unit-norm signal sig: A = D'S D, B = sig'S D and
    C = sig'S sig, where S is Sigma_inv.
    """
    m = 40
    h0, A, B, C = [], [], [], []
    for t in range(pilots):
        rng = substream(cfg.seed, "pilot", t)
        X = _draw(rng, root, cfg.component_dist, cfg.n)
        xbar = X.mean(axis=1)
        noise0 = _draw(rng, root, cfg.component_dist, m)
        noise1 = _draw(rng, root, cfg.component_dist, m)
        sig = _signal(rng, root, cfg.prior, 1.0, m)
        Y0 = noise0 - xbar[:, None]
        D = noise1 - xbar[:, None]
        SD = Sigma_inv @ D
        h0.append(np.einsum("ij,ij->j", Y0, Sigma_inv @ Y0))
        A.append(np.einsum("ij,ij->j", D, SD))
        B.append(np.einsum("ij,ij->j", sig, SD))
        C.append(np.einsum("ij,ij->j", sig, Sigma_inv @ sig))
    return tuple(np.concatenate(terms) for terms in (h0, A, B, C))


def calibrate_gamma(cfg: ExperimentConfig, Sigma) -> float:
    """Signal scale at which the known-covariance detector has power about
    0.5 at false-alarm 0.1, found by bisection on common pilot streams.

    The pilot draws are scored once; each bisection step only re-evaluates
    the H1 quadratic in gamma (see _oracle_pilot_terms).  BLAS runs at one
    thread, so the result does not depend on its thread count.
    """
    with single_threaded_blas():
        root = _spd_root(Sigma)
        h0, A, B, C = _oracle_pilot_terms(cfg, root, np.linalg.inv(Sigma))

    def power(gamma):
        return power_at_fpr(roc(h0, A + 2.0 * gamma * B + gamma**2 * C), 0.1)

    lo, hi = 0.0, float(np.sqrt(np.trace(Sigma) / cfg.p))
    for _ in range(40):
        if power(hi) >= 0.5:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ConfigError("gamma calibration failed to bracket power 0.5")
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if power(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return hi


def _run_one_trial(cfg: ExperimentConfig, root, gamma, t: int) -> TrialOutput:
    def draw(role, count):
        rng = substream(cfg.seed, "trial", t, role)
        return _draw(rng, root, cfg.component_dist, count)

    X = draw("train", cfg.n)
    Y0 = draw("test_h0", cfg.tests_per_trial_h0)
    Y1 = draw("test_h1", cfg.tests_per_trial_h1)
    rng_sig = substream(cfg.seed, "trial", t, "signal")
    Y1 = Y1 + _signal(rng_sig, root, cfg.prior, gamma, cfg.tests_per_trial_h1)

    labels = np.repeat([False, True], [Y0.shape[1], Y1.shape[1]])
    return TrialOutput(fit_and_score(cfg, X, (Y0, Y1), labels, t))


def run_trials(cfg: ExperimentConfig, Sigma=None, threads: int | None = None):
    """Run the configured Monte-Carlo trials; deterministic given the seed.

    Sigma defaults to make_covariance(cfg.p, cfg.kappa, cfg.seed); pass an
    explicit matrix to override the recipe.  The trials run through
    scoring.map_indices (threads=None: one worker per core) with BLAS at
    one thread, as do the covariance recipe, its root and the gamma
    calibration, so the scores depend on neither thread count.
    """
    if Sigma is None:
        Sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
    with single_threaded_blas():
        root = _spd_root(Sigma)
    gamma = cfg.gamma if cfg.gamma is not None else calibrate_gamma(cfg, Sigma)
    task = lambda t: _run_one_trial(cfg, root, gamma, t)
    return map_indices(task, cfg.trials, threads)


def write_scores_csv(outputs, path) -> None:
    """scores.csv of the trials' fits, for bench/run.py alone: once it calls
    scoring.write_score_blocks, as the CLI does, delete this."""
    write_score_blocks((f for out in outputs for f in out.fits), path)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(ExperimentConfig, fh.read())
