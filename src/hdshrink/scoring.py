"""Fit-once/score-many engine shared by the synthetic and sensor-data
experiment drivers.

A reference sample fixes the spectrum, shrinkage curve, and per-method
scorers; test vectors are then scored in bulk.  Spectral methods emit both
the raw quadratic form and its standardized score; the scatter fixed point
and the cross-product comparator have no spectral standardization, so their
standardized column repeats the raw score.  map_indices runs one
fit_and_score task per trial or resample, in a pool with BLAS at one thread.
parse_config reads either driver's config file into its config dataclass.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import detector, shrinkers
from .errors import ConfigError, RegimeError
from .linalg import Spectrum, eigh, sample_covariance, single_threaded_blas
from .mpkernel import LwCurve, lw_curve

logger = logging.getLogger(__name__)

METHODS = ("proposed", "lw", "lappw", "tyler", "cq", "hotelling", "identity")
SPECTRAL_METHODS = ("proposed", "lw", "lappw", "hotelling", "identity")


@dataclass(frozen=True)
class FittedReference:
    """Everything derived from one reference sample; curve is None when no
    curve was fitted."""

    xbar: np.ndarray
    spec: Spectrum
    curve: Optional[LwCurve]
    X: np.ndarray


def fit_reference(X: np.ndarray, need_curve: bool = True) -> FittedReference:
    X = np.asarray(X, dtype=float)
    S = sample_covariance(X)
    spec = eigh(S)
    curve = lw_curve(spec.eigenvalues, X.shape[0], X.shape[1]) if need_curve else None
    return FittedReference(xbar=X.mean(axis=1), spec=spec, curve=curve, X=X)


def check_methods(cfg) -> None:
    """Reject an empty method list, an unknown method or a reference sample
    n below 2, which no method can fit (ConfigError), so a bad config fails
    at parse time instead of in every fit."""
    if not cfg.methods:
        raise ConfigError("methods must name at least one method")
    unknown = set(cfg.methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods {sorted(unknown)}")
    if cfg.n < 2:
        raise ConfigError(f"n must be at least 2, got {cfg.n}")


def check_regime(methods, p, n) -> None:
    """Reject a spectral method when p >= n (RegimeError): the sample
    covariance is then singular."""
    if any(m in SPECTRAL_METHODS for m in methods) and p >= n:
        raise RegimeError(f"spectral methods require p < n, got p={p}, n={n}")


def _config_value(kind, text: str):
    """One config value read as the field annotation kind says."""
    if kind is tuple:
        return tuple(item.strip() for item in text.split(",") if item.strip())
    options = typing.get_args(kind)
    if type(None) in options:  # an optional number
        if text in ("auto", "none"):
            return None
        (kind,) = set(options) - {type(None)}
    return kind(text)


def parse_config(cls, text: str):
    """Build the config dataclass cls from flat `key = value` lines.

    Every field of cls is a key, read by its annotation: a tuple is a
    comma-separated list, an optional number reads auto/none as None, and a
    dataclass field (the prior) is set through one dotted key per field of
    its own (prior.mode), starting from the class's own default.  `#`
    starts a comment.
    """
    hints = typing.get_type_hints(cls)
    kinds, nested = {}, {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            nested[f.name] = f.default_factory
            sub_kinds = typing.get_type_hints(kind).items()
            kinds.update({f"{f.name}.{sub}": k for sub, k in sub_kinds})
        else:
            kinds[f.name] = kind
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        try:
            kwargs[key] = _config_value(kinds[key], value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: key {key!r}: {exc}") from exc
    for name, default in nested.items():
        keys = [k for k in kwargs if k.startswith(name + ".")]
        sub = {k.split(".", 1)[1]: kwargs.pop(k) for k in keys}
        kwargs[name] = dataclasses.replace(default(), **sub)
    return cls(**kwargs)


class _SpectralScorer:
    def __init__(self, fit: FittedReference, values: np.ndarray):
        self.fit = fit
        self.values = values
        self.to_z = detector.Standardizer(values, fit.curve)

    def __call__(self, Y: np.ndarray):
        raw = detector.srht_many(Y, self.fit.xbar, self.fit.spec, self.values)
        return self.to_z(raw), raw


class _TylerScorer:
    def __init__(self, fit: FittedReference):
        scatter = shrinkers.tyler_estimator(fit.X)
        self.precision = np.linalg.inv(scatter)
        self.xbar = fit.xbar

    def __call__(self, Y: np.ndarray):
        D = Y - self.xbar[:, None]
        raw = np.einsum("ij,ij->j", D, self.precision @ D)
        return raw.copy(), raw


class _CrossProductScorer:
    """Two-sample cross-product statistic specialized to one test vector.

    The reference self-product is unbiased by dropping its diagonal; the
    resulting detector is score-equivalent to ||y - xbar||^2 up to a
    per-reference constant.
    """

    def __init__(self, fit: FittedReference):
        X = fit.X
        n = X.shape[1]
        G = X.T @ X
        self.offset = (G.sum() - np.trace(G)) / (n * (n - 1))
        self.xbar = fit.xbar

    def __call__(self, Y: np.ndarray):
        raw = np.einsum("ij,ij->j", Y, Y) - 2.0 * (self.xbar @ Y) + self.offset
        return raw.copy(), raw


def spectral_curve(method, fit, prior):
    """The ShrinkageCurve of one of SPECTRAL_METHODS on a fitted reference."""
    curve = fit.curve
    if method == "proposed":
        return shrinkers.proposed_shrinker(curve, prior)
    if method == "lw":
        return shrinkers.lw_comparator(curve)
    if method == "lappw":
        b = shrinkers.lappw_select_b(curve, prior)
        return shrinkers.ridge_shrinker(curve.lam, b, label="lappw")
    if method == "hotelling":
        return shrinkers.hotelling_shrinker(curve.lam)
    return shrinkers.identity_shrinker(curve.p)


def build_scorer(method, fit, prior):
    """Construct a callable Y -> (z_scores, raw_scores) for one method."""
    if method in SPECTRAL_METHODS:
        curve = spectral_curve(method, fit, prior)
        return _SpectralScorer(fit, curve.values)
    if method == "tyler":
        return _TylerScorer(fit)
    if method == "cq":
        return _CrossProductScorer(fit)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")


class Failure(NamedTuple):
    """One method that raised while fitting or scoring on one trial; the
    fields are the columns of errors.csv."""

    trial: int
    method: str
    error_type: str
    message: str

    def __str__(self):
        return f"{self.error_type}: {self.message}"


class ScoreBlock(NamedTuple):
    """One fit's scores.csv rows, one per test vector (label_h1 is bool);
    the fields are the columns of scores.csv."""

    trial: int
    method: str
    label_h1: np.ndarray
    score_z: np.ndarray
    score_raw: np.ndarray


def fit_and_score(cfg, X, blocks, labels, trial: int) -> list:
    """Fit the reference sample X, then score each block of test columns
    with each of cfg.methods under cfg.prior; labels is the label_h1 of the
    blocks' columns, in order.  Returns, in cfg.methods order, one
    ScoreBlock per method, or the Failure of a method that raised.
    """
    fit = fit_reference(X, need_curve=any(m in SPECTRAL_METHODS for m in cfg.methods))
    fits = []
    for method in cfg.methods:
        try:
            scorer = build_scorer(method, fit, cfg.prior)
            z, raw = map(np.concatenate, zip(*[scorer(Y) for Y in blocks]))
            fits.append(ScoreBlock(trial, method, labels, z, raw))
        except Exception as exc:  # recorded; the other methods continue
            logger.warning("trial %d: method %s failed: %s", trial, method, exc)
            fits.append(Failure(trial, method, type(exc).__name__, str(exc)))
    return fits


def scores_csv_text(block: ScoreBlock) -> str:
    """One block's scores.csv lines, scores as %.17g, in one % per block."""
    prefix = [f"{block.trial},{block.method},{label}," for label in (0, 1)]
    cells = [None] * (3 * block.score_z.size)
    cells[0::3] = [prefix[b] for b in block.label_h1.tolist()]
    cells[1::3], cells[2::3] = block.score_z.tolist(), block.score_raw.tolist()
    return ("%s%.17g,%.17g\n" * block.score_z.size) % tuple(cells)


def write_score_blocks(fits, path) -> None:
    """scores.csv: the header, then the lines of each ScoreBlock of fits; a
    Failure has none (errors.csv holds it)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ScoreBlock._fields) + "\n")
        fh.writelines(scores_csv_text(f) for f in fits if isinstance(f, ScoreBlock))


def worker_count(threads: int | None, count: int) -> int:
    """min(threads, cores, count), at least 1; threads=None means cores and
    threads below 1 is a ConfigError."""
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    cores = os.cpu_count() or 1
    return max(1, min(cores if threads is None else threads, cores, count))


def map_indices(task, count: int, threads: int | None = None) -> list:
    """[task(i) for i in range(count)] on worker_count(threads, count)
    threads, with BLAS at one thread, so neither thread count changes the
    results."""
    workers = worker_count(threads, count)
    with single_threaded_blas():
        if workers == 1:
            return [task(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, range(count)))


def write_errors_csv(failures, path) -> None:
    """errors.csv: a header line, then one line per Failure."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([Failure._fields, *failures])
