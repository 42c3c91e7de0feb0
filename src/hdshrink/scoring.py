"""Fit-once/score-many engine shared by the synthetic and sensor-data
experiment drivers.

A reference sample fixes the per-method scorers (build_scorer); test
vectors are then scored in bulk.  Its spectrum and shrinkage curve are
computed on a spectral method's first read, inside that method's failure
record, so tyler and cq still score on a singular reference.  fit_and_score
builds every scorer, then scores each block of test vectors with tyler and
cq, then with the spectral methods on the block's one squared projection,
dropped after the block.  map_indices runs one fit_and_score task per
trial or resample, in a pool with BLAS at one thread.  parse_config reads
either driver's config file into its dataclass.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import detector, shrinkers
from .errors import ConfigError, RegimeError
from .linalg import (
    Spectrum,
    cholesky,
    eigh,
    inverse_quadratic_forms,
    sample_covariance,
    single_threaded_blas,
)
from .mpkernel import LwCurve, lw_curve

logger = logging.getLogger(__name__)

METHODS = ("proposed", "lw", "lappw", "tyler", "cq", "hotelling", "identity")
SPECTRAL_METHODS = ("proposed", "lw", "lappw", "hotelling", "identity")
PRIOR_METHODS = ("proposed", "lappw")  # the methods whose curve reads the prior


class FittedReference:
    """One reference sample X (p x n) and its mean xbar.  spec (eigh of the
    sample covariance) and curve (its lw_curve) are computed on first read,
    once per instance; a read that raises keeps nothing, and projection(Y)
    keeps one block's until drop_projection.  A fit lives on one thread, so
    the memo takes no lock (cached_property's lock is shared)."""

    def __init__(self, X: np.ndarray):
        self.X, self.xbar, self._memo = X, X.mean(axis=1), {}

    @property
    def spec(self) -> Spectrum:
        if "spec" not in self._memo:
            self._memo["spec"] = eigh(sample_covariance(self.X))
        return self._memo["spec"]

    @property
    def curve(self) -> LwCurve:
        if "curve" not in self._memo:
            self._memo["curve"] = lw_curve(self.spec.eigenvalues, self.X.shape[1])
        return self._memo["curve"]

    def projection(self, Y) -> np.ndarray:
        """detector.squared_projection of the block Y (the same object), which
        every spectral method reads."""
        block, Q = self._memo.get("projection", (None, None))
        if block is not Y:
            Q = detector.squared_projection(Y, self.xbar, self.spec)
            self._memo["projection"] = Y, Q
        return Q

    def drop_projection(self) -> None:
        self._memo.pop("projection", None)


def fit_reference(X: np.ndarray) -> FittedReference:
    return FittedReference(np.asarray(X, dtype=float))


def check_methods(cfg) -> None:
    """Reject an empty method list, an unknown or repeated method or a
    reference sample n below 2, which no method can fit (ConfigError), so a
    bad config fails at parse time instead of in every fit."""
    if not cfg.methods:
        raise ConfigError("methods must name at least one method")
    unknown = set(cfg.methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods {sorted(unknown)}")
    repeated = {m for m in cfg.methods if cfg.methods.count(m) > 1}
    if repeated:
        raise ConfigError(f"repeated methods {sorted(repeated)}")
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
    if method == "identity":
        return shrinkers.identity_shrinker(curve.p)
    raise ConfigError(f"no spectral curve for {method!r}, only for {SPECTRAL_METHODS}")


def build_scorer(method, fit, prior):
    """Construct a callable Y -> (z_scores, raw_scores) for one method.

    tyler (scatter fixed point) and cq have no spectral standardization, so
    their z repeats raw.  cq is the two-sample cross-product statistic for
    one test vector, its reference self-product unbiased by dropping the
    diagonal: score-equivalent to ||y - xbar||^2 up to a per-fit constant."""
    if method in SPECTRAL_METHODS:
        values = spectral_curve(method, fit, prior).values
        to_z = detector.Standardizer(values, fit.curve)

        def spectral(Y):
            raw = values @ fit.projection(Y)
            return to_z(raw), raw

        return spectral
    if method == "tyler":
        factor = cholesky(shrinkers.tyler_estimator(fit.X))

        def tyler(Y):
            raw = inverse_quadratic_forms(factor, Y - fit.xbar[:, None])
            return raw, raw

        return tyler
    if method == "cq":
        n = fit.X.shape[1]
        G = fit.X.T @ fit.X
        offset = (G.sum() - np.trace(G)) / (n * (n - 1))

        def cq(Y):
            raw = np.einsum("ij,ij->j", Y, Y) - 2.0 * (fit.xbar @ Y) + offset
            return raw, raw

        return cq
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


def _failure(trial: int, method, exc) -> Failure:
    logger.warning("trial %d: method %s failed: %s", trial, method, exc)
    return Failure(trial, method, type(exc).__name__, str(exc))


def fit_and_score(cfg, X, blocks, labels, trial: int) -> list:
    """Fit the reference sample X, then score each block of test columns
    with each of cfg.methods under cfg.prior; labels is the label_h1 of the
    blocks' columns, in order.  Returns, in cfg.methods order, one
    ScoreBlock per method, or the Failure of a method that raised.

    Every scorer is built first.  Then, per block, tyler and cq score, then
    the spectral methods on the block's one projection, dropped after it.
    """
    fit = fit_reference(X)
    scorers, parts = {}, {}  # parts: a method's (z, raw) per block, or its Failure
    for method in cfg.methods:
        try:
            scorers[method], parts[method] = build_scorer(method, fit, cfg.prior), []
        except Exception as exc:  # recorded; the other methods continue
            parts[method] = _failure(trial, method, exc)
    for Y in blocks:
        for method in sorted(scorers, key=lambda m: m in SPECTRAL_METHODS):
            try:
                parts[method].append(scorers[method](Y))
            except Exception as exc:
                del scorers[method]
                parts[method] = _failure(trial, method, exc)
        fit.drop_projection()
    return [
        part if isinstance(part, Failure)
        else ScoreBlock(trial, method, labels, *map(np.concatenate, zip(*part)))
        for method, part in parts.items()
    ]


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
