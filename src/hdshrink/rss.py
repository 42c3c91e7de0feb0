"""Ingestion, de-trending, and resampled detection experiments for
received-signal-strength sensor time series.

Canonical file format: CSV with header ``t,label,ch_0001,...,ch_NNNN``.
``t`` is seconds (strictly increasing), ``label`` is 0 (inactive) or 1
(activity), and each channel column is one sender-receiver pair.  Mapping a
raw sensor-network distribution into this layout is a one-off conversion
left to the caller.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DomainError, ParseError
from .evaluate import pooled_rocs
from .scoring import (
    Failure,
    ScoreBlock,
    check_methods,
    check_regime,
    fit_and_score,
    map_indices,
    write_score_blocks,
)
from .shrinkers import PriorSpec
from .simulate import substream


@dataclass(frozen=True)
class RssSeries:
    """Sensor time series: T timestamps, T x p channel matrix, activity mask."""

    timestamps: np.ndarray
    channels: np.ndarray
    activity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        ch = np.asarray(self.channels, dtype=float)
        act = np.asarray(self.activity, dtype=bool)
        if t.shape[0] != ch.shape[0] or t.shape[0] != act.shape[0]:
            raise DataError("timestamps, channels, and activity lengths disagree")
        if np.any(np.diff(t) <= 0):
            raise DataError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "activity", act)

    @property
    def p(self) -> int:
        return self.channels.shape[1]


def load_rss(path) -> RssSeries:
    """Parse and validate an RSS CSV; errors carry the offending line.

    The channel count is inferred from the header, which must read exactly
    t,label,ch_0001,...
    """
    timestamps, labels, rows = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if len(header) < 3:
            raise ParseError(f"header too short: {header}", line=1)
        expected = ["t", "label"] + [f"ch_{i:04d}" for i in range(1, len(header) - 1)]
        if header != expected:
            missing = [c for c in expected if c not in header]
            if missing:
                raise ParseError(f"missing column(s) {missing}", line=1)
            raise ParseError(f"unexpected header {header[:4]}...", line=1)
        last_t = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ParseError(
                    f"expected {len(expected)} fields, got {len(row)}", line=lineno
                )
            try:
                t = float(row[0])
                values = np.array(row[2:], dtype=float)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not np.isfinite(t):
                raise ParseError(f"non-finite timestamp {row[0]!r}", line=lineno)
            if not np.isfinite(values).all():
                col = 2 + int(np.flatnonzero(~np.isfinite(values))[0])
                raise ParseError(
                    f"non-finite value {row[col]!r} in column {expected[col]}",
                    line=lineno,
                )
            if row[1] not in ("0", "1"):
                raise ParseError(f"unknown label {row[1]!r}", line=lineno)
            if last_t is not None and t <= last_t:
                raise ParseError(
                    f"timestamp {t} not greater than previous {last_t}", line=lineno
                )
            last_t = t
            timestamps.append(t)
            labels.append(row[1] == "1")
            rows.append(values)
    if not rows:
        raise ParseError("no data rows", line=2)
    return RssSeries(
        timestamps=np.array(timestamps),
        channels=np.vstack(rows),
        activity=np.array(labels),
    )


def detrend(series: RssSeries, method: str = "channel_mean", window: int | None = None):
    """Remove slow per-channel structure.

    channel_mean subtracts each channel's mean over inactive instants;
    moving_average subtracts a centered odd-width running mean (window
    shrinks symmetrically at the edges).
    """
    ch = series.channels
    if method == "channel_mean":
        inactive = ~series.activity
        if not inactive.any():
            raise DataError("channel_mean detrend needs at least one inactive instant")
        baseline = ch[inactive].mean(axis=0, keepdims=True)
        out = ch - baseline
    elif method == "moving_average":
        if window is None or window % 2 == 0 or window < 1:
            raise DomainError(f"moving_average needs an odd window, got {window}")
        half = window // 2
        T = ch.shape[0]
        csum = np.vstack([np.zeros((1, ch.shape[1])), np.cumsum(ch, axis=0)])
        lo = np.maximum(np.arange(T) - half, 0)
        hi = np.minimum(np.arange(T) + half, T - 1)
        means = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]
        out = ch - means
    else:
        raise ConfigError(f"unknown detrend method {method!r}")
    return RssSeries(
        timestamps=series.timestamps.copy(), channels=out, activity=series.activity.copy()
    )


DETREND_METHODS = ("channel_mean", "moving_average")


@dataclass(frozen=True)
class RssExperimentConfig:
    n: int = 300
    resamples: int = 20
    detrend: str = "channel_mean"
    window: int | None = None
    seed: int = 0
    methods: tuple = ("proposed", "lw", "tyler", "cq", "hotelling", "identity")
    prior: PriorSpec = field(default_factory=lambda: PriorSpec("covariance_matched"))

    def __post_init__(self):
        if self.resamples < 1:
            raise ConfigError("resamples must be >= 1")
        if self.detrend not in DETREND_METHODS:
            raise ConfigError(
                f"detrend must be one of {DETREND_METHODS}, got {self.detrend!r}"
            )
        if self.detrend == "moving_average" and (
            self.window is None or self.window < 1 or self.window % 2 == 0
        ):
            raise ConfigError(
                f"detrend = moving_average needs a positive odd window, "
                f"got {self.window}"
            )
        if self.detrend != "moving_average" and self.window is not None:
            raise ConfigError("window is read only by detrend = moving_average")
        check_methods(self)


@dataclass(frozen=True)
class RssScores:
    """rss_experiment's scores: per fit, in (resample, method) order, a
    scoring.ScoreBlock or the scoring.Failure of a method that raised."""

    fits: list

    @property
    def blocks(self) -> list:
        return [f for f in self.fits if isinstance(f, ScoreBlock)]

    @property
    def failures(self) -> list:
        return [f for f in self.fits if isinstance(f, Failure)]

    def __iter__(self):
        """Read-only record view for bench/run.py's run_rss alone: a dict
        per scored row, {trial, method, error} per failed fit.  A benchmark
        change that moves run_rss to failures and the blocks deletes it."""
        for f in self.fits:
            if isinstance(f, Failure):
                yield {"trial": f.trial, "method": f.method, "error": f}
                continue
            cols = f.label_h1.tolist(), f.score_z.tolist(), f.score_raw.tolist()
            for lab, z, raw in zip(*cols):
                row = (f.trial, f.method, int(lab), z, raw)
                yield dict(zip(ScoreBlock._fields, row))


def rss_experiment(
    series: RssSeries, cfg: RssExperimentConfig, threads: int | None = None
):
    """Reference/test resampling over inactive instants.

    Each resample draws n inactive instants without replacement as the
    reference sample, fits every method on those columns only, and scores
    all remaining instants, tagged with ground-truth activity.  Resamples
    run through scoring.map_indices (threads=None: one worker per core).
    Returns (scores, curves): an RssScores with one ScoreBlock or Failure
    per (resample, method), and evaluate.pooled_rocs of its fits (kept for
    bench/run.py: once it pools the fits itself, return the scores alone).
    A spectral method with n at most the channel count is a RegimeError, and
    a series with no active instant a DataError, both raised before any fit.
    """
    check_regime(cfg.methods, series.p, cfg.n)
    if not series.activity.any():
        raise DataError("rss series has no active instant (every label is 0)")
    work = detrend(series, cfg.detrend, cfg.window)
    inactive = np.flatnonzero(~work.activity)
    if cfg.n >= inactive.size:
        raise DataError(
            f"reference cardinality n={cfg.n} needs more than n inactive "
            f"instants (have {inactive.size})"
        )
    all_idx = np.arange(work.channels.shape[0])

    def resample(r):
        rng = substream(cfg.seed, "rss", r)
        ref = np.sort(rng.choice(inactive, size=cfg.n, replace=False))
        test = np.setdiff1d(all_idx, ref, assume_unique=True)
        ref_columns, test_columns = work.channels[ref].T, work.channels[test].T
        return fit_and_score(cfg, ref_columns, (test_columns,), work.activity[test], r)

    fits = [f for r in map_indices(resample, cfg.resamples, threads) for f in r]
    return RssScores(fits), pooled_rocs(fits)


def write_rss_scores_csv(scores: RssScores, path) -> None:
    """scores.csv of an rss run, for bench/run.py alone: once it calls
    scoring.write_score_blocks, as the CLI does, delete this."""
    write_score_blocks(scores.fits, path)
