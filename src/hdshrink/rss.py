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
from .evaluate import roc
from .scoring import check_methods, check_regime, fit_and_score, map_indices
from .shrinkers import PriorSpec
from .simulate import substream


@dataclass(frozen=True)
class RssSchema:
    channel_count: int = 182

    @property
    def header(self) -> list:
        return ["t", "label"] + [
            f"ch_{i:04d}" for i in range(1, self.channel_count + 1)
        ]


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

    def inactive_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.activity)


def load_rss(path, schema: RssSchema | None = None) -> RssSeries:
    """Parse and validate an RSS CSV; errors carry the offending line.

    With schema=None the channel count is inferred from the header, which
    must still read exactly t,label,ch_0001,...
    """
    timestamps, labels, rows = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if schema is None:
            if len(header) < 3:
                raise ParseError(f"header too short: {header}", line=1)
            schema = RssSchema(channel_count=len(header) - 2)
        expected = schema.header
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


def save_rss(series: RssSeries, path) -> None:
    schema = RssSchema(channel_count=series.p)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.header)
        for t, act, row in zip(series.timestamps, series.activity, series.channels):
            writer.writerow(
                [format(t, ".17g"), "1" if act else "0"]
                + [format(v, ".17g") for v in row]
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
    tyler_rho: float = 0.1
    lappw_grid_points: int = 10_000

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
        check_methods(self)


def rss_experiment(
    series: RssSeries, cfg: RssExperimentConfig, threads: int | None = None
):
    """Reference/test resampling over inactive instants.

    Each resample draws n inactive instants without replacement as the
    reference sample, fits every method on those columns only, and scores
    all remaining instants, tagged with ground-truth activity.  Resamples
    run through scoring.map_indices (threads=None: one worker per core).
    Returns (rows, curves): scores.csv-style records, where a method that
    failed on a resample leaves one row whose "error" is its
    scoring.Failure, and one pooled ROC per method.  A spectral method with
    n at most the channel count is a RegimeError before any fit.
    """
    check_regime(cfg.methods, series.p, cfg.n)
    work = detrend(series, cfg.detrend, cfg.window)
    inactive = work.inactive_indices()
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
        scores, failures = fit_and_score(
            cfg, work.channels[ref].T, (work.channels[test].T,), r
        )
        return work.activity[test], scores, failures

    rows = []
    pooled = {m: ([], []) for m in cfg.methods}
    for r, (labels, scores, failures) in enumerate(
        map_indices(resample, cfg.resamples, threads)
    ):
        for method in cfg.methods:
            if method in failures:
                rows.append({"trial": r, "method": method, "error": failures[method]})
                continue
            ((z, raw),) = scores[method]
            pooled[method][0].append(z[~labels])
            pooled[method][1].append(z[labels])
            for zi, ri, lab in zip(z.tolist(), raw.tolist(), labels):
                rows.append(
                    {
                        "trial": r,
                        "method": method,
                        "label_h1": int(lab),
                        "score_z": zi,
                        "score_raw": ri,
                    }
                )
    curves = [
        roc(np.concatenate(h0), np.concatenate(h1), method=m)
        for m, (h0, h1) in pooled.items()
        if sum(a.size for a in h0) and sum(a.size for a in h1)
    ]
    return rows, curves


def write_rss_scores_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,method,label_h1,score_z,score_raw\n")
        for row in rows:
            if "error" in row:
                continue
            fh.write(
                f"{row['trial']},{row['method']},{row['label_h1']},"
                f"{row['score_z']:.17g},{row['score_raw']:.17g}\n"
            )
