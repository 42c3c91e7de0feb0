import dataclasses
import tracemalloc

import numpy as np
import pytest

import hdshrink.rss
import hdshrink.scoring
from hdshrink.errors import (
    ConfigError,
    DataError,
    DegenerateStatisticError,
    DomainError,
    ParseError,
)
from hdshrink.rss import (
    RssExperimentConfig,
    RssSeries,
    detrend,
    load_rss,
    rss_experiment,
    write_rss_scores_csv,
)
from hdshrink.scoring import Failure, parse_config
from hdshrink.shrinkers import PriorSpec
from hdshrink.simulate import substream

from conftest import write_rss_csv


def tiny_series(T=80, p=6, seed=0, shift=2.0):
    rng = substream(seed, "fixture")
    timestamps = 0.5 * np.arange(T) + 1.0
    activity = np.zeros(T, dtype=bool)
    activity[T // 2 : T // 2 + T // 8] = True
    channels = rng.standard_normal((T, p))
    channels[activity] += shift * rng.standard_normal(p)[None, :]
    return RssSeries(timestamps=timestamps, channels=channels, activity=activity)


class TestLoadSave:
    def test_roundtrip_byte_identical(self, tmp_path):
        series = tiny_series(T=3, p=2)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_rss_csv(series, first)
        write_rss_csv(load_rss(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_channel_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,label,ch_0002\n1.0,0,0.5\n")
        with pytest.raises(ParseError, match="ch_0001"):
            load_rss(path)

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,label,ch_0001\n1.0,0,0.5\n2.0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_rss(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("t,label,ch_0001\n1.0,maybe,0.5\n")
        with pytest.raises(ParseError, match="unknown label"):
            load_rss(path)

    @pytest.mark.parametrize(
        "row, match",
        [
            ("2.0,0,nan", "ch_0001"),
            ("2.0,0,-inf", "ch_0001"),
            ("inf,0,0.5", "timestamp"),
            ("nan,0,0.5", "timestamp"),
        ],
    )
    def test_non_finite_rejected_with_line(self, tmp_path, row, match):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"t,label,ch_0001\n1.0,0,0.5\n{row}\n")
        with pytest.raises(ParseError, match=f"line 3: .*{match}"):
            load_rss(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text("t,label,ch_0001\n2.0,0,0.5\n1.0,0,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_rss(path)


class TestDetrend:
    def test_constant_channel_zeroed(self):
        series = tiny_series(T=40, p=3, shift=0.0)
        channels = series.channels.copy()
        channels[:, 0] = 7.5
        series = RssSeries(series.timestamps, channels, series.activity)
        out = detrend(series, "channel_mean")
        assert np.abs(out.channels[:, 0]).max() <= 1e-12

    def test_moving_average_kills_linear_ramp(self):
        T = 50
        ramp = np.linspace(0, 10, T)[:, None] * np.ones((1, 2))
        series = RssSeries(np.arange(T, dtype=float), ramp, np.zeros(T, dtype=bool))
        out = detrend(series, "moving_average", window=3)
        assert np.abs(out.channels[1:-1]).max() <= 1e-12

    def test_channel_mean_idempotent(self):
        series = tiny_series()
        once = detrend(series, "channel_mean")
        twice = detrend(once, "channel_mean")
        assert np.abs(once.channels - twice.channels).max() <= 1e-12

    def test_inactive_means_exactly_zero(self):
        series = tiny_series()
        out = detrend(series, "channel_mean")
        inactive_means = out.channels[~out.activity].mean(axis=0)
        assert np.abs(inactive_means).max() <= 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            detrend(tiny_series(), "moving_average", window=4)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            detrend(tiny_series(), "loess")


class TestRssExperiment:
    def test_injected_shift_is_detectable(self):
        series = tiny_series(T=120, p=5, shift=3.0)
        cfg = RssExperimentConfig(
            n=40, resamples=1, seed=3, methods=("identity",)
        )
        scores, curves = rss_experiment(series, cfg)
        (block,) = scores.blocks
        h0, h1 = block.score_z[~block.label_h1], block.score_z[block.label_h1]
        assert np.mean(h1) > np.mean(h0)
        assert curves[0].method == "identity"

    def test_deterministic(self):
        series = tiny_series(T=100, p=4)
        cfg = RssExperimentConfig(n=30, resamples=3, seed=4, methods=("identity", "cq"))
        scores1, _ = rss_experiment(series, cfg)
        scores2, _ = rss_experiment(series, cfg)
        assert len(scores1.fits) == len(scores2.fits) == 6
        for a, b in zip(scores1.fits, scores2.fits):
            assert (a.trial, a.method) == (b.trial, b.method)
            for col in ("label_h1", "score_z", "score_raw"):
                assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_reference_and_test_disjoint(self):
        # reproduce the index draw and check the split directly
        series = tiny_series(T=100, p=4)
        inactive = np.flatnonzero(~series.activity)
        rng = substream(9, "rss", 0)
        ref = np.sort(rng.choice(inactive, size=30, replace=False))
        test = np.setdiff1d(np.arange(100), ref)
        assert np.intersect1d(ref, test).size == 0
        assert ref.size + test.size == 100

    def test_insufficient_inactive_rejected(self):
        series = tiny_series(T=50, p=4)
        cfg = RssExperimentConfig(n=49, resamples=1, seed=5, methods=("identity",))
        with pytest.raises(DataError):
            rss_experiment(series, cfg)

    def test_nonspectral_methods_allow_n_below_p(self):
        series = tiny_series(T=60, p=8)
        cfg = RssExperimentConfig(n=5, resamples=1, seed=7, methods=("cq",))
        scores, curves = rss_experiment(series, cfg)
        assert scores.failures == [] and len(scores.blocks) == 1
        assert curves and curves[0].method == "cq"

    def test_no_label_leak_into_fitting(self):
        # Corrupting one ACTIVE instant (never in the reference, never in the
        # channel_mean baseline) must leave every other score bit-identical.
        series = tiny_series(T=100, p=4)
        cfg = RssExperimentConfig(n=30, resamples=1, seed=6, methods=("identity",))
        scores1, _ = rss_experiment(series, cfg)
        active = np.flatnonzero(series.activity)
        corrupted = series.channels.copy()
        corrupted[active[0]] += 100.0
        series2 = RssSeries(series.timestamps, corrupted, series.activity)
        scores2, _ = rss_experiment(series2, cfg)
        ((block1,), (block2,)) = scores1.blocks, scores2.blocks
        assert block1.score_raw.size == block2.score_raw.size
        assert np.count_nonzero(block1.score_raw != block2.score_raw) == 1


def _fail_second_cq_fit(monkeypatch):
    """Make build_scorer raise on the second cq fit only (resample 1 when
    the resamples run inline)."""
    real, calls = hdshrink.scoring.build_scorer, []

    def build_scorer(method, *args, **kwargs):
        if method == "cq":
            calls.append(method)
            if len(calls) == 2:
                raise DegenerateStatisticError("forced cq failure")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(hdshrink.scoring, "build_scorer", build_scorer)


def _record_resamples(monkeypatch):
    """Keep rss_experiment's per-resample fit lists, as the engine returns
    them."""
    real, seen = hdshrink.rss.map_indices, []

    def map_indices(*args):
        seen.extend(real(*args))
        return seen

    monkeypatch.setattr(hdshrink.rss, "map_indices", map_indices)
    return seen


def _reference_records(resamples, methods):
    """The record list rss_experiment returned while its scores were one
    dict per row."""
    rows = []
    for r, fits in enumerate(resamples):
        by_method = {f.method: f for f in fits}
        for method in methods:
            fit = by_method[method]
            if isinstance(fit, Failure):
                rows.append({"trial": r, "method": method, "error": fit})
                continue
            z, raw, labels = fit.score_z, fit.score_raw, fit.label_h1
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
    return rows


def _reference_write(rows, path):
    """The per-row scores.csv writer of the record list."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,method,label_h1,score_z,score_raw\n")
        for row in rows:
            if "error" in row:
                continue
            fh.write(
                f"{row['trial']},{row['method']},{row['label_h1']},"
                f"{row['score_z']:.17g},{row['score_raw']:.17g}\n"
            )


class TestColumnarScores:
    METHODS = ("identity", "cq", "proposed")

    @pytest.fixture
    def run(self, monkeypatch):
        _fail_second_cq_fit(monkeypatch)
        resamples = _record_resamples(monkeypatch)
        cfg = RssExperimentConfig(n=30, resamples=3, seed=8, methods=self.METHODS)
        scores, _ = rss_experiment(tiny_series(T=100, p=4), cfg, threads=1)
        return scores, _reference_records(resamples, self.METHODS)

    def test_fits_in_resample_method_order(self, run):
        scores, _ = run
        assert [(f.trial, f.method) for f in scores.fits] == [
            (r, m) for r in range(3) for m in self.METHODS
        ]
        assert [(f.trial, f.method) for f in scores.failures] == [(1, "cq")]
        assert str(scores.failures[0]) == "DegenerateStatisticError: forced cq failure"

    def test_record_view_equals_reference_records(self, run):
        scores, reference = run
        assert any("error" in row for row in reference)
        assert list(scores) == reference
        assert list(scores) == reference  # the view can be read twice

    def test_scores_csv_bytes_equal_reference_writer(self, run, tmp_path):
        scores, reference = run
        write_rss_scores_csv(scores, tmp_path / "columns.csv")
        _reference_write(reference, tmp_path / "rows.csv")
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "columns.csv").read_bytes() == expected
        assert expected.count(b"\n") == 1 + sum("error" not in r for r in reference)

    def test_memory_per_scored_row(self):
        # 3 methods x 4 resamples x 2900 test instants = 34 800 scored rows;
        # one dict per row took about 265 B per row retained, 305 B at peak.
        series = tiny_series(T=3000, p=20)
        cfg = RssExperimentConfig(n=100, resamples=4, seed=2, methods=self.METHODS)
        # A first small run does the lazy imports, which are not per row.
        warm = dataclasses.replace(cfg, n=30)
        rss_experiment(tiny_series(T=100, p=4), warm, threads=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scores, curves = rss_experiment(series, cfg, threads=1)  # both held
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 3 * 4 * (3000 - 100)
        assert (current - base) / rows <= 80
        assert (peak - base) / rows <= 150
        assert sum(block.score_z.size for block in scores.blocks) == rows


class TestRssConfig:
    def test_every_key_parses(self):
        text = (
            "n = 120\nresamples = 4\ndetrend = moving_average\nwindow = 9\n"
            "seed = 2\nmethods = identity, cq\nprior.mode = identity\n"
        )
        keys = {line.split(" = ")[0].split(".")[0] for line in text.splitlines()}
        assert keys == {f.name for f in dataclasses.fields(RssExperimentConfig)}
        assert parse_config(RssExperimentConfig, text) == RssExperimentConfig(
            n=120,
            resamples=4,
            detrend="moving_average",
            window=9,
            seed=2,
            methods=("identity", "cq"),
            prior=PriorSpec("identity"),
        )

    @pytest.mark.parametrize("value", ["auto", "none"])
    def test_unset_window(self, value):
        assert parse_config(RssExperimentConfig, f"window = {value}\n").window is None

    def test_parse(self):
        cfg = parse_config(
            RssExperimentConfig,
            "n = 120\nresamples = 4\ndetrend = moving_average\nwindow = 9\n"
            "seed = 2\nmethods = identity, cq\nprior.mode = identity\n",
        )
        assert cfg.n == 120 and cfg.window == 9
        assert cfg.methods == ("identity", "cq")
        assert cfg.prior.mode == "identity"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(RssExperimentConfig, "bandwidth = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(RssExperimentConfig, "n = 10\nn = 20\n")

    def test_empty_method_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one method"):
            parse_config(RssExperimentConfig, "n = 10\nmethods = ,\n")

    @pytest.mark.parametrize(
        "text",
        [
            "detrend = moving_average\n",
            "detrend = moving_average\nwindow = 4\n",
            "detrend = moving_average\nwindow = 0\n",
            "detrend = moving_average\nwindow = -3\n",
            "detrend = loess\n",
        ],
        ids=["no-window", "even", "zero", "negative", "unknown-method"],
    )
    def test_detrend_checked_at_parse_time(self, text):
        with pytest.raises(ConfigError, match="detrend"):
            parse_config(RssExperimentConfig, text)
