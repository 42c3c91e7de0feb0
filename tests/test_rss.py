import dataclasses

import numpy as np
import pytest

from hdshrink.errors import ConfigError, DataError, DomainError, ParseError
from hdshrink.rss import (
    RssExperimentConfig,
    RssSchema,
    RssSeries,
    detrend,
    load_rss,
    rss_experiment,
    save_rss,
)
from hdshrink.scoring import parse_config
from hdshrink.shrinkers import PriorSpec
from hdshrink.simulate import substream


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
        save_rss(series, first)
        save_rss(load_rss(first, RssSchema(channel_count=2)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_channel_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,label,ch_0001\n1.0,0,0.5\n")
        with pytest.raises(ParseError, match="ch_0002"):
            load_rss(path, RssSchema(channel_count=2))

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,label,ch_0001\n1.0,0,0.5\n2.0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_rss(path, RssSchema(channel_count=1))

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("t,label,ch_0001\n1.0,maybe,0.5\n")
        with pytest.raises(ParseError, match="unknown label"):
            load_rss(path, RssSchema(channel_count=1))

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
            load_rss(path, RssSchema(channel_count=1))

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text("t,label,ch_0001\n2.0,0,0.5\n1.0,0,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_rss(path, RssSchema(channel_count=1))


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
        rows, curves = rss_experiment(series, cfg)
        h0 = [r["score_z"] for r in rows if "error" not in r and r["label_h1"] == 0]
        h1 = [r["score_z"] for r in rows if "error" not in r and r["label_h1"] == 1]
        assert np.mean(h1) > np.mean(h0)
        assert curves[0].method == "identity"

    def test_deterministic(self):
        series = tiny_series(T=100, p=4)
        cfg = RssExperimentConfig(n=30, resamples=3, seed=4, methods=("identity", "cq"))
        rows1, _ = rss_experiment(series, cfg)
        rows2, _ = rss_experiment(series, cfg)
        assert rows1 == rows2

    def test_reference_and_test_disjoint(self):
        # reproduce the index draw and check the split directly
        series = tiny_series(T=100, p=4)
        inactive = series.inactive_indices()
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
        rows, curves = rss_experiment(series, cfg)
        assert all("error" not in r for r in rows)
        assert curves and curves[0].method == "cq"

    def test_no_label_leak_into_fitting(self):
        # Corrupting one ACTIVE instant (never in the reference, never in the
        # channel_mean baseline) must leave every other score bit-identical.
        series = tiny_series(T=100, p=4)
        cfg = RssExperimentConfig(n=30, resamples=1, seed=6, methods=("identity",))
        rows1, _ = rss_experiment(series, cfg)
        active = np.flatnonzero(series.activity)
        corrupted = series.channels.copy()
        corrupted[active[0]] += 100.0
        series2 = RssSeries(series.timestamps, corrupted, series.activity)
        rows2, _ = rss_experiment(series2, cfg)
        assert len(rows1) == len(rows2)
        changed = [
            i
            for i, (a, b) in enumerate(zip(rows1, rows2))
            if a["score_raw"] != b["score_raw"]
        ]
        assert len(changed) == 1


class TestRssConfig:
    def test_every_key_parses(self):
        text = (
            "n = 120\nresamples = 4\ndetrend = moving_average\nwindow = 9\n"
            "seed = 2\nmethods = identity, cq\nprior.mode = identity\n"
            "prior.scale = 3\ntyler_rho = 0.2\nlappw_grid_points = 50\n"
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
            prior=PriorSpec("identity", 3.0),
            tyler_rho=0.2,
            lappw_grid_points=50,
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
