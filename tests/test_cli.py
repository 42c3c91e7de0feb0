import csv
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hdshrink
import hdshrink.cli
import hdshrink.linalg
import hdshrink.scoring
import hdshrink.shrinkers
from hdshrink.cli import main
from hdshrink.errors import DataError, DegenerateStatisticError, ParseError
from hdshrink.evaluate import pooled_rocs
from hdshrink.rss import RssSeries, load_rss
from hdshrink.scoring import SPECTRAL_METHODS, ScoreBlock
from hdshrink.shrinkers import PriorSpec, ShrinkageCurve, proposed_shrinker
from hdshrink.simulate import substream

from conftest import write_rss_csv

TINY_CONFIG = """\
p = 44
n = 70
kappa = 10
gamma = 2.5
trials = 2
tests_per_trial_h0 = 6
tests_per_trial_h1 = 6
component_dist = uniform
seed = 5
methods = proposed, identity, cq
"""

# Large enough that OpenBLAS splits its products over threads.
BLAS_SIZED_CONFIG = """\
p = 200
n = 300
kappa = 100
gamma = auto
trials = 2
tests_per_trial_h0 = 20
tests_per_trial_h1 = 20
component_dist = uniform
seed = 7
"""

# Keys that are no longer settable, each with its last default value.
REMOVED_KEYS = {"prior.scale": "1", "tyler_rho": "0.1", "lappw_grid_points": "10000"}

# (method, key, value) once out of range for that method's fit; the key is
# gone, so any value of it is now a config error.
BAD_METHOD_OPTIONS = [
    ("tyler", "tyler_rho", "1.5"),
    ("tyler", "tyler_rho", "-0.1"),
]


# (key, value) that must exit 2 before anything is written: kappa at the
# covariance recipe, the others at parse time.
BAD_NUMBERS = [
    ("gamma", "nan"),
    ("gamma", "inf"),
    ("kappa", "nan"),
    ("kappa", "inf"),
    ("kappa", "0.5"),
    ("prior.scale", "nan"),
    ("prior.scale", "inf"),
    ("tests_per_trial_h0", "0"),
    ("tests_per_trial_h1", "0"),
]


def _tiny_config_with(key, value):
    """TINY_CONFIG with `key = value` in place of any line for key."""
    lines = [line for line in TINY_CONFIG.splitlines() if not line.startswith(key)]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture
def data_csv(tmp_path):
    rng = substream(1, "cli-data")
    X = rng.standard_normal((20, 60))
    path = tmp_path / "data.csv"
    np.savetxt(path, X, delimiter=",")
    return path


def _wide_csv(tmp_path, shape):
    """A p x n data CSV; shape (p, n) with p >= n has a singular sample
    covariance."""
    path = tmp_path / "wide.csv"
    np.savetxt(path, substream(1, "cli-wide").standard_normal(shape), delimiter=",")
    return path


def _fail_method(monkeypatch, failing):
    """Make the engine's build_scorer raise for one method."""
    real = hdshrink.scoring.build_scorer

    def build_scorer(method, *args, **kwargs):
        if method == failing:
            raise DegenerateStatisticError(f"forced {method} failure")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(hdshrink.scoring, "build_scorer", build_scorer)


def _errors_csv(out):
    return (out / "errors.csv").read_text().splitlines()


def _subprocess_env(blas):
    """Environment running this checkout's hdshrink, with OPENBLAS_NUM_THREADS
    unset (blas=None) or set to `blas`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hdshrink.__file__).parents[1])] + sys.path
    )
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def _rss_inputs(tmp_path, config_text, T=90, p=4, active=True):
    rng = substream(2, "cli-rss")
    activity = np.zeros(T, dtype=bool)
    activity[2 * T // 3 : 2 * T // 3 + T // 6] = active
    channels = rng.standard_normal((T, p))
    if p > 4:  # correlated channels, so the spectrum is not flat
        channels += rng.standard_normal((T, 5)) @ rng.standard_normal((5, p))
    channels[activity] += 2.5
    series = RssSeries(np.arange(T, dtype=float), channels, activity)
    data = tmp_path / "rss.csv"
    write_rss_csv(series, data)
    cfg = tmp_path / "rss.cfg"
    cfg.write_text(config_text)
    return data, cfg


class TestSimulateCommand:
    def test_outputs_and_exit_code(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "scores.csv").exists()
        assert (out / "config_echo").read_text() == TINY_CONFIG
        manifest = (out / "manifest").read_text()
        assert "seed = 5" in manifest and "numpy_version" in manifest
        assert f"threads = {min(os.cpu_count(), 2)}\n" in manifest  # 2 trials
        assert _errors_csv(out) == ["trial,method,error_type,message"]
        header = (out / "scores.csv").read_text().splitlines()[0]
        assert header == "trial,method,label_h1,score_z,score_raw"

    def test_byte_identical_reruns_and_threads(self, tmp_path, config_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(config_path), "--out", str(a)])
        main(["simulate", "--config", str(config_path), "--out", str(b)])
        main(
            ["simulate", "--config", str(config_path), "--out", str(c), "--threads", "8"]
        )
        for name in ("scores.csv", "roc.csv", "summary.csv"):
            ref = (a / name).read_bytes()
            assert (b / name).read_bytes() == ref
            assert (c / name).read_bytes() == ref

    def test_bytes_independent_of_blas_env_and_threads(self, tmp_path):
        cfg = tmp_path / "experiment.cfg"
        cfg.write_text(BLAS_SIZED_CONFIG)
        results = {}
        for blas in (None, "1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}-threads{threads}"
                subprocess.run(
                    [sys.executable, "-m", "hdshrink.cli", "simulate", "--config",
                     str(cfg), "--out", str(out), "--threads", threads],
                    env=_subprocess_env(blas), check=True, capture_output=True,
                )
                gamma = [
                    line for line in (out / "manifest").read_text().splitlines()
                    if line.startswith("gamma = ")
                ]
                files = ("scores.csv", "roc.csv", "summary.csv")
                results[blas, threads] = ([(out / f).read_bytes() for f in files], gamma)
        reference = results[None, "1"]
        assert [k for k, v in results.items() if v != reference] == []

    @pytest.mark.parametrize("setter", ["found", "missing"])
    def test_manifest_records_blas_threads(self, tmp_path, config_path, monkeypatch, setter):
        if setter == "missing":
            for module in (hdshrink.linalg, hdshrink.cli):
                monkeypatch.setattr(module, "blas_thread_control", lambda: None)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        expected = "1" if hdshrink.cli.blas_thread_control() else "unpinned"
        assert f"blas_threads = {expected}\n" in (out / "manifest").read_text()

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("p = 10\nwhat = 3\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", BAD_NUMBERS)
    def test_bad_number_exits_2(self, tmp_path, key, value, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_tiny_config_with(key, value))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if key in REMOVED_KEYS:
            line = len(TINY_CONFIG.splitlines()) + 1
            assert f"config error: config line {line}: unknown key {key!r}" in err
        else:
            assert f"config error: {key.replace('.', ' ')} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("method,key,value", BAD_METHOD_OPTIONS)
    def test_bad_method_option_exits_2(self, tmp_path, method, key, value, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            TINY_CONFIG.replace("proposed, identity, cq", method) + f"{key} = {value}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        line = len(TINY_CONFIG.splitlines()) + 1
        assert f"config error: config line {line}: unknown key {key!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_2(self, tmp_path, key, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + f"{key} = {REMOVED_KEYS[key]}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        line = len(TINY_CONFIG.splitlines()) + 1
        assert f"config error: config line {line}: unknown key {key!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_n_below_2_exits_2(self, tmp_path, n, capsys):
        # cq alone: no spectral method, so the p < n check does not apply.
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            TINY_CONFIG.replace("n = 70", f"n = {n}").replace(
                "proposed, identity, cq", "cq"
            )
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert f"config error: n must be at least 2, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_covariance_recipe_error_leaves_no_output_dir(self, tmp_path, capsys):
        # p = 30 parses (cq has no p < n check) but the covariance recipe
        # needs p >= 42; the run must fail before it makes --out.
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            TINY_CONFIG.replace("p = 44", "p = 30").replace(
                "proposed, identity, cq", "cq"
            )
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert "eigenvalue recipe needs p >= 42" in capsys.readouterr().err
        assert not out.exists()

    def test_method_failures_reported(self, tmp_path, config_path, monkeypatch, capsys):
        _fail_method(monkeypatch, "cq")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert "simulate: 2 method failures: cq=2" in capsys.readouterr().out
        assert _errors_csv(out) == [
            "trial,method,error_type,message",
            "0,cq,DegenerateStatisticError,forced cq failure",
            "1,cq,DegenerateStatisticError,forced cq failure",
        ]

    def test_degenerate_scale_recorded_as_failure(
        self, tmp_path, config_path, monkeypatch
    ):
        def zero_shrinker(curve, prior):
            return ShrinkageCurve(values=np.zeros(curve.p))

        monkeypatch.setattr(hdshrink.shrinkers, "proposed_shrinker", zero_shrinker)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        message = "standardization scale degenerate (sigma=0.0)"
        assert _errors_csv(out) == [
            "trial,method,error_type,message",
            f"0,proposed,DegenerateStatisticError,{message}",
            f"1,proposed,DegenerateStatisticError,{message}",
        ]
        scores = (out / "scores.csv").read_text()
        assert "nan" not in scores.lower()
        assert ",proposed," not in scores

    def test_every_method_failing_exits_4(self, tmp_path, monkeypatch, capsys):
        _fail_method(monkeypatch, "cq")
        config = tmp_path / "cq.cfg"
        config.write_text(_tiny_config_with("methods", "cq"))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numeric error: every method failed: cq 2x" in err
        assert "forced cq failure" in err
        assert len(_errors_csv(out)) == 3
        assert not (out / "scores.csv").exists()


class TestRssCommand:
    def test_end_to_end(self, tmp_path):
        data, cfg = _rss_inputs(
            tmp_path, "n = 30\nresamples = 2\nmethods = identity, cq\nseed = 3\n"
        )
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "scores.csv").exists()
        assert (out / "roc.csv").exists()
        assert _errors_csv(out) == ["trial,method,error_type,message"]

    def test_manifest(self, tmp_path):
        data, cfg = _rss_inputs(
            tmp_path, "n = 30\nresamples = 2\nmethods = identity, cq\nseed = 3\n"
        )
        out = tmp_path / "out"
        args = ["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]
        assert main(args + ["--threads", "5"]) == 0
        manifest = (out / "manifest").read_text()
        assert [line.split(" = ")[0] for line in manifest.splitlines()] == [
            "seed", "threads", "blas_threads", "hdshrink_version", "numpy_version"
        ]
        assert "seed = 3\n" in manifest
        assert f"threads = {min(os.cpu_count(), 2)}\n" in manifest  # 2 resamples
        assert f"hdshrink_version = {hdshrink.__version__}\n" in manifest
        assert f"numpy_version = {np.__version__}\n" in manifest

    def test_config_echo_is_the_config_file(self, tmp_path):
        data, cfg = _rss_inputs(
            tmp_path, "# tiny run\nn = 30\nresamples = 2  # two\nmethods = identity\n"
        )
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "config_echo").read_bytes() == cfg.read_bytes()

    def test_missing_config_flag_exits_2(self, tmp_path, capsys):
        data, _ = _rss_inputs(tmp_path, "n = 30\n")
        with pytest.raises(SystemExit) as exc:
            main(["rss", "--data", str(data), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_repeated_method_exits_2(self, tmp_path, capsys):
        data, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 2\nmethods = cq, cq\n")
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: repeated methods ['cq']" in capsys.readouterr().err
        assert not out.exists()

    def test_method_failures_reported(self, tmp_path, monkeypatch, capsys):
        _fail_method(monkeypatch, "cq")
        data, cfg = _rss_inputs(
            tmp_path, "n = 30\nresamples = 2\nmethods = identity, cq\nseed = 3\n"
        )
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        assert "rss: 2 method failures: cq=2" in capsys.readouterr().out
        assert _errors_csv(out) == [
            "trial,method,error_type,message",
            "0,cq,DegenerateStatisticError,forced cq failure",
            "1,cq,DegenerateStatisticError,forced cq failure",
        ]

    def test_bytes_independent_of_blas_env_and_threads(self, tmp_path):
        # 120 channels and n = 240: large enough that OpenBLAS splits its
        # products over threads when it is not pinned.
        data, cfg = _rss_inputs(
            tmp_path,
            "n = 240\nresamples = 2\nseed = 1\ndetrend = moving_average\nwindow = 51\n",
            T=400,
            p=120,
        )
        results = {}
        for blas in (None, "1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}-threads{threads}"
                subprocess.run(
                    [sys.executable, "-m", "hdshrink.cli", "rss", "--data", str(data),
                     "--config", str(cfg), "--out", str(out), "--threads", threads],
                    env=_subprocess_env(blas), check=True, capture_output=True,
                )
                results[blas, threads] = tuple(
                    (out / name).read_bytes()
                    for name in ("scores.csv", "roc.csv", "summary.csv")
                )
        reference = results[None, "1"]
        assert [k for k, v in results.items() if v != reference] == []

    def test_every_method_failing_exits_4(self, tmp_path, monkeypatch, capsys):
        _fail_method(monkeypatch, "cq")
        data, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 2\nmethods = cq\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numeric error: every method failed: cq 2x" in err
        assert "forced cq failure" in err
        assert len(_errors_csv(out)) == 3
        assert not (out / "scores.csv").exists()

    def test_no_active_instant_exits_3(self, tmp_path, capsys):
        data, cfg = _rss_inputs(
            tmp_path,
            "n = 30\nresamples = 2\nmethods = identity, cq\nseed = 3\n",
            active=False,
        )
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 3
        assert "rss series has no active instant" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize(
        "detrend,window",
        [
            ("moving_average", ""),
            ("moving_average", "window = 4\n"),
            ("channel_mean", "window = 5\n"),
        ],
        ids=["missing", "even", "unread"],
    )
    def test_bad_moving_average_window_exits_2(self, tmp_path, detrend, window):
        data, cfg = _rss_inputs(
            tmp_path, f"n = 30\nresamples = 1\ndetrend = {detrend}\n" + window
        )
        code = main(
            ["rss", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("method,key,value", BAD_METHOD_OPTIONS)
    def test_bad_method_option_exits_2(self, tmp_path, method, key, value, capsys):
        data, cfg = _rss_inputs(
            tmp_path, f"n = 30\nresamples = 1\nmethods = {method}\n{key} = {value}\n"
        )
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config line 4: unknown key {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_2(self, tmp_path, key, capsys):
        data, cfg = _rss_inputs(
            tmp_path, f"n = 30\nresamples = 1\n{key} = {REMOVED_KEYS[key]}\n"
        )
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config line 3: unknown key {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_n_below_2_exits_2(self, tmp_path, n, capsys):
        data, cfg = _rss_inputs(tmp_path, f"n = {n}\nresamples = 2\nmethods = cq\n")
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: n must be at least 2, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_method_with_n_at_most_channels_exits_2(self, tmp_path, capsys):
        # 60 channels, n = 50: fitting would fail on a singular covariance.
        data, cfg = _rss_inputs(
            tmp_path, "n = 50\nresamples = 2\nmethods = proposed, lw, cq\n", p=60
        )
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: spectral methods require p < n, got p=60, n=50" in err
        assert not out.exists()

    def test_constant_channel_fails_only_spectral_methods(self, tmp_path):
        # A dead link reads -60 throughout, so every reference covariance is
        # singular.  At seed 1 a spectrum computed outside the per-method
        # failure record makes this run exit 3 and write nothing.  The
        # spectrum fails check_spectrum whichever way its null eigenvalue
        # rounds, so every failure has one type.
        data, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 4\nseed = 1\n", p=6)
        series = load_rss(data)
        series.channels[:, 2] = -60.0
        write_rss_csv(series, data)
        out = tmp_path / "out"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "scores.csv").read_text().splitlines()[1:]]
        for method in ("tyler", "cq"):
            assert {row[0] for row in rows if row[1] == method} == {"0", "1", "2", "3"}
        errors = [row.split(",") for row in _errors_csv(out)[1:]]
        assert errors and all(row[1] in SPECTRAL_METHODS for row in errors)
        assert {row[2] for row in errors} == {"DomainError"}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty file"),
            ("t,label\n", "line 1: header too short"),
            ("t,label,ch_0002,ch_0001\n0,0,1,2\n", "line 1: unexpected header"),
            ("t,label,ch_0001\n0,0,1.5\n1,0,abc\n", "line 3: could not convert"),
            ("t,label,ch_0001\n", "line 2: no data rows"),
        ],
        ids=["empty", "short-header", "permuted-header", "non-numeric", "header-only"],
    )
    def test_malformed_data_exits_3_with_line(self, tmp_path, capsys, text, message):
        _, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 1\n")
        data = tmp_path / "bad.csv"
        data.write_text(text)
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 3
        assert f"data error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_resamples_exits_2(self, tmp_path, capsys):
        data, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 0\n")
        out = tmp_path / "o"
        assert main(["rss", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: resamples must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_exits_3(self, tmp_path):
        cfg = tmp_path / "rss.cfg"
        cfg.write_text("n = 10\n")
        code = main(
            ["rss", "--data", str(tmp_path / "nope.csv"), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3


@pytest.mark.parametrize("command", ["simulate", "rss"])
def test_seed_flag_rejected(tmp_path, config_path, capsys, command):
    # The config's seed key is the one place the seed is set.
    args = [command, "--config", str(config_path), "--out", str(tmp_path), "--seed", "9"]
    if command == "rss":
        args += ["--data", "rss.csv"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "rss"])
def test_threads_below_one_exits_2(
    tmp_path, config_path, monkeypatch, capsys, command, threads
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit started")

    monkeypatch.setattr(hdshrink.scoring, "fit_reference", no_fit)
    out = tmp_path / "o"
    args = [command, "--out", str(out), "--threads", threads]
    if command == "simulate":
        args += ["--config", str(config_path)]
    else:
        data, cfg = _rss_inputs(tmp_path, "n = 30\nresamples = 2\n")
        args += ["--config", str(cfg), "--data", str(data)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"config error: threads must be at least 1, got {threads}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["shrink", "rss", "simulate", "roc"])
def test_directory_as_input_exits_3(tmp_path, capsys, command):
    # Each command's input path names a directory: a data error, not a traceback.
    folder = tmp_path / "folder"
    folder.mkdir()
    rss_cfg = tmp_path / "rss.cfg"
    rss_cfg.write_text("n = 30\n")
    out = ["--out", str(tmp_path / "o")]
    args = {
        "shrink": ["--data", str(folder)],
        "rss": ["--data", str(folder), "--config", str(rss_cfg)],
        "simulate": ["--config", str(folder)],
        "roc": ["--scores", str(folder)],
    }[command]
    assert main([command, *args, *out]) == 3
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestShrinkCommand:
    @pytest.mark.parametrize(
        "method", ["proposed", "lw", "lappw", "hotelling", "identity", "tyler"]
    )
    def test_each_spectral_method(self, tmp_path, data_csv, method):
        out = tmp_path / f"out_{method}"
        code = main(
            ["shrink", "--data", str(data_csv), "--shrinker", method, "--out", str(out)]
        )
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "lambda,value,label"
        assert len(lines) == 21
        assert lines[1].split(",")[2] == method

    @pytest.mark.parametrize("shape", [(40, 30), (40, 40)])
    @pytest.mark.parametrize("method", hdshrink.scoring.SPECTRAL_METHODS)
    def test_p_at_least_n_exits_2(self, tmp_path, capsys, method, shape):
        code = main(
            ["shrink", "--data", str(_wide_csv(tmp_path, shape)),
             "--shrinker", method, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "spectral methods require p < n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", hdshrink.scoring.SPECTRAL_METHODS)
    def test_duplicated_row_exits_3_at_every_seed(self, tmp_path, capsys, method):
        # Row 4 repeats row 3, so the sample covariance is singular.  Its null
        # eigenvalue rounds to either sign; both fail the one spectrum rule.
        data, out = tmp_path / "dup.csv", tmp_path / "o"
        for seed in range(8):
            X = np.random.default_rng(seed).standard_normal((10, 60))
            X[4] = X[3]
            np.savetxt(data, X, delimiter=",", fmt="%.17g")
            args = ["shrink", "--data", str(data), "--shrinker", method]
            assert main(args + ["--out", str(out)]) == 3, seed
            assert "the spectrum is singular or not finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("shape", [(40, 30), (40, 40)])
    def test_tyler_with_p_at_least_n(self, tmp_path, shape):
        out = tmp_path / "o"
        code = main(
            ["shrink", "--data", str(_wide_csv(tmp_path, shape)),
             "--shrinker", "tyler", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "curve.csv").read_text().splitlines()) == shape[0] + 1

    def test_cq_rejected_as_config_error(self, tmp_path, data_csv, capsys):
        # cq is a cross-product statistic with no curve: argparse rejects it.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["shrink", "--data", str(data_csv), "--shrinker", "cq", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'cq'" in capsys.readouterr().err
        assert not out.exists()

    def test_prior_sets_the_proposed_curve(self, tmp_path, data_csv):
        values = {}
        for prior in ("identity", "covariance_matched"):
            out = tmp_path / prior
            args = ["shrink", "--data", str(data_csv), "--shrinker", "proposed"]
            assert main(args + ["--prior", prior, "--out", str(out)]) == 0
            rows = (out / "curve.csv").read_text().splitlines()[1:]
            values[prior] = [row.split(",")[1] for row in rows]
        with hdshrink.linalg.single_threaded_blas():
            fit = hdshrink.scoring.fit_reference(np.loadtxt(data_csv, delimiter=","))
            curve = proposed_shrinker(fit.curve, PriorSpec("covariance_matched"))
        assert values["covariance_matched"] == [f"{v:.17g}" for v in curve.values]
        assert values["covariance_matched"] != values["identity"]

    def test_prior_with_another_shrinker_exits_2(self, tmp_path, data_csv, capsys):
        out = tmp_path / "o"
        args = ["shrink", "--data", str(data_csv), "--shrinker", "hotelling"]
        assert main(args + ["--prior", "identity", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: --prior is read only by ('proposed', 'lappw')" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["proposed", "tyler"])
    def test_bytes_independent_of_blas_threads(self, tmp_path, method):
        # Large enough that OpenBLAS splits its products over threads.
        control = hdshrink.linalg.blas_thread_control()
        if control is None or (os.cpu_count() or 1) < 2:
            pytest.skip("needs the OpenBLAS thread setter and two cores")
        get, set_ = control
        data = tmp_path / "X.csv"
        scales = np.geomspace(1.0, 10.0, 300)[:, None]
        X = scales * substream(1, "cli-blas").standard_normal((300, 500))
        np.savetxt(data, X, delimiter=",")
        previous = get()
        curves = []
        try:
            for count in (2, 1):
                set_(count)
                out = tmp_path / f"blas{count}"
                args = ["shrink", "--data", str(data), "--shrinker", method]
                assert main(args + ["--out", str(out)]) == 0
                curves.append((out / "curve.csv").read_bytes())
        finally:
            set_(previous)
        assert curves[0] == curves[1]


@pytest.mark.parametrize(
    "env,command,warned",
    [
        ({}, "shrink", True),
        ({"OPENBLAS_NUM_THREADS": "2"}, "shrink", True),
        ({"OPENBLAS_NUM_THREADS": "1"}, "shrink", False),
        ({"OMP_NUM_THREADS": "1"}, "shrink", False),
        ({}, "oracle", False),
    ],
)
def test_unpinned_blas_warns_once(
    tmp_path, data_csv, monkeypatch, capsys, env, command, warned
):
    monkeypatch.setattr(hdshrink.cli, "blas_thread_control", lambda: None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    args = {"shrink": ["--data", str(data_csv)], "oracle": ["--phi", "0.2"]}[command]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err.count("set OPENBLAS_NUM_THREADS=1") == warned


class TestRocCommand:
    def test_summary_and_svg(self, tmp_path, config_path):
        run = tmp_path / "run"
        main(["simulate", "--config", str(config_path), "--out", str(run)])
        out = tmp_path / "roc"
        code = main(["roc", "--scores", str(run / "scores.csv"), "--out", str(out)])
        assert code == 0
        ET.parse(out / "roc.svg")
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,auc,power_at_1e-1,power_at_1e-2,power_at_1e-4"
        assert len(summary) == 4  # three methods

    @pytest.mark.parametrize(
        "row",
        ["0,proposed,2,1.5,1.5", "0,proposed,1,abc,1.5", "0,proposed",
         "0,proposed,1,nan,1.5", "0,proposed,1,inf,1.5"],
    )
    def test_malformed_row_exits_3_with_line(self, tmp_path, capsys, row):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "trial,method,label_h1,score_z,score_raw\n0,proposed,0,0.5,0.5\n"
            f"{row}\n"
        )
        code = main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "data error: line 3: " in capsys.readouterr().err

    def test_markup_in_a_method_name_is_escaped_in_the_svg(self, tmp_path):
        name = "a&<b"
        rows = [(0, 0.1), (0, -0.5), (1, 2.0), (1, 0.3)]
        scores = tmp_path / "scores.csv"
        lines = ["method,label_h1,score_z", *(f"{name},{h1},{z}" for h1, z in rows)]
        scores.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["roc", "--scores", str(scores), "--out", str(out)]) == 0
        svg = ET.parse(out / "roc.svg")
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == name  # the legend's one entry

    @pytest.mark.parametrize(
        "field, line",
        [('"a,b"', 3), ('"a""b"', 3), ('"a\nb"', 4), ('"a\rb"', 4)],
    )
    def test_method_name_csv_would_quote_exits_3_with_line(
        self, tmp_path, capsys, field, line
    ):
        scores = tmp_path / "scores.csv"
        text = f"method,label_h1,score_z\nok,0,0.5\n{field},1,1.5\n"
        scores.write_text(text, newline="")
        out = tmp_path / "o"
        assert main(["roc", "--scores", str(scores), "--out", str(out)]) == 3
        assert f"data error: line {line}: method " in capsys.readouterr().err
        assert not out.exists()

    def test_method_lacking_a_hypothesis_exits_3_naming_it(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "trial,method,label_h1,score_z,score_raw\n0,lw,0,0.5,0.5\n"
            "0,lw,1,1.5,1.5\n0,proposed,0,0.5,0.5\n"
        )
        out = tmp_path / "o"
        assert main(["roc", "--scores", str(scores), "--out", str(out)]) == 3
        assert "data error: roc of method 'proposed'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scores_exits_3(self, tmp_path):
        code = main(
            ["roc", "--scores", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_threads_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roc", "--scores", "s.csv", "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def _roc_dict_reader(args) -> int:
    """`hdshrink roc` as it read its rows through csv.DictReader, a dict per
    row, before it read them with csv.reader in one pass."""
    by_method = {}
    with open(args.scores, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"method", "label_h1", "score_z"}
        if not needed.issubset(reader.fieldnames or ()):
            raise DataError(
                f"scores file must have columns {sorted(needed)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            line, method = reader.line_num, row["method"]
            label, score = row["label_h1"], row["score_z"]
            if None in row or None in row.values():
                width = len(reader.fieldnames)
                raise ParseError(f"expected {width} fields", line=line)
            if any(c in method for c in ',"\r\n'):
                raise ParseError(f"method {method!r} holds a comma, quote or newline", line=line)
            if label not in ("0", "1"):
                raise ParseError(f"label_h1 {label!r} is not 0 or 1", line=line)
            try:
                z = float(score)
            except ValueError:
                z = math.nan
            if not math.isfinite(z):
                raise ParseError(f"score_z {score!r} is not finite", line=line)
            by_method.setdefault(method, ([], []))[int(label)].append(z)
    if not by_method:
        raise DataError("scores file contains no rows")
    blocks = []
    for m, (h0, h1) in by_method.items():
        labels = np.repeat([False, True], [len(h0), len(h1)])
        blocks.append(ScoreBlock(0, m, labels, np.array(h0 + h1), None))
    hdshrink.cli._write_rocs("roc", pooled_rocs(blocks), args.out, log_fpr=args.log_fpr)
    return 0


# Two methods with both hypotheses, one row per line: a file `roc` accepts.
_ROC_ROWS = ["a,0,0.1", "a,1,2.0", "a,0,-0.5", "a,1,0.3", "b,0,0.4", "b,1,1.2"]

# One scores file per case of the reader's contract, each written with
# newline="" so that its bytes are exactly these.
ROC_READER_CASES = {
    "crlf": "method,label_h1,score_z\r\n" + "".join(r + "\r\n" for r in _ROC_ROWS),
    "blank lines": "method,label_h1,score_z\n\n" + "\n\n".join(_ROC_ROWS) + "\n\n\n",
    "bad label after blank lines": "method,label_h1,score_z\na,0,0.1\n\n\na,2,0.2\n",
    "blank line before the header": "\nmethod,label_h1,score_z\n" + "\n".join(_ROC_ROWS),
    "extra quoted column with a comma": "method,label_h1,score_z,note\n"
    + "".join(f'{r},"x,y"\n' for r in _ROC_ROWS),
    "permuted columns": "score_z,method,label_h1\n"
    + "".join(",".join((z, m, h)) + "\n" for m, h, z in (r.split(",") for r in _ROC_ROWS)),
    "repeated score_z header": "method,score_z,label_h1,score_z\n"
    + "".join(f"{m},junk,{h},{z}\n" for m, h, z in (r.split(",") for r in _ROC_ROWS)),
    "quoted fields": "method,label_h1,score_z\n"
    + "".join(",".join(f'"{c}"' for c in r.split(",")) + "\n" for r in _ROC_ROWS),
    "quoted name with a newline": 'method,label_h1,score_z\nok,0,0.5\n"a\nb",1,1.5\n',
    "bad label, then a short row": "method,label_h1,score_z\na,0,0.1\na,2,0.2\na,1\n",
    "short row, then a bad label": "method,label_h1,score_z\na,0,0.1\na,1\na,2,0.2\n",
    "long row": "method,label_h1,score_z\na,0,0.1\na,1,0.2,9\n",
    "bad name after a non-finite score": 'method,label_h1,score_z\na,0,nan\n"a,b",1,1.5\n',
    "trailing comma on every line": "method,label_h1,score_z,\n"
    + "".join(r + ",\n" for r in _ROC_ROWS),
    "trailing comma on one row": "method,label_h1,score_z\n" + "\n".join(_ROC_ROWS) + ",\n",
    "empty file": "",
    "header only": "method,label_h1,score_z\n",
    "underscore and padded scores": "method,label_h1,score_z\n"
    + "\n".join(_ROC_ROWS) + "\na,0,1_000\nb,1, 1.5 \n",
    "one hypothesis": "method,label_h1,score_z\na,0,0.1\na,0,0.2\n",
}


@pytest.mark.parametrize("case", ROC_READER_CASES)
def test_roc_reader_matches_the_dict_reader(tmp_path, capsys, monkeypatch, case):
    scores = tmp_path / "scores.csv"
    scores.write_text(ROC_READER_CASES[case], encoding="utf-8", newline="")
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    code = main(["roc", "--scores", str(scores), "--out", str(ours)])
    err = capsys.readouterr().err
    monkeypatch.setattr(hdshrink.cli, "_cmd_roc", _roc_dict_reader)
    assert main(["roc", "--scores", str(scores), "--out", str(ref)]) == code
    assert capsys.readouterr().err == err
    assert ours.exists() == ref.exists()
    for name in ("roc.csv", "roc.svg", "summary.csv"):
        if ref.exists():
            assert (ours / name).read_bytes() == (ref / name).read_bytes(), name


def test_roc_names_the_bad_rows_own_line_after_blank_lines(tmp_path, capsys):
    # Lines 3 and 4 are blank; the bad label is on line 5.  DictReader gives
    # 5 as well: building each row's dict reads its `fieldnames` property,
    # which copies the inner reader's line_num after the blanks are skipped.
    scores = tmp_path / "scores.csv"
    scores.write_text(ROC_READER_CASES["bad label after blank lines"], newline="")
    assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "data error: line 5: label_h1 '2' is not 0 or 1\n"


@pytest.mark.parametrize("command", ["simulate", "rss"])
def test_run_roc_files_equal_the_roc_command(tmp_path, config_path, command):
    # Config order (identity before cq for rss) is not name order: every ROC
    # file lists methods sorted by name, as `roc` does.
    run, rocs = tmp_path / "run", tmp_path / "rocs"
    if command == "simulate":
        args = ["simulate", "--config", str(config_path)]
    else:
        config = "n = 30\nresamples = 2\nmethods = identity, cq\nseed = 3\n"
        data, cfg = _rss_inputs(tmp_path, config)
        args = ["rss", "--data", str(data), "--config", str(cfg)]
    assert main(args + ["--out", str(run)]) == 0
    assert main(["roc", "--scores", str(run / "scores.csv"), "--out", str(rocs)]) == 0
    for name in ("roc.csv", "roc.svg", "summary.csv"):
        assert (run / name).read_bytes() == (rocs / name).read_bytes(), name


class TestOracleCommand:
    def test_table_near_limit_values(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle", "--phi", "0.2", "--out", str(out)]) == 0
        rows = (out / "oracle.csv").read_text().splitlines()
        assert rows[0] == "x,w,hw,delta"
        assert len(rows) == 1 + 200
        body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert body.shape == (200, 4)
        assert np.allclose(body[:, 3], 1.0)  # delta == 1 on support

    def test_bad_phi_exits_3(self, tmp_path):
        assert main(["oracle", "--phi", "1.5", "--out", str(tmp_path / "o")]) == 3
