"""Command-line interface.

Subcommands: simulate, rss, shrink, roc, oracle.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, HdshrinkError, NumericError, ParseError
from .evaluate import render, roc, write_summary_csv
from .linalg import blas_thread_control, eigh, load_matrix, single_threaded_blas
from .mpkernel import identity_mp_oracle
from .rss import load_rss, rss_experiment, write_rss_scores_csv
from .rss_config import load_rss_config
from .scoring import (
    METHODS,
    Failure,
    check_regime,
    fit_reference,
    spectral_curve,
    worker_count,
    write_errors_csv,
)
from .shrinkers import PriorSpec, ShrinkageCurve, fstar_curve, tyler_estimator
from .simulate import (
    calibrate_gamma,
    load_config,
    make_covariance,
    run_trials,
    write_scores_csv,
)


def _write_manifest(out, seed, threads, *extra) -> None:
    """out/manifest: the seed, any extra (key, value) pairs, the resolved
    worker count, the BLAS pin and the versions, one `key = value` a line."""
    entries = [
        ("seed", seed),
        *extra,
        ("threads", threads),
        ("blas_threads", 1 if blas_thread_control() else "unpinned"),
        ("hdshrink_version", __version__),
        ("numpy_version", np.__version__),
    ]
    with open(os.path.join(out, "manifest"), "w", encoding="utf-8") as fh:
        for key, value in entries:
            fh.write(f"{key} = {value}\n")


def _report_failures(command, fits, out) -> None:
    """Write errors.csv and print per-method failure counts, one entry per
    failed fit of fits; a NumericError when no fit scored."""
    failures = [f for f in fits if isinstance(f, Failure)]
    write_errors_csv(failures, os.path.join(out, "errors.csv"))
    counts = collections.Counter(f.method for f in failures)
    if counts:
        detail = ", ".join(f"{m}={k}" for m, k in counts.items())
        print(f"{command}: {sum(counts.values())} method failures: {detail}")
    if len(failures) == len(fits):
        first = {f.method: f for f in reversed(failures)}
        raise NumericError(
            "every method failed: "
            + "; ".join(f"{m} {k}x, first: {first[m]}" for m, k in counts.items())
        )


def _cmd_simulate(args) -> int:
    if not args.config:
        raise ConfigError("simulate requires --config")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    threads = worker_count(args.threads, cfg.trials)
    sigma = make_covariance(cfg.p, cfg.kappa, cfg.seed)
    gamma = cfg.gamma if cfg.gamma is not None else calibrate_gamma(cfg, sigma)
    resolved = dataclasses.replace(cfg, gamma=gamma)
    outputs = run_trials(resolved, Sigma=sigma, threads=threads)
    os.makedirs(args.out, exist_ok=True)  # after the fits: no directory on a bad config
    with open(args.config, "r", encoding="utf-8") as src:
        with open(os.path.join(args.out, "config_echo"), "w", encoding="utf-8") as dst:
            dst.write(src.read())
    _write_manifest(args.out, cfg.seed, threads, ("gamma", f"{gamma:.17g}"))
    _report_failures("simulate", [f for o in outputs for f in o.fits], args.out)
    write_scores_csv(outputs, os.path.join(args.out, "scores.csv"))
    print(f"simulate: wrote {args.out}/scores.csv")
    return 0


def _cmd_rss(args) -> int:
    if not args.config:
        raise ConfigError("rss requires --config")
    cfg = load_rss_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    threads = worker_count(args.threads, cfg.resamples)
    series = load_rss(args.data)
    scores, curves = rss_experiment(series, cfg, threads=threads)
    os.makedirs(args.out, exist_ok=True)
    _write_manifest(args.out, cfg.seed, threads)
    _report_failures("rss", scores.fits, args.out)
    write_rss_scores_csv(scores, os.path.join(args.out, "scores.csv"))
    render(curves, args.out)
    print(f"rss: wrote {args.out}/scores.csv and {args.out}/roc.csv")
    return 0


def _cmd_shrink(args) -> int:
    X = load_matrix(args.data)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "curve.csv")
    if args.shrinker == "cq":
        raise ConfigError(
            "cq is a cross-product statistic, not a spectral curve; "
            "use it via `simulate` or `rss`"
        )
    with single_threaded_blas():  # as in both drivers: bytes independent of BLAS
        if args.shrinker == "tyler":
            spec = eigh(tyler_estimator(X))
            curve = ShrinkageCurve(values=1.0 / spec.eigenvalues, label="tyler")
            curve.to_csv(out_path, spec.eigenvalues)
        else:
            check_regime((args.shrinker,), *X.shape)
            fit = fit_reference(X)
            curve = spectral_curve(args.shrinker, fit, PriorSpec(mode=args.prior))
            curve.to_csv(out_path, fit.curve.lam)
    print(f"shrink: wrote {out_path}")
    return 0


def _cmd_roc(args) -> int:
    by_method = {}
    try:
        with open(args.scores, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            needed = {"method", "label_h1", "score_z"}
            if not needed.issubset(reader.fieldnames or ()):
                raise DataError(
                    f"scores file must have columns {sorted(needed)}, "
                    f"got {reader.fieldnames}"
                )
            for row in reader:
                line, label, score = reader.line_num, row["label_h1"], row["score_z"]
                if None in row or None in row.values():
                    width = len(reader.fieldnames)
                    raise ParseError(f"expected {width} fields", line=line)
                if label not in ("0", "1"):
                    raise ParseError(f"label_h1 {label!r} is not 0 or 1", line=line)
                try:
                    z = float(score)
                except ValueError:
                    z = math.nan
                if not math.isfinite(z):
                    raise ParseError(f"score_z {score!r} is not finite", line=line)
                by_method.setdefault(row["method"], ([], []))[int(label)].append(z)
    except OSError as exc:
        raise DataError(f"cannot read scores file: {exc}") from exc
    if not by_method:
        raise DataError("scores file contains no rows")
    curves = [
        roc(np.array(h0), np.array(h1), method=m)
        for m, (h0, h1) in sorted(by_method.items())
    ]
    os.makedirs(args.out, exist_ok=True)
    render(curves, args.out, log_fpr=args.log_fpr)
    write_summary_csv(curves, os.path.join(args.out, "summary.csv"))
    print(f"roc: wrote {args.out}/roc.csv, roc.svg, summary.csv")
    return 0


def _cmd_oracle(args) -> int:
    if args.points < 1:
        raise ConfigError(f"points must be at least 1, got {args.points}")
    oracle = identity_mp_oracle(args.phi)
    a, b = oracle.support
    margin = 1e-3 * (b - a)
    xs = np.linspace(a + margin, b - margin, args.points)
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    fstar = fstar_curve(oracle, ones, xs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "oracle.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,w,hw,delta,fstar\n")
        for x, f in zip(xs, fstar):
            fh.write(
                f"{x:.17g},{oracle.w(x):.17g},{oracle.Hw(x):.17g},"
                f"{oracle.delta(x):.17g},{f:.17g}\n"
            )
    print(f"oracle: wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdshrink",
        description="Spectral covariance shrinkage and mean-shift detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, help="worker threads (default: cores)")
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default="out")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo synthetic experiment")
    experiment(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_rss = sub.add_parser("rss", help="sensor-data detection experiment")
    experiment(p_rss)
    p_rss.add_argument("--data", required=True)
    p_rss.set_defaults(func=_cmd_rss)

    p_shr = sub.add_parser("shrink", help="dump a shrinkage curve for a data CSV")
    p_shr.add_argument("--out", default="out")
    p_shr.add_argument("--data", required=True)
    p_shr.add_argument("--shrinker", choices=METHODS, default="proposed")
    p_shr.add_argument(
        "--prior", choices=("identity", "covariance_matched"), default="identity"
    )
    p_shr.set_defaults(func=_cmd_shrink)

    p_roc = sub.add_parser("roc", help="scores CSV -> ROC, AUC, summary")
    p_roc.add_argument("--out", default="out")
    p_roc.add_argument("--scores", required=True)
    p_roc.add_argument("--log-fpr", action="store_true")
    p_roc.set_defaults(func=_cmd_roc)

    p_orc = sub.add_parser("oracle", help="identity-model density/shrinker tables")
    p_orc.add_argument("--out", default="out")
    p_orc.add_argument("--phi", type=float, required=True)
    p_orc.add_argument("--points", type=int, default=200)
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HdshrinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
