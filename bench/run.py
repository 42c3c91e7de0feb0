#!/usr/bin/env python3
"""Benchmark of the hdshrink experiment subcommands, end to end and per layer.

    python3 bench/run.py --workload sim-accept --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

One run generates the workload's inputs from ``--seed``, sets up eleven times
(fresh interpreter importing hdshrink, then input generation), then repeats
the subcommand's pipeline until ``--seconds`` have passed (at least three times).
Every repetition makes the public calls the CLI subcommand makes, in the same
order, with ``time.perf_counter`` around the top-level calls only, and must
pass the correctness gate.  With ``--trace 1`` two more repetitions run with
every layer wrapped (see spans.py) and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, plus the host block.  A results file with
the host block, every repetition and every metric goes to ``bench/out/``.
See RATIONALE.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import SpanIndex, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

METHODS = ("proposed", "lw", "lappw", "tyler", "cq", "hotelling", "identity")
SETUPS = 11
MIN_REPEATS = 3
TRACED_REPEATS = 2
Z_ALPHA = statistics.NormalDist().inv_cdf(0.9)  # normal threshold at alpha = 0.1


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs and the gate its outputs must pass."""

    name: str
    subcommand: str  # "simulate" or "rss"
    config: dict  # generated config file, less the seed
    threads: int = 1  # run_trials worker threads (simulate only)
    series: dict | None = None  # synthetic sensor series (rss only)
    auc_ref: dict = field(default_factory=dict)  # method -> reference AUC
    auc_tol: float = 0.0
    proposed_best: bool = False  # gate: AUC(proposed) >= every other - 0.01


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-accept",
            subcommand="simulate",
            config={
                "p": 200, "n": 300, "kappa": 100, "gamma": "auto",
                "prior.mode": "identity", "trials": 8,
                "tests_per_trial_h0": 200, "tests_per_trial_h1": 200,
                "component_dist": "uniform", "methods": ", ".join(METHODS),
            },
            threads=2,
            auc_ref={
                "proposed": 0.749, "lw": 0.729, "lappw": 0.624, "tyler": 0.711,
                "cq": 0.521, "hotelling": 0.645, "identity": 0.521,
            },
            auc_tol=0.08,
            proposed_best=True,
        ),
        Workload(
            name="sim-large",
            subcommand="simulate",
            config={
                "p": 800, "n": 1200, "kappa": 10000, "gamma": 6.0,
                "prior.mode": "identity", "trials": 1,
                "tests_per_trial_h0": 1000, "tests_per_trial_h1": 1000,
                "component_dist": "uniform", "methods": ", ".join(METHODS),
            },
            auc_ref={
                "proposed": 0.797, "lw": 0.785, "lappw": 0.528, "tyler": 0.733,
                "cq": 0.498, "hotelling": 0.65, "identity": 0.498,
            },
            auc_tol=0.06,
            proposed_best=True,
        ),
        Workload(
            name="rss-synth",
            subcommand="rss",
            config={
                "n": 300, "resamples": 20, "detrend": "moving_average",
                "window": 101, "prior.mode": "covariance_matched",
                "methods": "proposed, lw, tyler, cq, hotelling, identity",
            },
            series={"instants": 2000, "channels": 182, "block": 20, "blocks": 15},
            auc_ref={
                "proposed": 0.765, "lw": 0.76, "tyler": 0.75, "cq": 0.515,
                "hotelling": 0.69, "identity": 0.515,
            },
            auc_tol=0.06,
        ),
    )
}


# ---------------------------------------------------------------- host block


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, read through its ctypes
    getter (never set).  None when the library or getter is not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
        "blas_threads": blas_threads(),
    }


# ------------------------------------------------------------------- inputs


def make_series(seed: int, instants: int, channels: int, block: int, blocks: int):
    """Synthetic received-signal-strength series: slow per-channel drift,
    factor-correlated noise with uneven channel scales, and `blocks`
    activity blocks of `block` instants that each shift a random fifth of
    the channels.  Returns (t, labels, T x channels matrix)."""
    rng = np.random.default_rng([seed, 0x2155])
    t = np.arange(instants)
    labels = np.zeros(instants, dtype=bool)
    starts = np.sort(rng.choice(instants // block, size=blocks, replace=False)) * block
    for s in starts:
        labels[s : s + block] = True
    factors = 6
    loadings = rng.standard_normal((channels, factors)) * rng.uniform(0.3, 1.5, factors)
    scale = np.exp(rng.normal(0.0, 0.4, channels))
    drift = np.zeros((instants, channels))
    for _ in range(3):
        period = rng.uniform(400, 3000, channels)
        phase = rng.uniform(0, 2 * np.pi, channels)
        drift += np.sin(2 * np.pi * t[:, None] / period + phase) * rng.uniform(0.5, 2, channels)
    X = (
        -55.0
        + drift
        + rng.standard_normal((instants, factors)) @ loadings.T
        + rng.standard_normal((instants, channels)) * scale
    )
    for s in starts:
        hit = rng.random(channels) < 0.2
        X[s : s + block] += np.where(hit, -rng.uniform(0.5, 1.5, channels), 0.0) * scale
    return 0.5 * t, labels, X


def make_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Write the workload's config (and series CSV) under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in w.config.items()] + [f"seed = {seed}"]
    paths = {"config": work / "experiment.cfg"}
    paths["config"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    if w.series is not None:
        t, labels, X = make_series(seed, **w.series)
        paths["data"] = work / "series.csv"
        header = ["t", "label"] + [f"ch_{i:04d}" for i in range(1, X.shape[1] + 1)]
        with open(paths["data"], "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            np.savetxt(
                fh,
                np.column_stack([t, labels, X]),
                fmt=["%.1f", "%d"] + ["%.3f"] * X.shape[1],
                delimiter=",",
            )
    return paths


def set_up(w: Workload, seed: int, work: Path) -> tuple[float, dict]:
    """One set-up: a fresh interpreter imports hdshrink, then the inputs are
    generated.  Returns (seconds, input paths)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hdshrink"], env=env, check=True)
    paths = make_inputs(w, seed, work)
    return time.perf_counter() - start, paths


# ---------------------------------------------------------------- pipelines


def run_simulate(w: Workload, inputs: dict, out: Path) -> dict:
    """`hdshrink simulate` then `hdshrink roc` on its scores."""
    from hdshrink import cli, simulate

    scores = out / "scores.csv"
    cpu0, t0 = time.process_time(), time.perf_counter()
    cfg = simulate.load_config(inputs["config"])
    sigma = simulate.make_covariance(cfg.p, cfg.kappa, cfg.seed)
    gamma = cfg.gamma if cfg.gamma is not None else simulate.calibrate_gamma(cfg, sigma)
    resolved = dataclasses.replace(cfg, gamma=gamma)
    t1 = time.perf_counter()
    outputs = simulate.run_trials(resolved, Sigma=sigma, threads=w.threads)
    t2 = time.perf_counter()
    simulate.write_scores_csv(outputs, scores)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["roc", "--scores", str(scores), "--out", str(out)])
    t3, cpu3 = time.perf_counter(), time.process_time()
    if code != 0:
        raise RuntimeError(f"hdshrink roc exited {code}")

    aucs = {}
    with open(out / "summary.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            method, value = line.split(",")[:2]
            aucs[method] = float(value)
    h0 = [o.scores["proposed"]["h0_z"] for o in outputs if "proposed" in o.scores]
    return {
        "wall_s": t3 - t0,
        "work_s": t2 - t1,
        "units": cfg.trials,
        "cpu_s": cpu3 - cpu0,
        "aucs": aucs,
        "null_fa_rate": float(np.mean(np.concatenate(h0) > Z_ALPHA)) if h0 else None,
        "fits": cfg.trials * len(cfg.methods),
        "fit_failures": sum(len(o.errors) for o in outputs),
        "expected_rows": cfg.trials
        * len(cfg.methods)
        * (cfg.tests_per_trial_h0 + cfg.tests_per_trial_h1),
    }


def run_rss(w: Workload, inputs: dict, out: Path) -> dict:
    """`hdshrink rss`: config, series, experiment, scores CSV, ROC render."""
    from hdshrink import evaluate, rss, rss_config

    cpu0, t0 = time.process_time(), time.perf_counter()
    cfg = rss_config.load_rss_config(inputs["config"])
    series = rss.load_rss(inputs["data"])
    t1 = time.perf_counter()
    rows, curves = rss.rss_experiment(series, cfg)
    t2 = time.perf_counter()
    rss.write_rss_scores_csv(rows, out / "scores.csv")
    evaluate.render(curves, out)
    t3, cpu3 = time.perf_counter(), time.process_time()

    h0 = [
        r["score_z"]
        for r in rows
        if r["method"] == "proposed" and "error" not in r and r["label_h1"] == 0
    ]
    return {
        "wall_s": t3 - t0,
        "work_s": t2 - t1,
        "units": cfg.resamples,
        "cpu_s": cpu3 - cpu0,
        "aucs": {c.method: evaluate.auc(c) for c in curves},
        "null_fa_rate": float(np.mean(np.array(h0) > Z_ALPHA)) if h0 else None,
        "fits": cfg.resamples * len(cfg.methods),
        "fit_failures": sum(1 for r in rows if "error" in r),
        "expected_rows": cfg.resamples
        * len(cfg.methods)
        * (series.channels.shape[0] - cfg.n),
    }


PIPELINES = {"simulate": run_simulate, "rss": run_rss}


def gate(w: Workload, rec: dict, scores_path: Path) -> list:
    """Correctness problems of one repetition; empty when it passes."""
    problems = []
    data = np.loadtxt(scores_path, delimiter=",", skiprows=1, usecols=(3, 4), ndmin=2)
    if data.shape[0] != rec["expected_rows"]:
        problems.append(f"scores.csv has {data.shape[0]} rows, expected {rec['expected_rows']}")
    if not np.isfinite(data).all():
        problems.append("scores.csv holds non-finite scores")
    aucs = rec["aucs"]
    for method, ref in w.auc_ref.items():
        got = aucs.get(method)
        if got is None or not abs(got - ref) <= w.auc_tol:
            problems.append(f"AUC({method}) = {got}, reference {ref} +/- {w.auc_tol}")
    if w.proposed_best and "proposed" in aucs:
        for method, value in aucs.items():
            if aucs["proposed"] < value - 0.01:
                problems.append(f"AUC(proposed) {aucs['proposed']:.4f} < AUC({method}) {value:.4f} - 0.01")
    return problems


def repeat_once(w: Workload, inputs: dict, out: Path) -> dict:
    """One gated repetition; an exception or a gate problem marks it failed."""
    out.mkdir(parents=True, exist_ok=True)
    try:
        rec = PIPELINES[w.subcommand](w, inputs, out)
        rec["problems"] = gate(w, rec, out / "scores.csv")
    except Exception as exc:  # a failed operation, reported, not a timing
        rec = {"problems": [f"{type(exc).__name__}: {exc}"]}
    return rec


# ------------------------------------------------------------------ metrics


def fit_quality(recs: list) -> tuple:
    """(fail_ratio, null_fa_err) over the repetitions `recs`: method
    failures / method fits, and the median |H0 rate of proposed z >
    Phi^-1(0.9) - 0.1|."""
    fits = sum(r.get("fits", 0) for r in recs)
    rates = [r["null_fa_rate"] for r in recs if r.get("null_fa_rate") is not None]
    return (
        sum(r.get("fit_failures", 0) for r in recs) / fits if fits else 1.0,
        statistics.median(abs(x - 0.1) for x in rates) if rates else float("nan"),
    )


def end_to_end(recs: list, setups: list) -> dict:
    ok = [r for r in recs if not r["problems"]] or [{}]

    def med(value):
        return statistics.median(value(r) for r in ok)

    fail_ratio, null_fa_err = fit_quality(recs)
    nan = float("nan")
    return {
        "wall_s": (med(lambda r: r.get("wall_s", nan)), "s"),
        "trials_per_s": (med(lambda r: r.get("units", 0) / r.get("work_s", nan)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (med(lambda r: r.get("cpu_s", nan)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "auc_proposed": (med(lambda r: r.get("aucs", {}).get("proposed", nan)), "auc"),
        # Printed, but not in BENCHMARK.json: both are 0, or near it, on a
        # clean run, so a bound relative to their median means nothing.
        "fail_ratio": (fail_ratio, "ratio"),
        "null_fa_err": (null_fa_err, "ratio"),
    }


TIMED = (
    "simulate.calibrate_gamma", "shrinkers.lappw_select_b", "shrinkers.tyler_estimator",
    "mpkernel.kernel_matrix", "mpkernel.lw_curve", "shrinkers.proposed_shrinker",
    "linalg.sample_covariance", "linalg.eigh", "scoring.score", "detector.srht_many",
    "detector.standardization_scale", "detector.sigma_tilde2_batch", "rss.load_rss",
    "rss.detrend", "rss.write_rss_scores_csv", "evaluate.roc", "evaluate.render",
    "simulate.write_scores_csv",
) + tuple(f"scoring.build_scorer.{m}" for m in METHODS)
SELF_TIMED = ("scoring.fit_reference", "simulate.run_trials", "rss.rss_experiment")
# Counts that must repeat exactly between the two traced repetitions.
EXACT_COUNTS = (
    "mpkernel.kernel_matrix.calls_per_fit", "simulate.substream.calls", "scoring.score.vectors",
)


def layer_metrics(spans, threads: int) -> dict:
    ix = SpanIndex(spans)
    m = {f"{name}.s": (ix.total(name), "s") for name in TIMED}
    m.update({f"{name}.self_s": (ix.self_time(name), "s") for name in SELF_TIMED})
    fits = ix.calls("scoring.fit_reference")
    m["mpkernel.kernel_matrix.calls_per_fit"] = (
        ix.calls("mpkernel.kernel_matrix") / fits if fits else 0.0, "count")
    m["simulate.substream.calls"] = (ix.calls("simulate.substream"), "count")
    m["scoring.score.vectors"] = (ix.items("scoring.score"), "count")
    m["simulate.run_trials.busy_ratio"] = (ix.busy_ratio("simulate.run_trials", threads), "ratio")
    return m


def tyler_iterations(fn, args, kwargs) -> int:
    """Iterations tyler_estimator takes on this input, counted from outside:
    the smallest max_iter at which the same call stops raising
    ConvergenceError.  The call is one that converged in the traced run."""
    import inspect

    from hdshrink.errors import ConvergenceError

    kwargs = dict(kwargs)
    limit = kwargs.pop("max_iter", inspect.signature(fn).parameters["max_iter"].default)

    def converges(k):
        try:
            fn(*args, max_iter=k, **kwargs)
        except ConvergenceError:
            return False
        return True

    return bisect.bisect_left(range(1, limit + 1), True, key=converges) + 1


def traced_layers(w: Workload, inputs: dict, out: Path, wall_untraced: float):
    """Repeat the pipeline TRACED_REPEATS times with every layer wrapped.
    Returns (repetitions, per-layer metrics, problems)."""
    tracer = Tracer()
    recs, per_run = [], []
    with tracer.patched():
        for run in range(1, TRACED_REPEATS + 1):
            tracer.run = run
            recs.append(repeat_once(w, inputs, out))
            per_run.append(layer_metrics([s for s in tracer.spans if s.run == run], w.threads))
    tracer.dump(out.parent / "spans.json")

    problems = [
        f"{name} differs between traced runs: {[m[name][0] for m in per_run]}"
        for name in EXACT_COUNTS
        if len({m[name][0] for m in per_run}) != 1
    ]
    metrics = {
        name: (value if unit == "count" else statistics.median(m[name][0] for m in per_run), unit)
        for name, (value, unit) in per_run[0].items()
    }
    # Mean over every call of traced run 1, so the order in which worker
    # threads reach tyler_estimator does not matter.
    tyler = [tyler_iterations(*c) for c in tracer.captured["shrinkers.tyler_estimator"]]
    metrics["shrinkers.tyler_estimator.iters"] = (statistics.fmean(tyler) if tyler else 0, "count")
    ok = [r["wall_s"] for r in recs if not r["problems"]]
    metrics["trace.overhead_s"] = (
        statistics.median(ok) - wall_untraced if ok else float("nan"), "s")
    fail_ratio, null_fa_err = fit_quality(recs)
    metrics["scoring.fail_ratio"] = (fail_ratio, "ratio")
    metrics["detector.null_fa_err"] = (null_fa_err, "ratio")
    return recs, metrics, problems


# ---------------------------------------------------------------------- run


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, repeat for `seconds`, gate every repetition, and collect the
    end-to-end metrics, plus the per-layer ones when `trace`."""
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"{tag}-{os.getpid()}"
    setups, inputs = [], None
    for _ in range(SETUPS):
        took, inputs = set_up(w, seed, work / "inputs")
        setups.append(took)

    recs = []
    deadline = time.perf_counter() + seconds
    while len(recs) < MIN_REPEATS or time.perf_counter() < deadline:
        recs.append(repeat_once(w, inputs, work / "outputs"))
    metrics = end_to_end(recs, setups)
    problems = [p for r in recs for p in r["problems"]]
    all_recs = list(recs)
    if trace:
        walls = [r["wall_s"] for r in recs if not r["problems"]]
        untraced = statistics.median(walls) if walls else float("nan")
        traced, layers, trace_problems = traced_layers(w, inputs, work / "outputs", untraced)
        metrics.update(layers)
        all_recs += traced
        problems += [p for r in traced for p in r["problems"]] + trace_problems
    failed = sum(1 for r in all_recs if r["problems"])
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_block(),
        "correct": not problems,
        "attempted": len(all_recs),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repetitions": all_recs,
        "work": str(work),
    }


def contract_metrics(result: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {name: result["metrics"][name] for name in names}


def report(result: dict) -> dict:
    """Print the host block and every metric; write the results file;
    return the contract line."""
    print("host " + json.dumps(result["host"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<10} {name:<40} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"{result['workload']:<10} GATE FAILED: {problem}")
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = Path(result["work"]) / "spans.json"
    if spans.exists():
        spans.replace(OUT / f"{tag}-spans.json")
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(result["work"], ignore_errors=True)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, bool(result["trace"])),
    }


def run_all(args) -> int:
    """Each workload in its own process; prints everything, then one line
    with every workload's metrics prefixed by its name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdshrink" / "__init__.py").is_file():
        print(f"bench: no hdshrink sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
