import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hdshrink.cli import ORACLE_POINTS, main
from hdshrink.errors import DataError, DomainError
from hdshrink.evaluate import (
    FLOAT_FMT,
    POWER_LEVELS,
    RocCurve,
    auc,
    pooled_rocs,
    power_at_fpr,
    render,
    roc,
    roc_corners,
    write_roc_csv,
    write_score_blocks,
    write_summary_csv,
    write_table,
)
from hdshrink.linalg import single_threaded_blas
from hdshrink.mpkernel import identity_mp_oracle
from hdshrink.scoring import Failure, ScoreBlock, fit_reference, spectral_curve
from hdshrink.shrinkers import PriorSpec, fstar_curve, ridge_shrinker
from hdshrink.simulate import substream


def pairwise_auc(h0, h1):
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    wins = sum(1.0 for a in h1 for b in h0 if a > b)
    ties = sum(1.0 for a in h1 for b in h0 if a == b)
    return (wins + 0.5 * ties) / (h0.size * h1.size)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.0, 1.0], [2.0, 3.0])
        assert auc(curve) == pytest.approx(1.0, abs=1e-12)
        idx = np.flatnonzero(curve.tpr == 1.0)
        assert curve.fpr[idx[0]] == 0.0  # reaches (0, 1) before (1, 1)

    def test_identical_multisets_give_half(self):
        scores = [0.3, 1.2, 1.2, 5.0]
        assert auc(roc(scores, scores)) == pytest.approx(0.5, abs=1e-15)

    def test_interleaved_example(self):
        curve = roc([0.0, 2.0], [1.0, 3.0])
        assert auc(curve) == pytest.approx(0.75, abs=1e-12)
        assert pairwise_auc([0.0, 2.0], [1.0, 3.0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            roc([], [1.0])

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        curve = roc(rng.standard_normal(50), rng.standard_normal(60) + 0.5)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            h0 = rng.integers(0, 6, 23).astype(float)
            h1 = rng.integers(0, 6, 17).astype(float)
            assert auc(roc(h0, h1)) == pytest.approx(
                pairwise_auc(h0, h1), abs=1e-12
            )

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 8, 30).astype(float)
        b = rng.integers(0, 8, 25).astype(float)
        assert auc(roc(a, b)) + auc(roc(b, a)) == pytest.approx(1.0, abs=1e-12)


class TestPowerAtFpr:
    def test_perfect_curve_at_tiny_alpha(self):
        curve = roc([0.0, 1.0], [2.0, 3.0])
        assert power_at_fpr(curve, 1e-4) == pytest.approx(1.0)

    def test_interpolates_toward_corner(self):
        curve = roc([0.0], [1.0])
        # single scores: points (0,0), (0,1), (1,1); any alpha gives 1
        assert power_at_fpr(curve, 0.5) == pytest.approx(1.0)

    def test_hand_built_interpolation(self):
        h0 = [0.0, 1.0, 2.0, 3.0]  # quartiles
        h1 = [2.5]
        curve = roc(h0, h1)
        # tpr jumps to 1 once threshold <= 2.5, i.e. at fpr = 0.25
        assert power_at_fpr(curve, 0.25) == pytest.approx(1.0)
        assert power_at_fpr(curve, 0.125) == pytest.approx(0.5)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        curve = roc(rng.standard_normal(40), rng.standard_normal(40) + 1.0)
        alphas = np.linspace(0.01, 0.99, 25)
        powers = [power_at_fpr(curve, a) for a in alphas]
        assert np.all(np.diff(powers) >= -1e-12)

    def test_alpha_domain(self):
        curve = roc([0.0], [1.0])
        with pytest.raises(DomainError):
            power_at_fpr(curve, 0.0)


class TestPooledRocs:
    def test_failed_fits_are_skipped(self):
        labels = np.array([False, False, True, True])
        fits = [
            ScoreBlock(0, "b", labels, np.array([3.0, 0.0, 1.0, 2.0]), np.zeros(4)),
            ScoreBlock(0, "a", labels, np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4)),
            Failure(0, "c", "RegimeError", "forced"),
            Failure(1, "a", "RegimeError", "forced"),
            ScoreBlock(1, "a", labels, np.array([0.5, 1.5, 0.0, 4.0]), np.zeros(4)),
            Failure(1, "b", "RegimeError", "forced"),
            Failure(1, "c", "RegimeError", "forced"),
        ]
        curves = pooled_rocs(fits)
        assert [c.method for c in curves] == ["a", "b"]  # sorted by name
        expected = [
            roc([0.0, 1.0, 0.5, 1.5], [2.0, 3.0, 0.0, 4.0], method="a"),
            roc([3.0, 0.0], [1.0, 2.0], method="b"),
        ]
        for curve, ref in zip(curves, expected):
            for field in ("fpr", "tpr", "thresholds"):
                assert np.array_equal(getattr(curve, field), getattr(ref, field))


class TestRender:
    def test_svg_wellformed_and_csv_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        curves = [
            roc(rng.standard_normal(20), rng.standard_normal(20) + 1, method="a"),
            roc(rng.standard_normal(20), rng.standard_normal(20) + 2, method="b"),
        ]
        csv_path, svg_path = render(curves, tmp_path)
        ET.parse(svg_path)  # raises on malformed XML
        lines = open(csv_path).read().splitlines()
        expected_rows = sum(roc_corners(c).fpr.size for c in curves)
        assert len(lines) == expected_rows + 1

    def test_rerender_byte_identical(self, tmp_path):
        curve = roc([0.0, 1.0], [0.5, 2.0], method="m")
        a = tmp_path / "a"
        b = tmp_path / "b"
        render([curve], a)
        render([curve], b)
        assert (a / "roc.svg").read_bytes() == (b / "roc.svg").read_bytes()
        assert (a / "roc.csv").read_bytes() == (b / "roc.csv").read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            render([], tmp_path)

    @pytest.mark.parametrize("log_fpr", [False, True])
    def test_polyline_holds_the_corners(self, tmp_path, log_fpr):
        rng = np.random.default_rng(6)
        curves = [
            roc(rng.integers(0, 9, 40), rng.integers(2, 11, 30), method="a"),
            roc(rng.standard_normal(25), rng.standard_normal(35), method="b"),
        ]
        _, svg_path = render(curves, tmp_path, log_fpr=log_fpr)
        lines = ET.parse(svg_path).findall("{http://www.w3.org/2000/svg}polyline")
        counts = [len(line.get("points").split()) for line in lines]
        assert counts == [roc_corners(c).fpr.size for c in curves]
        assert counts[0] < curves[0].fpr.size


def _random_curves():
    rng = np.random.default_rng(5)
    for _ in range(20):
        yield roc(rng.integers(0, 7, 31), rng.integers(1, 8, 27))  # ties
        yield roc(rng.standard_normal(40), rng.standard_normal(33) + 0.7)


class TestRocCorners:
    def test_ordered_subset_with_endpoints(self):
        for curve in _random_curves():
            k = roc_corners(curve)
            idx = np.flatnonzero(np.isin(curve.thresholds, k.thresholds))
            assert idx.size == k.thresholds.size
            assert np.array_equal(curve.fpr[idx], k.fpr)
            assert np.array_equal(curve.tpr[idx], k.tpr)
            assert (k.fpr[0], k.tpr[0], k.fpr[-1], k.tpr[-1]) == (0, 0, 1, 1)
            assert k.method == curve.method

    def test_dropped_points_lie_on_axis_segments(self):
        for curve in _random_curves():
            k = roc_corners(curve)
            kept = np.isin(curve.thresholds, k.thresholds)
            pos = np.cumsum(kept)  # kept neighbours of a dropped point i: pos-1, pos
            for i in np.flatnonzero(~kept):
                lo, hi = pos[i] - 1, pos[i]
                f, t = curve.fpr[i], curve.tpr[i]
                horizontal = k.tpr[lo] == t == k.tpr[hi] and k.fpr[lo] <= f <= k.fpr[hi]
                vertical = k.fpr[lo] == f == k.fpr[hi] and k.tpr[lo] <= t <= k.tpr[hi]
                assert horizontal or vertical
            assert auc(k) == pytest.approx(auc(curve), rel=0, abs=1e-15)

    def test_tied_scores_keep_both_ends_of_the_diagonal_step(self):
        # 1.0 is both an H0 and an H1 score: (0, 0.5) -> (0.5, 1) is one step
        curve = roc([0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0])
        k = roc_corners(curve)
        points = list(zip(k.fpr.tolist(), k.tpr.tolist()))
        assert points == [(0, 0), (0, 0.5), (0.5, 1), (1, 1)]
        assert k.thresholds.tolist() == [np.inf, 2.0, 1.0, -np.inf]

    def test_constant_scores(self):
        # one diagonal step from (0, 0) to (1, 1), then the -inf sentinel
        curve = roc([3.0] * 5, [3.0] * 4)
        k = roc_corners(curve)
        assert list(zip(k.fpr.tolist(), k.tpr.tolist())) == [(0, 0), (1, 1), (1, 1)]
        assert k.thresholds.tolist() == [np.inf, 3.0, -np.inf]
        assert auc(k) == auc(curve) == 0.5


class TestSummary:
    def test_rows_have_levels(self, tmp_path):
        curve = roc([0.0, 1.0], [2.0, 3.0], method="x")
        write_summary_csv([curve], tmp_path / "summary.csv")
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        assert header == "method,auc,power_at_1e-1,power_at_1e-2,power_at_1e-4"
        method, *values = row.split(",")
        assert method == "x"
        assert float(values[0]) == pytest.approx(1.0)
        assert len(values) == 4


def per_row_reference(header, rows) -> bytes:
    """A table as per-row f-strings format it: str cells as they are, floats
    at .17g, "\n" after every line."""
    cell = lambda v: v if isinstance(v, str) else f"{v:.17g}"
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows]).encode()


EDGES = [-0.0, 5e-324, 1 / 3]  # a signed zero, the least subnormal, a 17-digit value


class TestWriteTable:
    def test_cells_of_every_part(self, tmp_path):
        floats = [*EDGES, np.inf, -np.inf]
        names = ["a", "b%s", "c%d", "d%%", "e"]
        parts = [(f"{FLOAT_FMT},%s", [floats, names]), (f"%s,{FLOAT_FMT}", [["z"], [1 / 3]])]
        write_table(tmp_path / "t.csv", ("x", "name"), parts)
        rows = [*zip(floats, names), ("z", 1 / 3)]
        assert (tmp_path / "t.csv").read_bytes() == per_row_reference(("x", "name"), rows)

    def test_csv_layout(self, tmp_path):
        curve = ridge_shrinker(np.array([1.0, 2.0]), 1.0)
        columns = [1.0, 2.0], curve.values.tolist(), ["lappw"] * 2
        part = f"{FLOAT_FMT},{FLOAT_FMT},%s", columns
        write_table(tmp_path / "c.csv", ("lambda", "value", "label"), [part])
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "lambda,value,label"
        assert lines[1].endswith(",lappw")

    def test_scores_csv(self, tmp_path):
        labels = np.array([False, True, True])
        fits = [
            ScoreBlock(0, "b", labels, np.array(EDGES), np.array([np.inf, 1.0, -1.0])),
            Failure(0, "c", "RegimeError", "forced"),
            ScoreBlock(3, "a%s", labels[:1], np.array([2.5]), np.array([-0.0])),
        ]
        write_score_blocks(fits, tmp_path / "scores.csv")
        rows = [
            (str(b.trial), b.method, str(int(h1)), z, raw)
            for b in fits if isinstance(b, ScoreBlock)
            for h1, z, raw in zip(b.label_h1, b.score_z.tolist(), b.score_raw.tolist())
        ]
        expected = per_row_reference(ScoreBlock._fields, rows)
        assert (tmp_path / "scores.csv").read_bytes() == expected

    def test_roc_csv(self, tmp_path):
        curves = [
            RocCurve(
                fpr=np.array([0.0, 5e-324, 1 / 3, 1.0]),
                tpr=np.array([-0.0, 1 / 3, 0.5, 1.0]),
                thresholds=np.array([np.inf, 1 / 3, -0.0, -np.inf]),
                method="a",
            ),
            roc(EDGES, [1 / 3, 2.0], method="b"),
        ]
        write_roc_csv(curves, tmp_path / "roc.csv")
        rows = [
            (c.method, *point)
            for c in curves
            for point in zip(c.fpr.tolist(), c.tpr.tolist(), c.thresholds.tolist())
        ]
        expected = per_row_reference(("method", "fpr", "tpr", "threshold"), rows)
        assert (tmp_path / "roc.csv").read_bytes() == expected

    def test_summary_csv(self, tmp_path):
        curves = [roc(EDGES, [1 / 3, 1.0], method="a"), roc([1 / 3, 0.0], EDGES, method="b")]
        write_summary_csv(curves, tmp_path / "summary.csv")
        rows = [
            (c.method, auc(c), *(power_at_fpr(c, lvl) for lvl in POWER_LEVELS))
            for c in curves
        ]
        header = ("method", "auc", "power_at_1e-1", "power_at_1e-2", "power_at_1e-4")
        expected = per_row_reference(header, rows)
        assert (tmp_path / "summary.csv").read_bytes() == expected

    def test_curve_csv(self, tmp_path):
        X = substream(1, "curve-csv").standard_normal((20, 60))
        np.savetxt(tmp_path / "data.csv", X, delimiter=",", fmt="%.17g")
        args = ["--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "o")]
        assert main(["shrink", "--shrinker", "lappw", *args]) == 0
        with single_threaded_blas():
            fit = fit_reference(X)
            curve = spectral_curve("lappw", fit, PriorSpec())
        rows = zip(fit.curve.lam.tolist(), curve.values.tolist(), ["lappw"] * X.shape[0])
        expected = per_row_reference(("lambda", "value", "label"), rows)
        assert (tmp_path / "o" / "curve.csv").read_bytes() == expected

    def test_oracle_csv(self, tmp_path):
        assert main(["oracle", "--phi", "0.2", "--out", str(tmp_path)]) == 0
        oracle = identity_mp_oracle(0.2)
        a, b = oracle.support
        xs = np.linspace(a + 1e-3 * (b - a), b - 1e-3 * (b - a), ORACLE_POINTS)
        fstar = fstar_curve(oracle, np.ones_like, xs)
        cols = (xs, oracle.w(xs), oracle.Hw(xs), oracle.delta(xs), fstar)
        rows = zip(*(c.tolist() for c in cols))
        expected = per_row_reference(("x", "w", "hw", "delta", "fstar"), rows)
        assert (tmp_path / "oracle.csv").read_bytes() == expected

    def test_percent_in_a_foreign_method_name(self, tmp_path):
        name = "m%s%d%%.17g"
        scores = tmp_path / "scores.csv"
        rows = [(0, 0.1), (0, -0.5), (1, 2.0), (1, 0.3)]
        lines = ["method,label_h1,score_z", *(f"{name},{h1},{z}" for h1, z in rows)]
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")]) == 0
        roc_rows = (tmp_path / "o" / "roc.csv").read_text().splitlines()[1:]
        assert roc_rows and {r.split(",")[0] for r in roc_rows} == {name}
        (summary_row,) = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1:]
        assert summary_row.split(",")[0] == name
