import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hdshrink.errors import DataError, DomainError
from hdshrink.evaluate import (
    auc,
    pooled_rocs,
    power_at_fpr,
    render,
    roc,
    roc_corners,
    write_summary_csv,
)
from hdshrink.scoring import Failure, ScoreBlock


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
            ScoreBlock(0, "a", labels, np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4)),
            Failure(0, "b", "RegimeError", "forced"),
            Failure(1, "a", "RegimeError", "forced"),
            ScoreBlock(1, "a", labels, np.array([0.5, 1.5, 0.0, 4.0]), np.zeros(4)),
            Failure(1, "b", "RegimeError", "forced"),
        ]
        (curve,) = pooled_rocs(fits, ("a", "b"))
        expected = roc([0.0, 1.0, 0.5, 1.5], [2.0, 3.0, 0.0, 4.0], method="a")
        assert curve.method == "a"
        for field in ("fpr", "tpr", "thresholds"):
            assert np.array_equal(getattr(curve, field), getattr(expected, field))


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
