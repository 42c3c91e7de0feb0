"""ROC assembly, summary metrics, and deterministic CSV/SVG emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .scoring import Failure, ScoreBlock

POWER_LEVELS = (1e-1, 1e-2, 1e-4)
FLOAT_FMT = "%.17g"  # a table's float cell: 17 digits give back the same double


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over thresholds, highest threshold first.

    A score equal to the threshold counts as a detection, so fpr/tpr are
    exceedance fractions at score >= threshold.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    method: str = ""


def roc(h0_scores, h1_scores, method: str = "") -> RocCurve:
    """Empirical ROC from null and alternative score samples.

    Thresholds are the unique pooled scores plus +/- infinity sentinels, so
    the curve always includes (0, 0) and (1, 1).
    """
    h0 = np.sort(np.asarray(h0_scores, dtype=float))
    h1 = np.sort(np.asarray(h1_scores, dtype=float))
    if h0.size == 0 or h1.size == 0:
        raise DataError(f"roc of method {method!r} needs scores of both hypotheses")
    pooled = np.unique(np.concatenate([h0, h1]))
    thresholds = np.concatenate([[np.inf], pooled[::-1], [-np.inf]])
    # fraction of scores >= t, via count of scores < t
    fpr = 1.0 - np.searchsorted(h0, thresholds, side="left") / h0.size
    tpr = 1.0 - np.searchsorted(h1, thresholds, side="left") / h1.size
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, method=method)


def pooled_rocs(fits) -> list:
    """One ROC per method that scored, sorted by method name, of the score_z
    of its ScoreBlocks among fits pooled (label_h1 False rows as H0, True as
    H1; a Failure has no rows).  The one method order of every ROC file."""
    pooled = {}
    for b in (f for f in fits if not isinstance(f, Failure)):
        h0, h1 = pooled.setdefault(b.method, ([], []))
        h0.append(b.score_z[~b.label_h1])
        h1.append(b.score_z[b.label_h1])
    return [
        roc(np.concatenate(h0), np.concatenate(h1), method=m)
        for m, (h0, h1) in sorted(pooled.items())
    ]


def auc(curve: RocCurve) -> float:
    """Trapezoid area under the ROC; equals the pairwise exceedance
    statistic P(s1 > s0) + 0.5 P(s1 = s0) of the generating scores."""
    f, t = curve.fpr, curve.tpr
    return float(np.sum(0.5 * (f[1:] - f[:-1]) * (t[1:] + t[:-1])))


def power_at_fpr(curve: RocCurve, alpha: float) -> float:
    """Detection rate at false-alarm rate alpha by linear interpolation."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    f, t = curve.fpr, curve.tpr
    # keep the upper envelope where the curve jumps vertically
    uniq, idx = np.unique(f, return_index=True)
    best = np.maximum.reduceat(t, idx)
    return float(np.interp(alpha, uniq, best))


def roc_corners(curve: RocCurve) -> RocCurve:
    """The staircase corners of curve, in order.

    Keeps the first and last points and every point that is not strictly
    inside a horizontal run (equal tpr on both neighbours) or a vertical run
    (equal fpr on both neighbours).  A dropped point lies on the segment
    between its kept neighbours, so the corners draw the same polyline and
    give the same trapezoid area up to rounding.
    """
    f, t = curve.fpr, curve.tpr
    keep = np.ones(f.size, dtype=bool)
    keep[1:-1] = ~(
        ((t[:-2] == t[1:-1]) & (t[1:-1] == t[2:]))
        | ((f[:-2] == f[1:-1]) & (f[1:-1] == f[2:]))
    )
    return RocCurve(f[keep], t[keep], curve.thresholds[keep], curve.method)


def write_table(path, header, parts) -> None:
    """A UTF-8 table with "\n" line ends: the header fields joined by commas,
    then per (fmt, columns) of parts, one line fmt % row per row of the
    equal-length lists columns, in one % per part.  A string that data
    supplies, such as a method name, is a %s cell, never part of fmt."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for fmt, columns in parts:
            width, rows = len(columns), len(columns[0])
            cells = [None] * (width * rows)
            for i, column in enumerate(columns):
                cells[i::width] = column
            fh.write(((fmt + "\n") * rows) % tuple(cells))


def write_score_blocks(fits, path) -> None:
    """scores.csv: one part per ScoreBlock of fits; a Failure has no rows
    (errors.csv holds it)."""

    def part(block):
        prefix = [f"{block.trial},{block.method},{label}," for label in (0, 1)]
        labels = [prefix[b] for b in block.label_h1.tolist()]
        scores = block.score_z.tolist(), block.score_raw.tolist()
        return f"%s{FLOAT_FMT},{FLOAT_FMT}", (labels, *scores)

    write_table(path, ScoreBlock._fields, (part(f) for f in fits if isinstance(f, ScoreBlock)))


def write_errors_csv(failures, path) -> None:
    """errors.csv: a header line, then one csv-quoted line per Failure."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([Failure._fields, *failures])


def write_roc_csv(curves, path) -> None:
    """One row per point of each curve (render passes the roc_corners)."""
    fmt = "%s" + f",{FLOAT_FMT}" * 3
    parts = (
        (fmt, [[c.method] * c.fpr.size] + [a.tolist() for a in (c.fpr, c.tpr, c.thresholds)])
        for c in curves
    )
    write_table(path, ("method", "fpr", "tpr", "threshold"), parts)


def write_summary_csv(curves, path) -> None:
    """One line per curve: method, auc, and power at each of POWER_LEVELS."""
    columns = [[c.method for c in curves], [auc(c) for c in curves]]
    columns += [[power_at_fpr(c, lvl) for c in curves] for lvl in POWER_LEVELS]
    header = ("method", "auc", "power_at_1e-1", "power_at_1e-2", "power_at_1e-4")
    write_table(path, header, [("%s" + f",{FLOAT_FMT}" * 4, columns)])


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H, _M = 640, 480, 60.0
LOG_FPR_FLOOR = 1e-4  # left edge of the log false-alarm axis


def _svg_coords(f, t, log_fpr):
    if log_fpr:
        lo = np.log10(LOG_FPR_FLOOR)
        x = (np.log10(np.clip(f, LOG_FPR_FLOOR, 1.0)) - lo) / (0.0 - lo)
    else:
        x = f
    px = _M + x * (_W - 2 * _M)
    py = _H - _M - t * (_H - 2 * _M)
    return px, py


def render(curves, out_dir, log_fpr: bool = False):
    """Write roc.csv plus a static SVG plot into out_dir.

    Both files hold only the staircase corners of each curve (see
    roc_corners).  The thresholds of the dropped points are in scores.csv,
    and auc, power_at_fpr and summary.csv use the full curve.  Output is
    byte-deterministic: no timestamps or environment data are embedded.
    Returns the two paths written.
    """
    if not curves:
        raise DataError("render needs at least one curve")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "roc.csv")
    svg_path = os.path.join(out_dir, "roc.svg")
    corners = [roc_corners(c) for c in curves]
    write_roc_csv(corners, csv_path)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_M}" y="{_M}" width="{_W - 2 * _M}" height="{_H - 2 * _M}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 18}" text-anchor="middle" '
        'font-size="14">false-alarm rate'
        + (" (log)" if log_fpr else "")
        + "</text>",
        f'<text x="18" y="{_H / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_H / 2})">detection rate</text>',
    ]
    for i, c in enumerate(corners):
        color = _PALETTE[i % len(_PALETTE)]
        # a foreign name may hold markup; xml.sax.saxutils.escape pulls in urllib
        name = c.method.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        px, py = _svg_coords(c.fpr, c.tpr, log_fpr)
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _M - 150}" y="{_M + 16 + 16 * i}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return csv_path, svg_path
