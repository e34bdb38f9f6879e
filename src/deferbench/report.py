"""SVG rendering of deferral sweep results, one file per condition.

Each file holds two panels: remainder balanced accuracy against deferral
rate (y fixed to [0.4, 1.0]) and the fraction of positives deferred against
deferral rate (y fixed to [0, 1]). One polyline per (method, seed) series.
Panels and series carry data-* attributes so tests can parse the geometry
back out with an XML parser.

A report is drawn from ``Figures``, which keeps only the three plotted
columns of each series as float64 arrays. ``deferbench run`` adds each
task's points to it as the task finishes, and ``deferbench report`` adds the
points of a results table, so both draw the same bytes through one path.
"""

from __future__ import annotations

import math
from operator import attrgetter
from pathlib import Path

import numpy as np

from deferbench.atomic import atomic_open
from deferbench.errors import FormatError
from deferbench.sweep import Condition

METHOD_COLORS = {
    "softmax": "#1f77b4",
    "ensemble": "#ff7f0e",
    "swag": "#2ca02c",
    "mc_dropout": "#d62728",
    "bnn": "#9467bd",
    "one_stage": "#8c564b",
    "two_stage": "#e377c2",
}
_FALLBACK_COLOR = "#7f7f7f"

PANEL_W, PANEL_H = 640, 300
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 45
LEGEND_H = 30

BACC_Y_RANGE = (0.4, 1.0)
FRAC_Y_RANGE = (0.0, 1.0)
X_RANGE = (0.0, 1.0)


# xml.sax.saxutils.escape would do, but importing it loads urllib, http and
# ssl: about 40 ms and 5 MB more for every run that imports this module
_XML_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&apos;"}
)


def _xml(text) -> str:
    """Text made safe for XML character data and quoted attributes."""
    return str(text).translate(_XML_ESCAPES)


def _ticks(lo: float, hi: float, step: float) -> list:
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


class _Panel:
    def __init__(self, name, title, y_range, y_step, offset_y):
        self.name = name
        self.title = title
        self.y_range = y_range
        self.y_step = y_step
        self.offset_y = offset_y

    def x_px(self, x: float) -> float:
        x = min(max(x, X_RANGE[0]), X_RANGE[1])
        return MARGIN_L + (x - X_RANGE[0]) / (X_RANGE[1] - X_RANGE[0]) * PANEL_W

    def y_px(self, y: float) -> float:
        lo, hi = self.y_range
        y = min(max(y, lo), hi)
        return self.offset_y + PANEL_H - (y - lo) / (hi - lo) * PANEL_H

    def frame(self) -> list:
        lo, hi = self.y_range
        parts = [
            f'<g data-panel="{self.name}" data-x-min="{X_RANGE[0]}" data-x-max="{X_RANGE[1]}"'
            f' data-y-min="{lo}" data-y-max="{hi}">'
        ]
        x0, x1 = self.x_px(X_RANGE[0]), self.x_px(X_RANGE[1])
        y0, y1 = self.y_px(lo), self.y_px(hi)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" height="{y0 - y1:.2f}"'
            ' fill="none" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0:.2f}" y="{y1 - 8:.2f}" font-size="13" fill="#333">{self.title}</text>'
        )
        for tx in _ticks(*X_RANGE, 0.2):
            px = self.x_px(tx)
            parts.append(
                f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 4:.2f}"'
                ' stroke="#333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px:.2f}" y="{y0 + 17:.2f}" font-size="11" fill="#333"'
                f' text-anchor="middle">{tx:.1f}</text>'
            )
        for ty in _ticks(lo, hi, self.y_step):
            py = self.y_px(ty)
            parts.append(
                f'<line x1="{x0 - 4:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}"'
                ' stroke="#333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-size="11" fill="#333"'
                f' text-anchor="end">{ty:.1f}</text>'
            )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{y0 + 34:.2f}" font-size="12" fill="#333"'
            ' text-anchor="middle">deferral rate</text>'
        )
        return parts

    def series(self, method, seed, xs, ys) -> list:
        """One or more polylines; gaps (NaN y) split the series."""
        color = METHOD_COLORS.get(method, _FALLBACK_COLOR)
        parts = []
        segment = []
        segments = []
        for x, y in zip(xs.tolist(), ys.tolist()):
            if math.isnan(y):
                if segment:
                    segments.append(segment)
                segment = []
            else:
                segment.append((x, y))
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                px, py = self.x_px(seg[0][0]), self.y_px(seg[0][1])
                parts.append(
                    f'<circle data-method="{_xml(method)}" data-seed="{seed}" cx="{px:.2f}"'
                    f' cy="{py:.2f}" r="2" fill="{color}"/>'
                )
                continue
            coords = " ".join(f"{self.x_px(x):.2f},{self.y_px(y):.2f}" for x, y in seg)
            parts.append(
                f'<polyline data-method="{_xml(method)}" data-seed="{seed}" fill="none"'
                f' stroke="{color}" stroke-width="1.2" opacity="0.85" points="{coords}"/>'
            )
        return parts


def _legend(methods) -> list:
    parts = []
    x = MARGIN_L
    for method in methods:
        color = METHOD_COLORS.get(method, _FALLBACK_COLOR)
        parts.append(
            f'<rect x="{x}" y="12" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 16}" y="22" font-size="12" fill="#333">{_xml(method)}</text>'
        )
        x += 16 + 8 * len(method) + 24
    return parts


_PLOTTED = attrgetter("deferral_rate", "bacc", "frac_positives_deferred")


class Figures:
    """The plotted columns of a results table, grouped as the report draws them.

    ``groups`` maps each (condition, level) to its series, both in the order
    the points first name them. A series maps (method, seed) to a (3, n)
    float64 array: the deferral rate, bAcc and fraction of positives
    deferred of its n plottable points, sorted by rate (a stable sort, so
    tied rates keep their table order), NaN where a value is missing. A
    point with no deferral rate, or of a failed method, is not plotted, but
    its condition still gets a figure. Points may be added in any number of
    batches, for example one task's rows at a time; the arrays are those of
    the whole table added at once, and nothing else of a point is kept.
    """

    def __init__(self, points=()):
        self.groups: dict = {}
        self.add(points)

    def add(self, points) -> None:
        batch: dict = {}  # (condition, level) -> (method, seed) -> its plottable points
        for p in points:
            series = batch.setdefault((p.condition, p.level), {})
            if p.deferral_rate is not None and not p.status.startswith("failed"):
                series.setdefault((p.method, p.seed), []).append(p)
        for key, series in batch.items():
            group = self.groups.setdefault(key, {})
            for name, pts in series.items():
                columns = np.array(list(map(_PLOTTED, pts)), dtype=np.float64).T  # None is NaN
                if name in group:
                    columns = np.concatenate((group[name], columns), axis=1)
                group[name] = columns[:, np.argsort(columns[0], kind="stable")]


def render_condition_svg(series, condition: str, level: int) -> str:
    """SVG text for every series of one condition (a ``Figures`` group);
    raises on an empty group."""
    if not series:
        raise FormatError(f"no plottable rows for condition {condition!r} level {level}")
    methods = dict.fromkeys(method for method, _ in series)

    top = _Panel(
        "bacc", "balanced accuracy on non-deferred samples", BACC_Y_RANGE, 0.1, MARGIN_T + LEGEND_H
    )
    bottom_offset = MARGIN_T + LEGEND_H + PANEL_H + MARGIN_B + MARGIN_T
    bottom = _Panel(
        "frac_pos", "fraction of positives deferred", FRAC_Y_RANGE, 0.2, bottom_offset
    )
    width = MARGIN_L + PANEL_W + MARGIN_R
    height = bottom_offset + PANEL_H + MARGIN_B

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' data-condition="{_xml(condition)}" data-level="{level}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    parts.extend(_legend(methods))
    parts.extend(top.frame())
    for (method, seed), (rates, baccs, _) in series.items():
        parts.extend(top.series(method, seed, rates, baccs))
    parts.append("</g>")
    parts.extend(bottom.frame())
    for (method, seed), (rates, _, fracs) in series.items():
        parts.extend(bottom.series(method, seed, rates, fracs))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(out_dir, figures: Figures) -> list:
    """One SVG per condition of figures under out_dir/report; returns the
    written paths.

    File names are Condition labels, so a condition that is not a valid
    Condition raises ConfigError before anything is written. Every other
    SVG already in out_dir/report is removed, so no figure outlives the
    table it was drawn from.
    """
    if not figures.groups:
        raise FormatError("no result rows to render")
    conditions = [Condition(*key) for key in figures.groups]  # raises before any file changes
    report_dir = Path(out_dir) / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    for stale in report_dir.glob("*.svg"):
        stale.unlink()

    written = []
    for cond, series in zip(conditions, figures.groups.values()):
        path = report_dir / f"{cond.label}.svg"
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(render_condition_svg(series, cond.kind, cond.level))
        written.append(path)
    return written
