"""Self-contained SVG diagnostics (no plotting runtime required).

Every drawing routine returns a complete ``<svg>`` document as a string;
numbers are formatted with fixed precision so identical inputs always
yield identical bytes.
"""

from __future__ import annotations

import numpy as np

_PANEL_W = 220
_PANEL_H = 160
_MARGIN = 36
_FAN_PATHS = 50      # trajectories drawn per trajectory_fans panel
_HIST_BINS = 30      # bins per entry_histograms panel
_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def _f(x: float) -> str:
    return format(float(x), ".2f")


def _points_template(x) -> str:
    """'x,%.2f' pairs joined by spaces, x formatted like _f: fill with y."""
    return " ".join([f"{v:.2f},%.2f" for v in np.asarray(x, dtype=float).tolist()])


def _cycle_colors(n: int) -> list[str]:
    return [_COLORS[i % len(_COLORS)] for i in range(n)]


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    style = ('<style>text{font-family:monospace;font-size:10px;}'
             '.t{font-size:11px;font-weight:bold;}</style>')
    return "\n".join([head, style, *body, "</svg>"])


class _Panel:
    """One axes rectangle with linear data-to-pixel mapping."""

    def __init__(self, x0, y0, xlim, ylim, title=""):
        self.x0, self.y0 = x0, y0
        self.xmin, self.xmax = xlim
        self.ymin, self.ymax = ylim
        if self.xmax <= self.xmin:
            self.xmax = self.xmin + 1.0
        if self.ymax <= self.ymin:
            self.ymax = self.ymin + 1.0
        self.parts = [
            f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="white" stroke="#444" stroke-width="1"/>'
        ]
        if title:
            self.parts.append(
                f'<text class="t" x="{x0 + 4}" y="{y0 - 4}">{title}</text>')
        self.parts.append(
            f'<text x="{x0}" y="{y0 + _PANEL_H + 12}">{format(self.xmin, ".3g")}</text>')
        self.parts.append(
            f'<text x="{x0 + _PANEL_W - 30}" y="{y0 + _PANEL_H + 12}">'
            f'{format(self.xmax, ".3g")}</text>')
        self.parts.append(
            f'<text x="{x0 + 2}" y="{y0 + 10}">{format(self.ymax, ".3g")}</text>')
        self.parts.append(
            f'<text x="{x0 + 2}" y="{y0 + _PANEL_H - 2}">{format(self.ymin, ".3g")}</text>')

    def px(self, x):
        return self.x0 + (np.asarray(x) - self.xmin) / (self.xmax - self.xmin) * _PANEL_W

    def py(self, y):
        return self.y0 + _PANEL_H - (np.asarray(y) - self.ymin) / (self.ymax - self.ymin) * _PANEL_H

    def polylines(self, x, ys, colors, width=1.0, opacity=1.0):
        """One polyline per row of ys over the shared x, colored by colors.

        The x coordinates are formatted once, so a row costs one %-format.
        """
        template = _points_template(self.px(x))
        for y, color in zip(self.py(ys).tolist(), colors, strict=True):
            self.parts.append(
                f'<polyline points="{template % tuple(y)}" fill="none" '
                f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>')

    def bar(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{color}" stroke="#333" stroke-width="0.5"/>')


def _panel_grid(k: int):
    """Panel origins for a K x K lattice plus total canvas size."""
    origins = []
    for i in range(k):
        for j in range(k):
            origins.append((_MARGIN + j * (_PANEL_W + _MARGIN),
                            _MARGIN + i * (_PANEL_H + _MARGIN)))
    width = _MARGIN + k * (_PANEL_W + _MARGIN)
    height = _MARGIN + k * (_PANEL_H + _MARGIN)
    return origins, width, height


def trajectory_fans(times: np.ndarray, rpaths: np.ndarray, labels: list[str]) -> str:
    """K x K lattice of per-entry trajectory fans of the first _FAN_PATHS
    trajectories; rpaths (M, N+1, K, K)."""
    m, _, k, _ = rpaths.shape
    shown = min(m, _FAN_PATHS)
    origins, width, height = _panel_grid(k)
    body = []
    for idx, (x0, y0) in enumerate(origins):
        i, j = divmod(idx, k)
        vals = rpaths[:shown, :, i, j]
        panel = _Panel(x0, y0, (times[0], times[-1]),
                       (float(vals.min()), float(vals.max())),
                       title=f"{labels[i]}-{labels[j]}")
        panel.polylines(times, vals, _cycle_colors(shown), width=0.7, opacity=0.6)
        body.extend(panel.parts)
    return _svg(width, height, body)


def entry_histograms(rt: np.ndarray, labels: list[str]) -> str:
    """K x K lattice of terminal-entry histograms; rt (M, K, K)."""
    _, k, _ = rt.shape
    origins, width, height = _panel_grid(k)
    body = []
    for idx, (x0, y0) in enumerate(origins):
        i, j = divmod(idx, k)
        vals = rt[:, i, j]
        counts, edges = np.histogram(vals, bins=_HIST_BINS)
        panel = _Panel(x0, y0, (float(edges[0]), float(edges[-1])),
                       (0.0, float(max(counts.max(), 1))),
                       title=f"{labels[i]}-{labels[j]}")
        for b in range(_HIST_BINS):
            if counts[b] == 0:
                continue
            xl = panel.px(edges[b])
            xr = panel.px(edges[b + 1])
            yt = panel.py(counts[b])
            panel.bar(xl, yt, max(xr - xl, 0.5), panel.py(0) - yt, "#1f77b4")
        body.extend(panel.parts)
    return _svg(width, height, body)


def occupancy_plot(times: np.ndarray, freq: np.ndarray, labels: list[str],
                   i0_label: str) -> str:
    """Occupancy frequencies over time for one initial rating; freq (N+1, K)."""
    k = freq.shape[1]
    x0, y0 = _MARGIN, _MARGIN
    panel = _Panel(x0, y0, (times[0], times[-1]), (0.0, 1.0),
                   title=f"occupancy from {i0_label}")
    panel.polylines(times, freq.T, _cycle_colors(k), width=1.3)
    legend = [
        f'<text x="{x0 + _PANEL_W + 8}" y="{y0 + 14 + 14 * j}" '
        f'fill="{_COLORS[j % len(_COLORS)]}">{labels[j]}</text>'
        for j in range(k)
    ]
    return _svg(_PANEL_W + 2 * _MARGIN + 60, _PANEL_H + 2 * _MARGIN,
                panel.parts + legend)


def predefault_bars(matrix: np.ndarray, labels: list[str]) -> str:
    """Stacked bars: x = pre-default rating, stack = initial-rating contribution."""
    k = matrix.shape[0]
    x0, y0 = _MARGIN, _MARGIN
    col_tot = matrix.sum(axis=0)
    top = float(max(col_tot.max(), 1e-12))
    panel = _Panel(x0, y0, (0.0, float(k)), (0.0, top), title="pre-default rating")
    bar_w = _PANEL_W / k * 0.6
    for j in range(k):
        xl = panel.px(j + 0.2)
        base = 0.0
        for i in range(k):
            h = matrix[i, j]
            if h <= 0:
                continue
            yt = panel.py(base + h)
            panel.bar(xl, yt, bar_w, panel.py(base) - yt,
                      _COLORS[i % len(_COLORS)])
            base += h
        panel.parts.append(
            f'<text x="{_f(xl)}" y="{y0 + _PANEL_H + 12}">{labels[j]}</text>')
    legend = [
        f'<text x="{x0 + _PANEL_W + 8}" y="{y0 + 14 + 14 * i}" '
        f'fill="{_COLORS[i % len(_COLORS)]}">from {labels[i]}</text>'
        for i in range(k)
    ]
    return _svg(_PANEL_W + 2 * _MARGIN + 80, _PANEL_H + 2 * _MARGIN,
                panel.parts + legend)
