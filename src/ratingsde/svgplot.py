"""Self-contained SVG diagnostics (no plotting runtime required).

Every drawing routine returns a complete ``<svg>`` document as a string;
identical inputs always yield identical bytes.

Every coordinate is written as ``format(float(v), '.2f')`` would write it:
CPython's correctly rounded conversion of the binary value (David Gay's
``dtoa``), so ``-0.0`` and ``-0.004`` print ``-0.00`` and an exact tie such
as 0.125 rounds half to even. ``_fixed2`` formats whole arrays at once: the
cents come from ``rint(100 * |v|)``, whose rounding error (at most
5.8e-11 for |v| < 1e4) can only matter within 1e-6 of a half cent, so those
near-ties take Python's ``format``, as do the rows holding a value of 1e4
or more, a nan or an infinity. The digits are looked up in small tables
of 4-byte words and the NUL bytes that pad them are dropped. Text nodes
are XML-escaped, so any rating label keeps the document well-formed.
"""

from __future__ import annotations

from functools import cache
from itertools import islice

import numpy as np

_PANEL_W = 220
_PANEL_H = 160
_MARGIN = 36
_FAN_PATHS = 50      # trajectories drawn per trajectory_fans panel
_HIST_BINS = 30      # bins per entry_histograms panel
_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def _words(table) -> np.ndarray:
    """One uint32 per row of a (rows, 4) byte table; the bytes keep their
    order in memory, whatever the machine's byte order."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32)[:, 0]


@cache
def _tables():
    """The integer, cents and minus-sign words, built on the first call so
    that importing the module does no numpy work."""
    n = np.arange(10000, dtype=np.int16)[:, None]
    digits = n // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
    # 0..9999, right-aligned and NUL-padded: 7 -> "\0\0\07"
    integers = _words(np.where(n >= np.array([1000, 100, 10, 0], np.int16), digits, 0))
    # ".dd" and a separator byte, for each separator _fixed2 takes: 5 -> ".05,"
    cents = {sep: _words(np.column_stack([np.full(100, ord(".")), digits[:100, 2:],
                                          np.full(100, ord(sep))]))
             for sep in ", "}
    return integers, cents, _words([[0, 0, 0, ord("-")]])[0]


def _fixed2(cols, seps: str) -> list[str]:
    """Rows of numbers, each exactly ``format(float(v), '.2f')``.

    ``cols`` are arrays that broadcast to one (rows, points) shape, and
    ``seps`` holds one separator per array, each ``,`` or a space. Row r
    reads ``cols[0][r, 0] seps[0] cols[1][r, 0] seps[1] cols[0][r, 1] ...``
    and ends with the last number, without its separator.
    """
    integers, cents_words, minus = _tables()
    shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
    rows, points = shape
    buf = np.empty((rows, points, len(cols), 3), dtype=np.uint32)
    wide = np.zeros(shape, dtype=bool)
    for j, (col, sep) in enumerate(zip(cols, seps, strict=True)):
        v = np.asarray(col, dtype=float)
        small = np.abs(v) < 1e4                  # False for nan and +-inf
        scaled = np.where(small, np.abs(v), 0.0) * 100.0
        cents = np.rint(scaled)
        for i in np.flatnonzero(np.abs(scaled - cents) > 0.5 - 1e-6):
            cents.flat[i] = abs(int(format(float(v.flat[i]), ".2f").replace(".", "")))
        big = ~small | (cents >= 1e6)            # more than 4 integer digits
        wide |= big
        cents[big] = 0
        units = np.floor(cents / 100)            # exact: cents is an integer below 1e6
        buf[:, :, j, 0] = np.where(np.signbit(v), minus, np.uint32(0))
        buf[:, :, j, 1] = integers[units.astype(np.intp)]
        buf[:, :, j, 2] = cents_words[sep][(cents - 100 * units).astype(np.intp)]
    raw = buf.view(np.uint8).reshape(rows, points * len(cols) * 12)
    raw[:, -1] = ord("\n")                      # the row's last separator
    out = raw[raw != 0].tobytes().decode("ascii").split("\n")[:-1]
    if wide.any():
        full = [np.broadcast_to(c, shape) for c in cols]
        for r in np.flatnonzero(wide.any(axis=1)).tolist():
            out[r] = "".join(f"{format(float(c[r, p]), '.2f')}{sep}"
                             for p in range(points) for c, sep in zip(full, seps))[:-1]
    return out


def _escape(text: str) -> str:
    """XML character data (html.escape without quotes, and without the
    import of html's entity table)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
                f'<text class="t" x="{x0 + 4}" y="{y0 - 4}">{_escape(title)}</text>')
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
        """One polyline per row of ys over the shared x, colored by colors."""
        points = _fixed2([self.px(x), self.py(ys)], ", ")
        for pts, color in zip(points, colors, strict=True):
            self.parts.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>')


def _bars(x, y, w, h, colors) -> list[str]:
    """One <rect> per element of the equal-length pixel arrays and colors."""
    rects = _fixed2([np.column_stack([x, y, w, h])], " ")
    return [f'<rect x="{bx}" y="{by}" width="{bw}" height="{bh}" '
            f'fill="{color}" stroke="#333" stroke-width="0.5"/>'
            for (bx, by, bw, bh), color in zip(map(str.split, rects), colors, strict=True)]


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
        counts, edges = np.histogram(rt[:, i, j], bins=_HIST_BINS)
        panel = _Panel(x0, y0, (float(edges[0]), float(edges[-1])),
                       (0.0, float(max(counts.max(), 1))),
                       title=f"{labels[i]}-{labels[j]}")
        filled = np.flatnonzero(counts)
        xl = panel.px(edges[filled])
        xr = panel.px(edges[filled + 1])
        yt = panel.py(counts[filled])
        body += panel.parts + _bars(xl, yt, np.maximum(xr - xl, 0.5), panel.py(0) - yt,
                                    ["#1f77b4"] * len(filled))
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
        f'fill="{_COLORS[j % len(_COLORS)]}">{_escape(labels[j])}</text>'
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
    # column j stacks its positive entries from row 0 up, column after column
    shown = matrix > 0
    tops = np.cumsum(np.where(shown, matrix, 0.0), axis=0)
    bases = np.vstack([np.zeros(k), tops[:-1]])
    cols, rows = np.nonzero(shown.T)
    xl = panel.px(np.arange(k) + 0.2)
    yt = panel.py(tops[rows, cols])
    rects = iter(_bars(xl[cols], yt, np.full(len(cols), bar_w),
                       panel.py(bases[rows, cols]) - yt,
                       [_COLORS[i % len(_COLORS)] for i in rows.tolist()]))
    label_x = _fixed2([xl[:, None]], " ")
    for j, n in enumerate(shown.sum(axis=0).tolist()):
        panel.parts += islice(rects, n)
        panel.parts.append(
            f'<text x="{label_x[j]}" y="{y0 + _PANEL_H + 12}">{_escape(labels[j])}</text>')
    legend = [
        f'<text x="{x0 + _PANEL_W + 8}" y="{y0 + 14 + 14 * i}" '
        f'fill="{_COLORS[i % len(_COLORS)]}">from {_escape(labels[i])}</text>'
        for i in range(k)
    ]
    return _svg(_PANEL_W + 2 * _MARGIN + 80, _PANEL_H + 2 * _MARGIN,
                panel.parts + legend)
