"""CSV round-trips, config grammar, and the command-line interface."""

import csv
import itertools
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratingsde import (HISTORICAL, NumericalError, PortfolioSpec, SdeParams, TimeGrid,
                       ValidationError, empirical_transition, simulate_xva_paths)
from ratingsde import cli, sde
from ratingsde.config import KNOWN_KEYS, RunConfig, parse_config_text
from ratingsde.datasets import data_path
from ratingsde.matio import (format_rating_csv, read_params_csv, read_pd_csv,
                             read_rating_csv, write_params_csv, write_rating_csv)
from ratingsde import svgplot
from ratingsde.svgplot import (_Panel, _fixed2, entry_histograms, occupancy_plot,
                               predefault_bars, trajectory_fans)

from conftest import (ADJUSTED_PUBLISHED, PRINT_TOL, SRC_ROOT, recorded_ssa, run_cli,
                      simulate_with_increments)


class TestMatIo:
    def test_rating_csv_round_trip(self, tmp_path, reconstructed):
        p = tmp_path / "m.csv"
        write_rating_csv(p, ["A", "B", "C", "D"], reconstructed)
        labels, entries = read_rating_csv(p)
        assert labels == ["A", "B", "C", "D"]
        assert np.array_equal(entries, reconstructed)

    def test_withdrawal_column_ignored_on_read(self, tmp_path, cohort):
        header, *rows = format_rating_csv(["A", "B", "C", "D"],
                                          cohort.entries).splitlines()
        w = 1.0 - cohort.entries.sum(axis=1)
        p = tmp_path / "with_wt.csv"
        p.write_text("\n".join([header + ",w_t",
                                *(f"{row},{wi!r}" for row, wi in zip(rows, w))]) + "\n")
        labels, entries = read_rating_csv(p)
        assert labels == ["A", "B", "C", "D"]
        assert np.array_equal(entries, cohort.entries)

    def test_parse_error_reports_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("from,A,B\nA,0.5,oops\nB,0,1\n")
        with pytest.raises(ValidationError, match="line 2, column 3"):
            read_rating_csv(p)

    # a bad value on line 4, after a blank line 3
    @pytest.mark.parametrize("read, text, column", [
        (read_rating_csv, "from,A,B\nA,1,0\n\nB,0,nan\n", 3),
        (read_params_csv, "from-to,a,b,sigma\n1-2,1,1,1\n\n1-3,1,nan,1\n", 3),
        (read_pd_csv, "rating,pd\nA,0.1\n\nB,nan\n", 2),
    ])
    def test_blank_line_keeps_the_line_number(self, tmp_path, read, text, column):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=f"line 4, column {column}"):
            read(p)

    @pytest.mark.parametrize("read", [read_rating_csv, read_params_csv, read_pd_csv])
    def test_empty_file_is_named(self, tmp_path, read):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="t.csv: empty file"):
            read(p)

    def test_params_round_trip(self, tmp_path):
        p = tmp_path / "params.csv"
        labels, a, b, s = read_params_csv(data_path("calibrated_params_1y.csv"))
        write_params_csv(p, labels, a, b, s)
        labels2, a2, b2, s2 = read_params_csv(p)
        assert labels2 == labels
        assert np.array_equal(a2, a) and np.array_equal(s2, s)

    def test_pd_csv_read(self, tmp_path):
        p = tmp_path / "pd.csv"
        p.write_text("rating,pd\nA,0.1\nB,0.2\nC,0.3\nD,1\n")
        labels, pds = read_pd_csv(p)
        assert labels == ["A", "B", "C", "D"]
        assert np.array_equal(pds, [0.1, 0.2, 0.3, 1.0])


def _f(v) -> str:
    return format(float(v), ".2f")


def _formats_like_python(values):
    """_fixed2 of values, one number per row, against format per element."""
    values = np.asarray(values, dtype=float).ravel()
    assert _fixed2([values[:, None]], " ") == [_f(v) for v in values]


# Reference writers: each coordinate through its own format call, each
# histogram bin and stacked bar through its own rect, as the writers did
# before they formatted whole arrays; the panel frames are shared.
def _ref_polylines(panel, x, ys, colors, width=1.0, opacity=1.0):
    for y, color in zip(ys, colors):
        pts = " ".join(f"{_f(a)},{_f(b)}" for a, b in zip(panel.px(x), panel.py(y)))
        panel.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                           f'stroke-width="{width}" stroke-opacity="{opacity}"/>')


def _ref_rect(panel, x, y, w, h, color):
    panel.parts.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" '
                       f'height="{_f(h)}" fill="{color}" stroke="#333" stroke-width="0.5"/>')


def _ref_trajectory_fans(times, rpaths, labels):
    m, _, k, _ = rpaths.shape
    shown = min(m, svgplot._FAN_PATHS)
    origins, width, height = svgplot._panel_grid(k)
    body = []
    for idx, (x0, y0) in enumerate(origins):
        i, j = divmod(idx, k)
        vals = rpaths[:shown, :, i, j]
        panel = _Panel(x0, y0, (times[0], times[-1]), (float(vals.min()), float(vals.max())),
                       title=f"{labels[i]}-{labels[j]}")
        _ref_polylines(panel, times, vals, svgplot._cycle_colors(shown), 0.7, 0.6)
        body.extend(panel.parts)
    return svgplot._svg(width, height, body)


def _ref_entry_histograms(rt, labels):
    _, k, _ = rt.shape
    origins, width, height = svgplot._panel_grid(k)
    body = []
    for idx, (x0, y0) in enumerate(origins):
        i, j = divmod(idx, k)
        counts, edges = np.histogram(rt[:, i, j], bins=svgplot._HIST_BINS)
        panel = _Panel(x0, y0, (float(edges[0]), float(edges[-1])),
                       (0.0, float(max(counts.max(), 1))), title=f"{labels[i]}-{labels[j]}")
        for b in range(svgplot._HIST_BINS):
            if counts[b] == 0:
                continue
            xl, xr, yt = panel.px(edges[b]), panel.px(edges[b + 1]), panel.py(counts[b])
            _ref_rect(panel, xl, yt, max(xr - xl, 0.5), panel.py(0) - yt, "#1f77b4")
        body.extend(panel.parts)
    return svgplot._svg(width, height, body)


def _ref_occupancy_plot(times, freq, labels, i0_label):
    k = freq.shape[1]
    m = svgplot._MARGIN
    panel = _Panel(m, m, (times[0], times[-1]), (0.0, 1.0), title=f"occupancy from {i0_label}")
    _ref_polylines(panel, times, freq.T, svgplot._cycle_colors(k), 1.3)
    legend = [f'<text x="{m + svgplot._PANEL_W + 8}" y="{m + 14 + 14 * j}" '
              f'fill="{svgplot._COLORS[j % 8]}">{labels[j]}</text>' for j in range(k)]
    return svgplot._svg(svgplot._PANEL_W + 2 * m + 60, svgplot._PANEL_H + 2 * m,
                        panel.parts + legend)


def _ref_predefault_bars(matrix, labels):
    k = matrix.shape[0]
    m = svgplot._MARGIN
    panel = _Panel(m, m, (0.0, float(k)), (0.0, float(max(matrix.sum(axis=0).max(), 1e-12))),
                   title="pre-default rating")
    for j in range(k):
        xl = panel.px(j + 0.2)
        base = 0.0
        for i in range(k):
            h = matrix[i, j]
            if h <= 0:
                continue
            yt = panel.py(base + h)
            _ref_rect(panel, xl, yt, svgplot._PANEL_W / k * 0.6, panel.py(base) - yt,
                      svgplot._COLORS[i % 8])
            base += h
        panel.parts.append(f'<text x="{_f(xl)}" y="{m + svgplot._PANEL_H + 12}">'
                           f'{labels[j]}</text>')
    legend = [f'<text x="{m + svgplot._PANEL_W + 8}" y="{m + 14 + 14 * i}" '
              f'fill="{svgplot._COLORS[i % 8]}">from {labels[i]}</text>' for i in range(k)]
    return svgplot._svg(svgplot._PANEL_W + 2 * m + 80, svgplot._PANEL_H + 2 * m,
                        panel.parts + legend)


class TestSvgPlot:
    def test_points_match_per_coordinate_format(self):
        x = np.array([0.0, -0.0, 0.125, 0.375, -0.004, -1.005, 2.675, 1e6 / 3])
        y = np.array([-0.125, 0.005, -0.0, 12.345, 0.625, -7.5, 1.115, -2.5])
        ref = " ".join(f"{format(float(a), '.2f')},{format(float(b), '.2f')}"
                       for a, b in zip(x, y))
        assert _fixed2([x, y[None]], ", ") == [ref]
        assert "-0.00" in ref and "0.12" in ref and "0.38" in ref

    def test_polylines_match_per_coordinate_format(self):
        # x from 0 to 220 and y from -80 to 80 map one data unit to one
        # pixel, so the data's exact half-cents stay half-cents in pixels
        times = np.array([0.0, 0.125, 0.375, 2.675, 220.0])
        paths = np.array([[-80.0, -0.0, 0.125, -2.5, 80.0],
                          [0.0, -0.375, 1.005, 79.875, -0.0],
                          [-7.625, 3.0, -80.0, 0.625, 12.345]])
        colors = ["#111111", "#222222", "#333333"]
        panel = _Panel(36, 36, (0.0, 220.0), (-80.0, 80.0))
        ref_panel = _Panel(36, 36, (0.0, 220.0), (-80.0, 80.0))
        panel.polylines(times, paths, colors, width=0.7, opacity=0.6)
        _ref_polylines(ref_panel, times, paths, colors, width=0.7, opacity=0.6)
        assert panel.parts == ref_panel.parts
        assert "36.12," in panel.parts[-3] and "36.38," in panel.parts[-3]
        rpaths = np.stack([paths, -paths[::-1], paths[:, ::-1], 2 * paths],
                          axis=-1).reshape(3, 5, 2, 2)
        fans = trajectory_fans(times, rpaths, ["A", "D"])
        assert fans.count("<polyline") == 12 and panel.parts[-3].split('" ')[0] in fans

    def test_exact_ties_round_half_to_even(self):
        k = np.arange(0, 80_000) / 8          # every multiple of 1/8 below 1e4
        _formats_like_python(np.concatenate([k, -k]))

    def test_neighbours_of_half_cents(self):
        half = (np.arange(0, 1_000_000, 97) + 0.5) / 100     # 10,310 half-cents below 1e4
        _formats_like_python([half, np.nextafter(half, 0), np.nextafter(half, np.inf),
                              -np.nextafter(half, 0), -np.nextafter(half, np.inf)])

    def test_signed_zeros_and_tiny_negatives(self):
        values = [0.0, -0.0, -0.004, -0.0049999, -0.005, 0.004, -1e-300, -5e-324]
        _formats_like_python(values)
        assert _fixed2([np.array(values)[None]], " ")[0].split()[:3] == [
            "0.00", "-0.00", "-0.00"]

    def test_values_without_four_digit_integer_parts(self):
        values = [9999.99, 9999.994999, 9999.995, np.nextafter(9999.995, 0),
                  np.nextafter(9999.995, np.inf), 1e4, -1e4, 12345.675, 1e15, -1e15,
                  1e300, -1e300, np.finfo(float).max]
        _formats_like_python(values)
        assert _fixed2([np.array([1e4, -1e15])[None]], " ") == ["10000.00 -1000000000000000.00"]

    def test_subnormals_nan_and_infinities(self):
        tiny = np.finfo(float).smallest_subnormal
        _formats_like_python([tiny, -tiny, 2.2e-308, -2.2e-308, np.nan, -np.nan,
                              np.inf, -np.inf])

    def test_wide_value_formats_its_whole_row(self):
        rows = _fixed2([np.array([0.5, 1.25]), np.array([[1.0, 2.0], [3.0, np.inf]])], ", ")
        assert rows == ["0.50,1.00 1.25,2.00", "0.50,3.00 1.25,inf"]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-2e4, 2e4)), min_size=1, max_size=40))
    def test_any_float(self, values):
        _formats_like_python(values)

    def test_writers_match_the_per_coordinate_reference(self):
        rng = np.random.default_rng(29)
        times = np.linspace(0.0, 1.0, 121)
        labels = ["A", "B", "C", "D"]
        rpaths = rng.dirichlet(np.ones(4), size=(50, 121, 4))
        rpaths[:, :, 3] = [0.0, 0.0, 0.0, 1.0]
        assert trajectory_fans(times, rpaths, labels) == _ref_trajectory_fans(
            times, rpaths, labels)
        # entries on a coarse lattice leave most of the 30 bins empty
        rt = np.round(rng.dirichlet(np.ones(4), size=(1000, 4)) * 8) / 8
        assert entry_histograms(rt, labels) == _ref_entry_histograms(rt, labels)
        freq = rng.dirichlet(np.ones(4), size=121)
        assert occupancy_plot(times, freq, labels, "B") == _ref_occupancy_plot(
            times, freq, labels, "B")
        matrix = rng.uniform(0, 0.2, (4, 4)) * (rng.uniform(size=(4, 4)) < 0.6)
        matrix[:, 1] = 0.0                    # a column with no bar
        assert (matrix == 0).sum() > 4
        assert predefault_bars(matrix, labels) == _ref_predefault_bars(matrix, labels)
        empty = np.zeros((4, 4))
        assert predefault_bars(empty, labels) == _ref_predefault_bars(empty, labels)


class TestConfig:
    def test_grammar(self):
        values = parse_config_text("# comment\n\nseed = 3\ngrid.horizon=2.0\n")
        assert values == {"seed": "3", "grid.horizon": "2.0"}

    def test_rejects_malformed_line(self):
        with pytest.raises(ValidationError, match=":1:"):
            parse_config_text("not a pair")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    def test_nan_is_named_as_nan(self, tmp_path):
        cfg = RunConfig(values={"grid.horizon": "nan", "checkpoints": "0.5,nan",
                                "seed": "one"}, base_dir=tmp_path)
        with pytest.raises(ValidationError, match="grid.horizon must not be NaN"):
            cfg.get_float("grid.horizon")
        with pytest.raises(ValidationError, match="checkpoints must not be NaN"):
            cfg.get_floats("checkpoints")
        with pytest.raises(ValidationError, match="seed must be a number"):
            cfg.get_float("seed")

    def test_default_checkpoints_lie_within_the_horizon(self, tmp_path):
        for horizon, expected in (("2.0", [1 / 12, 0.25, 0.5, 1.0]),
                                  ("0.5", [1 / 12, 0.25, 0.5]),
                                  ("0.05", [0.05])):
            cfg = RunConfig(values={"grid.horizon": horizon}, base_dir=tmp_path)
            assert cfg.checkpoints().tolist() == expected, horizon
        cfg = RunConfig(values={"grid.horizon": "0.5", "checkpoints": "0.25,1.0"},
                        base_dir=tmp_path)
        with pytest.raises(ValidationError, match="checkpoints must list times"):
            cfg.checkpoints()

    def test_default_checkpoints_lie_on_the_grid(self, tmp_path):
        # 1/12 is not a multiple of 1/52; the other defaults are on the grid
        cfg = RunConfig(values={"grid.steps_per_year": "52"}, base_dir=tmp_path)
        assert cfg.checkpoints().tolist() == [0.25, 0.5, 1.0]
        cfg = RunConfig(values={"grid.steps_per_year": "5"}, base_dir=tmp_path)
        assert cfg.checkpoints().tolist() == [1.0]
        cfg = RunConfig(values={"grid.horizon": "0.3", "grid.steps_per_year": "10"},
                        base_dir=tmp_path)
        assert cfg.checkpoints().tolist() == [0.3]
        cfg = RunConfig(values={"grid.steps_per_year": "52", "checkpoints": "0.1"},
                        base_dir=tmp_path)
        with pytest.raises(ValidationError, match=r"checkpoints must lie on the grid"):
            cfg.checkpoints()

    def test_empty_checkpoints_are_rejected(self, tmp_path):
        # an empty list would run a command without its per-checkpoint files
        cfg = RunConfig(values={"checkpoints": ""}, base_dir=tmp_path)
        with pytest.raises(ValidationError, match="checkpoints must list times"):
            cfg.checkpoints()

    def test_readme_example_keys_are_known(self):
        readme = (SRC_ROOT.parent / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = parse_config_text(example, "README.md").keys()
        assert "seed" in keys and keys <= KNOWN_KEYS, keys - KNOWN_KEYS

    def test_seed_required(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("labels = A,B,C,D\n")
        cfg = RunConfig.from_file(p)
        with pytest.raises(ValidationError, match="seed"):
            cfg.seed()

    def test_missing_file_reference(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\npaths.cohort = nope.csv\npaths.params =\n")
        cfg = RunConfig.from_file(p)
        with pytest.raises(ValidationError, match="missing file"):
            cfg.get_path("paths.cohort", required=True)
        # an empty path names the config's directory, which is not a file
        with pytest.raises(ValidationError, match="paths.params refers to missing file"):
            cfg.get_path("paths.params", required=True)

    def test_default_csa_thresholds_for_five_ratings(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nlabels = A,B,C,D,E\n")
        terms = RunConfig.from_file(p).csa_terms()
        assert np.array_equal(terms.thresholds_bank, [10e6, 5e6, 0.0, 0.0, 0.0])
        assert np.array_equal(terms.thresholds_cpty, terms.thresholds_bank)

    def test_infinite_thresholds_are_accepted(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\ncsa.thresholds_bank = inf,inf,0,0\n")
        terms = RunConfig.from_file(p).csa_terms()
        assert np.array_equal(terms.thresholds_bank, [np.inf, np.inf, 0.0, 0.0])

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "m.csv").write_text("x")
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\npaths.cohort = m.csv\n")
        cfg = RunConfig.from_file(p)
        assert cfg.get_path("paths.cohort") == tmp_path / "m.csv"


@pytest.fixture()
def workdir(tmp_path):
    for name in ("cohort_1y.csv", "reconstructed_1y.csv", "pd_case1.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    shutil.copy(data_path("calibrated_params_1y.csv"), tmp_path / "params.csv")
    (tmp_path / "run.cfg").write_text(
        "seed = 42\n"
        "labels = A,B,C,D\n"
        "grid.horizon = 1.0\n"
        "grid.steps_per_year = 24\n"
        "paths.cohort = cohort_1y.csv\n"
        "paths.reconstructed = reconstructed_1y.csv\n"
        "paths.params = params.csv\n"
        "paths.pd_targets = pd_case1.csv\n"
        "measure.kind = historical\n"
        "sim.m = 40\n"
        "sim.m1 = 10\n"
        "sim.m2 = 40\n"
        "xva.m = 60\n"
        "csa.postings_per_year = 24\n"
        "checkpoints = 0.25,0.5,1.0\n"
    )
    return tmp_path


def _occupancy_rows(path):
    """The header and the {label: row} body of an ssa occupancy file."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    return header, {row[0]: [float(x) for x in row[1:]] for row in body}


# Runs of simulate, ssa and xva over several chunks when sde._CHUNK is 7:
# (command, edits of the workdir config, simulate_paths calls, artifact names)
CHUNKED_RUNS = [
    # 300 trajectories x 12 steps: the 50 fan paths span 8 chunks of 7;
    # mean and var at 3 checkpoints, the property report, 2 SVGs, the summary
    ("simulate", {"grid.steps_per_year = 24": "grid.steps_per_year = 12",
                  "sim.m = 40": "sim.m = 300"}, 43,
     ["histograms.svg", "mean_t0.25.csv", "mean_t0.5.csv", "mean_t1.csv",
      "property_report.csv", "run_summary.json", "trajectories.svg",
      "var_t0.25.csv", "var_t0.5.csv", "var_t1.csv"]),
    # 30 trajectories of 40 paths from each of A, B and C; occupancy at 3
    # checkpoints, 3 occupancy SVGs, the pre-default CSV and SVG, the summary
    ("ssa", {"sim.m1 = 10": "sim.m1 = 30"}, 5,
     ["occupancy_A.svg", "occupancy_B.svg", "occupancy_C.svg",
      "occupancy_t0.25.csv", "occupancy_t0.5.csv", "occupancy_t1.csv",
      "predefault.csv", "predefault.svg", "run_summary.json"]),
    # 60 scenarios; the bank starts at rating C, so some paths default and
    # the rating paths reach the report
    ("xva", {"xva.m = 60": "xva.m = 60\nxva.bank_rating = 3"}, 9,
     ["predefault.csv", "run_summary.json", "xva_report.csv"]),
]


def _edit_config(workdir, edits):
    cfg = workdir / "run.cfg"
    text = cfg.read_text()
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg.write_text(text)
    return cfg


def _edit_cells(path, edits):
    """Set cells of a CSV file: edits maps a 1-based line to {column: token}."""
    rows = path.read_text().splitlines()
    for line, cells in edits.items():
        row = rows[line - 1].split(",")
        for column, token in cells.items():
            row[column - 1] = token
        rows[line - 1] = ",".join(row)
    path.write_text("\n".join(rows) + "\n")


def _write_overflowing_params(workdir):
    """a=400 with b=sigma=3 overflows |Y|^a within the first year."""
    labels, a, b, sigma = read_params_csv(workdir / "params.csv")
    write_params_csv(workdir / "params.csv", labels, np.full_like(a, 400.0),
                     np.full_like(b, 3.0), np.full_like(sigma, 3.0))


class TestCliCommands:
    def test_reconstruct_outputs_row_stochastic(self, workdir):
        res = run_cli("reconstruct", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        _, rec = read_rating_csv(workdir / "o" / "reconstructed.csv")
        # the config injects a published matrix rounded to 6 decimals, so row
        # sums carry that rounding
        assert np.abs(rec.sum(axis=1) - 1.0).max() <= 1e-5
        summary = json.loads((workdir / "o" / "run_summary.json").read_text())
        assert summary["command"] == "reconstruct"

    def test_adjusted_matches_published(self, workdir):
        res = run_cli("reconstruct", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        _, adj = read_rating_csv(workdir / "o" / "adjusted.csv")
        assert np.abs(adj - ADJUSTED_PUBLISHED).max() <= PRINT_TOL

    def test_pd_rows_in_another_order_exit_one(self, workdir, capsys):
        path = workdir / "pd_case1.csv"
        header, a, b, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, b, a, *rest]) + "\n")
        cfg = workdir / "run.cfg"
        assert cli.main(["calibrate-rn", "--config", str(cfg),
                         "--out", str(workdir / "o")]) == 1
        assert (f"{cfg}: paths.pd_targets: {path} has labels ['B', 'A', 'C', 'D'], "
                "expected the configured labels") in capsys.readouterr().err
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command", ["reconstruct", "calibrate-hist"])
    @pytest.mark.parametrize("key", ["paths.reconstructed", "weights.file"])
    def test_mislabelled_rating_file_exits_one(self, workdir, capsys, command, key):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "hist.m = 20\nhist.max_iter = 1\n"
                       "weights.kind = file\nweights.file = weights.csv\n")
        write_rating_csv(workdir / "weights.csv", ["A", "B", "C", "D"], np.ones((4, 4)))
        assert cli.main([command, "--config", str(cfg), "--out", str(workdir / "ok")]) == 0
        path = workdir / ("reconstructed_1y.csv" if key == "paths.reconstructed"
                          else "weights.csv")
        _, entries = read_rating_csv(path)
        write_rating_csv(path, ["W", "X", "Y", "Z"], entries)
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg), "--out", str(workdir / "o")]) == 1
        assert (f"{cfg}: {key}: {path} has labels ['W', 'X', 'Y', 'Z']"
                in capsys.readouterr().err)
        assert list((workdir / "o").iterdir()) == []

    def test_adjusted_matrix_key_is_unknown(self, workdir, capsys):
        # the adjusted matrix is always computed from the cohort
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "paths.adjusted = reconstructed_1y.csv\n")
        assert cli.main(["calibrate-hist", "--config", str(cfg),
                         "--out", str(workdir / "o")]) == 1
        assert "unknown key(s) paths.adjusted" in capsys.readouterr().err

    def test_missing_file_exits_one(self, workdir):
        (workdir / "run.cfg").write_text("seed = 1\npaths.cohort = gone.csv\n")
        res = run_cli("reconstruct", "--config", "run.cfg", cwd=workdir)
        assert res.returncode == 1
        assert "gone.csv" in res.stderr

    def test_missing_config_exits_three(self, workdir):
        res = run_cli("reconstruct", "--config", "absent.cfg", cwd=workdir)
        assert res.returncode == 3

    def test_unknown_subcommand_exits_one(self, workdir):
        res = run_cli("frobnicate", cwd=workdir)
        assert res.returncode == 1
        assert "invalid choice: 'frobnicate'" in res.stderr

    def test_simulate_emits_artifacts(self, workdir):
        res = run_cli("simulate", "--config", "run.cfg", "--out", "s",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        for name in ("mean_t1.csv", "var_t1.csv", "property_report.csv",
                     "trajectories.svg", "histograms.svg"):
            assert (workdir / "s" / name).exists()
        _, mean = read_rating_csv(workdir / "s" / "mean_t1.csv")
        assert np.abs(mean.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("command, edits, chunks, names", CHUNKED_RUNS)
    def test_artifacts_do_not_depend_on_the_chunk_size(self, workdir, monkeypatch,
                                                       command, edits, chunks, names):
        cfg = _edit_config(workdir, edits)
        simulate, calls = sde.simulate_paths, []
        monkeypatch.setattr(sde, "simulate_paths",
                            lambda *a, **kw: calls.append(1) or simulate(*a, **kw))
        artifacts, counts = {}, []
        for chunk in (7, 1000):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            calls.clear()
            out = workdir / f"chunk{chunk}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            counts.append(len(calls))
            artifacts[chunk] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert counts == [chunks, 1]
        assert sorted(artifacts[7]) == names
        if command != "simulate":
            # the sampled rating paths default, so their draws reach the artifacts
            assert json.loads(artifacts[7]["run_summary.json"])["total_defaults"] > 0
        assert artifacts[7] == artifacts[1000]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one worker")
    @pytest.mark.parametrize("command, edits, chunks, names", CHUNKED_RUNS)
    def test_artifacts_do_not_depend_on_the_thread_count(self, workdir, monkeypatch,
                                                         command, edits, chunks, names):
        cfg = _edit_config(workdir, edits)
        simulate, idents = sde.simulate_paths, []
        monkeypatch.setattr(sde, "simulate_paths", lambda *a, **kw: (
            idents.append(threading.get_ident()) or simulate(*a, **kw)))
        monkeypatch.setattr(sde, "_CHUNK", 7)
        artifacts, ran_on = {}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)          # the workers interleave often
        try:
            for threads in (1, 3):
                idents.clear()
                out = workdir / f"threads{threads}"
                assert cli.main([command, "--config", str(cfg), "--out", str(out),
                                 "--threads", str(threads)]) == 0
                ran_on[threads] = set(idents)
                artifacts[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        finally:
            sys.setswitchinterval(interval)
        assert len(idents) == chunks
        # one thread runs every chunk on the caller; more run them on
        # workers while the caller waits
        assert ran_on[1] == {threading.get_ident()}
        assert len(ran_on[3]) == min(3, os.cpu_count()) > 1
        assert threading.get_ident() not in ran_on[3]
        assert sorted(artifacts[3]) == names
        assert artifacts[1] == artifacts[3]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one worker")
    @pytest.mark.parametrize("command, names", [
        ("calibrate-hist", ["params.csv", "run_summary.json"]),
        ("calibrate-rn", ["rn_result.csv", "run_summary.json"]),
    ])
    def test_calibrations_do_not_depend_on_the_thread_count(self, workdir, monkeypatch,
                                                            command, names):
        cfg = _edit_config(workdir, {"grid.steps_per_year = 24": "grid.steps_per_year = 12",
                                     "measure.kind = historical": "measure.kind = exponential"})
        cfg.write_text(cfg.read_text() + "hist.m = 20\nhist.max_iter = 1\nrn.m = 20\n")
        products, idents = sde._products, []
        monkeypatch.setattr(sde, "_products", lambda *a, **kw: (
            idents.append(threading.get_ident()) or products(*a, **kw)))
        artifacts, ran_on = {}, {}
        for threads in (1, 2, 3):
            idents.clear()
            out = workdir / f"threads{threads}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--threads", str(threads)]) == 0
            ran_on[threads] = set(idents)
            artifacts[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(artifacts[1]) == names
        assert artifacts[1] == artifacts[2] == artifacts[3]
        # the terminal pass runs on the caller at one thread, and on two
        # workers while the caller waits at two
        assert ran_on[1] == {threading.get_ident()}
        assert len(ran_on[2]) == 2 and threading.get_ident() not in ran_on[2]

    def test_threads_never_exceed_the_chunks_or_cores(self, workdir, monkeypatch):
        # 40 trajectories in 6 chunks of 7, asked for on 64 threads.  The
        # list holds the Thread objects: an exited thread's get_ident() may be
        # reused by the next, e.g. when one worker ends before another starts
        simulate, runners, started = sde.simulate_paths, [], []
        monkeypatch.setattr(sde, "simulate_paths", lambda *a, **kw: (
            runners.append(threading.current_thread()) or simulate(*a, **kw)))
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(1) or start(thread))
        monkeypatch.setattr(sde, "_CHUNK", 7)
        before = threading.active_count()
        assert cli.main(["simulate", "--config", str(workdir / "run.cfg"),
                         "--out", str(workdir / "o"), "--threads", "64"]) == 0
        workers = min(6, os.cpu_count())
        assert len(runners) == 6
        assert len(set(runners)) == workers
        assert len(started) == (workers if workers > 1 else 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_thread_count_below_one_exits_one(self, workdir, value):
        res = run_cli("simulate", "--config", "run.cfg", "--out", "o",
                      "--threads", value, cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert f"argument --threads: must be >= 1, got {value}" in res.stderr
        assert not (workdir / "o").exists()

    @pytest.mark.parametrize("command, key", [
        ("simulate", "sim.m"), ("ssa", "sim.m1"), ("xva", "xva.m")])
    def test_size_check_counts_every_workers_buffer(self, workdir, monkeypatch,
                                                    command, key):
        sized = []

        def recording(cfg, keys, *arrays):
            sized.extend(arrays)
            raise ValidationError("sized")

        monkeypatch.setattr(cli, "_require_allocatable", recording)
        cfg = workdir / "run.cfg"
        lines = [line for line in cfg.read_text().splitlines()
                 if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(lines + [f"{key} = 600"]) + "\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(workdir / "o"),
                         "--threads", "8"]) == 1
        # 600 trajectories in 3 chunks of 256, 24 steps, 9 coordinates
        assert (min(3, os.cpu_count()), 256, 24, 9, 8) in sized

    @pytest.mark.parametrize("command", ["simulate", "ssa", "xva"])
    def test_every_command_simulates_in_chunks(self, workdir, monkeypatch, command):
        # with chunks of 7, no call simulates more trajectories, whichever
        # module it is made from
        simulate, sizes = sde.simulate_paths, []

        def recording(*args, **kwargs):
            bundle = simulate(*args, **kwargs)
            sizes.append(bundle.m)
            return bundle

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "ratingsde"
                    and getattr(module, "simulate_paths", None) is simulate):
                monkeypatch.setattr(module, "simulate_paths", recording)
        monkeypatch.setattr(sde, "_CHUNK", 7)
        assert cli.main([command, "--config", str(workdir / "run.cfg"),
                         "--out", str(workdir / "o")]) == 0
        assert sizes and max(sizes) <= 7, sizes

    def test_ssa_peak_memory_grows_with_its_outputs_only(self, workdir):
        # trajectories are simulated and sampled one chunk of 256 at a time,
        # so from 256 to 1000 trajectories the peak grows by little more
        # than the per-trajectory outputs: for each of the ratings A, B and
        # C, m2 default times (8 bytes) and pre-default ratings (1 byte) and
        # the (N+1, K) int64 occupancy; and R at the horizon
        m2, steps, k = 100, 24, 4
        per_trajectory = 3 * (9 * m2 + (steps + 1) * k * 8) + k * k * 8
        cfg = workdir / "run.cfg"
        text = cfg.read_text().replace("sim.m2 = 40", f"sim.m2 = {m2}")
        peaks = []
        for m1 in (256, 256, 1000):                 # the first run warms up
            cfg.write_text(text.replace("sim.m1 = 10", f"sim.m1 = {m1}"))
            tracemalloc.start()
            try:
                assert cli.main(["ssa", "--config", str(cfg),
                                 "--out", str(workdir / "o")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] <= 1.25 * (1000 - 256) * per_trajectory, peaks

    def test_xva_counts_both_parties_at_one_rating(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "xva.bank_rating = 3\nxva.cpty_rating = 3\n")
        assert cli.main(["xva", "--config", str(cfg), "--out", str(workdir / "x")]) == 0
        summary = json.loads((workdir / "x" / "run_summary.json").read_text())
        _, a, b, sigma = read_params_csv(workdir / "params.csv")
        paths = simulate_xva_paths(SdeParams(k=4, a=a, b=b, sigma=sigma), HISTORICAL,
                                   TimeGrid(1.0, 24), 60, PortfolioSpec(), 42,
                                   bank_rating=3, cpty_rating=3)
        defaulted = [int((pre > 0).sum()) for pre in (paths.predefault_b,
                                                      paths.predefault_c)]
        assert min(defaulted) > 0
        assert summary["total_defaults"] == sum(defaulted)
        _, dist = read_rating_csv(workdir / "x" / "predefault.csv")
        assert dist[2].sum() == pytest.approx(1.0) and not dist[[0, 1, 3]].any()

    def test_default_checkpoints_fit_a_short_horizon(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("grid.horizon = 1.0", "grid.horizon = 0.5")
                       .replace("checkpoints = 0.25,0.5,1.0\n", ""))
        for command, stem in (("simulate", "mean"), ("ssa", "occupancy")):
            out = workdir / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.glob(f"{stem}_t*.csv")) == [
                f"{stem}_t0.0833333.csv", f"{stem}_t0.25.csv", f"{stem}_t0.5.csv"]
        cfg.write_text(cfg.read_text() + "checkpoints = 0.25,1.0\n")
        res = run_cli("simulate", "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1
        assert "checkpoints must list times in (0, horizon], got [0.25, 1.0]" in res.stderr

    def test_default_checkpoints_fit_a_weekly_grid(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("grid.steps_per_year = 24",
                                               "grid.steps_per_year = 52")
                       .replace("checkpoints = 0.25,0.5,1.0\n", ""))
        for command, stem in (("simulate", "mean"), ("ssa", "occupancy")):
            out = workdir / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.glob(f"{stem}_t*.csv")) == [
                f"{stem}_t0.25.csv", f"{stem}_t0.5.csv", f"{stem}_t1.csv"]
        cfg.write_text(cfg.read_text() + "checkpoints = 0.1\n")
        for command in ("simulate", "ssa"):
            res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir)
            assert res.returncode == 1
            assert "checkpoints must lie on the grid" in res.stderr
            assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, name, line, column", [
        ("reconstruct", "cohort_1y.csv", 3, 3),         # the B -> B entry
        ("simulate", "params.csv", 2, 2),              # a of coordinate 1-2
        ("calibrate-rn", "pd_case1.csv", 3, 2),        # the PD of rating B
    ])
    def test_non_finite_input_number_exits_one(self, workdir, command, name, line,
                                               column, token):
        _edit_cells(workdir / name, {line: {column: token}})
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("measure.kind = historical",
                                               "measure.kind = exponential")
                       + "rn.m = 20\n")
        res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert f"non-finite number {token!r} at {name}: line {line}, column {column}" \
            in res.stderr
        assert "Traceback" not in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("column, name", [(2, "a"), (3, "b"), (4, "sigma")])
    def test_negative_parameter_names_the_file_and_line(self, workdir, column, name):
        _edit_cells(workdir / "params.csv", {3: {column: "-1"}})     # coordinate 1-3
        res = run_cli("simulate", "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert (f"validation error: params.csv: line 3, column {column}: "
                f"{name} must be nonnegative, got -1.0") in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command", ["reconstruct", "calibrate-hist"])
    @pytest.mark.parametrize("edits, line, rule", [
        ({3: {4: "-0.5"}}, 3, "reconstructed entries must lie in [0, 1]"),   # B -> C
        ({3: {4: "2"}}, 3, "reconstructed entries must lie in [0, 1]"),
        ({3: {4: "5"}}, 3, "reconstructed entries must lie in [0, 1]"),
        ({3: {4: "-1e308"}}, 3, "reconstructed entries must lie in [0, 1]"),
        ({3: {4: "0.5"}}, 3, "reconstructed row sums must be 1"),
        ({5: {4: "0.5", 5: "0.5"}}, 5, "last reconstructed row must be the last unit vector"),
    ])
    def test_broken_reconstruction_names_the_file_and_line(self, workdir, capsys, command,
                                                           edits, line, rule):
        path = workdir / "reconstructed_1y.csv"
        _edit_cells(path, edits)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "hist.m = 10\nhist.max_iter = 1\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(workdir / "o")]) == 1
        assert f"validation error: {path}: line {line}: {rule}\n" in capsys.readouterr().err
        assert list((workdir / "o").iterdir()) == []

    def test_reconstruction_within_print_precision_is_accepted(self, workdir):
        # the bundled file's rows are off by up to 6.0e-6; 9e-6 more still passes
        _edit_cells(workdir / "reconstructed_1y.csv", {5: {4: "9e-06"}})
        assert cli.main(["reconstruct", "--config", str(workdir / "run.cfg"),
                         "--out", str(workdir / "o")]) == 0

    @pytest.mark.parametrize("name, edits, message", [
        ("pd_case1.csv", {3: {2: "1e308"}},
         "line 3, column 2: PD targets must lie in [0, 1], got 1e+308"),
        ("cohort_1y.csv", {3: {3: "-0.5"}}, "line 3: cohort entries must lie in [0, 1]"),
        ("cohort_1y.csv", {2: {3: "0.5"}}, "line 2: cohort row sums must not exceed 1"),
        ("cohort_1y.csv", {5: {5: "0.5"}},
         "line 5: last cohort row must be the last unit vector"),
        ("weights.csv", {3: {4: "-2"}}, "line 3: weights must be strictly positive"),
    ])
    def test_out_of_range_input_names_the_file_and_line(self, workdir, capsys, name,
                                                        edits, message):
        path = workdir / name
        cfg = workdir / "run.cfg"
        text = cfg.read_text().replace("measure.kind = historical",
                                       "measure.kind = exponential")
        if name == "weights.csv":
            write_rating_csv(path, ["A", "B", "C", "D"], np.ones((4, 4)))
            text += "weights.kind = file\nweights.file = weights.csv\n"
        cfg.write_text(text)
        _edit_cells(path, edits)
        command = "calibrate-rn" if name == "pd_case1.csv" else "reconstruct"
        assert cli.main([command, "--config", str(cfg), "--out", str(workdir / "o")]) == 1
        assert f"validation error: {path}: {message}\n" in capsys.readouterr().err
        assert list((workdir / "o").iterdir()) == []

    def test_simulate_non_finite_exits_two(self, workdir):
        _write_overflowing_params(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text()
                       .replace("grid.steps_per_year = 24", "grid.steps_per_year = 120")
                       .replace("sim.m = 40", "sim.m = 50"))
        res = run_cli("simulate", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 2, res.stderr
        assert "numerical error" in res.stderr
        assert list((workdir / "o").glob("mean_t*.csv")) == []

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one worker")
    def test_numerical_error_on_a_worker_exits_two(self, workdir, monkeypatch, capsys):
        # 600 trajectories in 3 chunks on 2 workers; every chunk overflows
        _write_overflowing_params(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text()
                       .replace("grid.steps_per_year = 24", "grid.steps_per_year = 120")
                       .replace("sim.m = 40", "sim.m = 600"))
        simulate, raised_on = sde.simulate_paths, []

        def recording(*args, **kwargs):
            try:
                return simulate(*args, **kwargs)
            except NumericalError:
                raised_on.append(threading.get_ident())
                raise

        monkeypatch.setattr(sde, "simulate_paths", recording)
        before = threading.active_count()
        errors, raisers = {}, {}
        for threads in ("1", "2"):
            raised_on.clear()
            out = workdir / f"o{threads}"
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                             "--threads", threads])
            assert code == 2
            errors[threads], raisers[threads] = capsys.readouterr().err, set(raised_on)
            assert list(out.glob("mean_t*.csv")) == []
            assert threading.active_count() == before
        assert "numerical error" in errors["2"] and "Traceback" not in errors["2"]
        assert raisers["1"] == {threading.get_ident()}
        assert raisers["2"] and threading.get_ident() not in raisers["2"]
        # the first chunk's error, as on one thread
        assert errors["2"] == errors["1"]

    def test_calibrate_hist_non_finite_start_exits_two(self, workdir):
        # the start point clipped up to a=b=sigma=50 leaves floating-point range
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "hist.m = 20\nhist.bound_lo = 50\n"
                       "hist.bound_hi = 60\n")
        res = run_cli("calibrate-hist", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 2, res.stderr
        assert "numerical error" in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert not (workdir / "o" / "params.csv").exists()

    def test_calibrate_hist_overflowing_weight_exits_two(self, workdir):
        # finite residuals whose sum of squares overflows
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "hist.m = 20\nhist.w1 = 1e308\n")
        res = run_cli("calibrate-hist", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 2, res.stderr
        assert "numerical error" in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert not (workdir / "o" / "params.csv").exists()

    @pytest.mark.parametrize("command, line", [
        ("ssa", "ssa.initial = 7"),
        ("ssa", "ssa.initial = 0"),
        ("ssa", "ssa.initial = 1.5,2,3"),
        ("xva", "xva.bank_rating = 9"),
        ("xva", "csa.thresholds_bank = 1,2"),
    ])
    def test_out_of_range_rating_exits_one(self, workdir, command, line):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + line + "\n")
        res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert "validation error" in res.stderr
        assert "Traceback" not in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command, old, new", [
        ("simulate", "grid.horizon = 1.0", "grid.horizon = nan"),
        ("simulate", "grid.horizon = 1.0", "grid.horizon = inf"),
        ("simulate", "checkpoints = 0.25,0.5,1.0", "checkpoints = nan"),
        ("ssa", "checkpoints = 0.25,0.5,1.0", "checkpoints = 0.5,nan"),
        ("simulate", "checkpoints = 0.25,0.5,1.0", "checkpoints = 0.5,0.25"),
        ("simulate", "checkpoints = 0.25,0.5,1.0", "checkpoints = 0.5,0.5"),
        ("simulate", "labels = A,B,C,D", "labels = A,A,B,C"),
        pytest.param("simulate", "grid.steps_per_year = 24",
                     "grid.steps_per_year = 1" + "0" * 400, id="steps_per_year-1e400"),
        ("xva", None, "portfolio.v0 = nan"),
    ])
    def test_non_finite_or_duplicate_config_value_exits_one(self, workdir, command,
                                                            old, new):
        cfg = workdir / "run.cfg"
        text = cfg.read_text()
        cfg.write_text(text.replace(old, new) if old else text + new + "\n")
        res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert "validation error" in res.stderr
        assert new.split(" = ")[0] in res.stderr
        assert "Traceback" not in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command, old, new", [
        ("xva", None, "csa.lgd_bank = 2"),
        ("xva", None, "csa.lgd_cpty = -0.5"),
        ("xva", None, "csa.thresholds_bank = -1,0,0,0"),
        ("xva", None, "csa.thresholds_cpty = 0,0,-1,0"),
        ("xva", None, "portfolio.sigma_scale = -1"),
        ("xva", None, "portfolio.seed = -1"),
        ("simulate", "measure.kind = historical", "measure.kind = foo"),
        ("simulate", None, "measure.h = 1,1,1,2"),
        ("simulate", "measure.kind = historical",
         "measure.kind = exponential\nmeasure.h = 1,0,1,1"),
        ("ssa", None, "ssa.initial = 2,2"),
        ("calibrate-rn", "measure.kind = historical", "measure.kind = foo"),
        ("calibrate-rn", "measure.kind = historical", "measure.kind = historical"),
    ])
    def test_rejected_config_value_names_the_file_and_key(self, workdir, capsys,
                                                          command, old, new):
        cfg = workdir / "run.cfg"
        text = cfg.read_text()
        cfg.write_text(text.replace(old, new) if old else text + new + "\n")
        key = new.splitlines()[-1].split(" = ")[0]
        code = cli.main([command, "--config", str(cfg), "--out", str(workdir / "o")])
        assert code == 1
        assert f"ratingsde: validation error: {cfg}: {key} " in capsys.readouterr().err
        assert list((workdir / "o").iterdir()) == []

    def test_calibrate_rn_non_finite_start_exits_two(self, workdir):
        _write_overflowing_params(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("measure.kind = historical",
                                               "measure.kind = exponential")
                       + "rn.m = 20\n")
        res = run_cli("calibrate-rn", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 2, res.stderr
        assert "numerical error" in res.stderr
        assert not (workdir / "o" / "rn_result.csv").exists()

    def test_calibrate_hist_non_convergence_warns(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "hist.m = 20\nhist.max_iter = 1\n")
        res = run_cli("calibrate-hist", "--config", "run.cfg", "--out", "o",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        warnings = [line for line in res.stderr.splitlines()
                    if line.startswith("ratingsde: warning:")]
        assert len(warnings) == 1 and "did not converge" in warnings[0]
        summary = json.loads((workdir / "o" / "run_summary.json").read_text())
        assert summary["converged"] is False
        assert (workdir / "o" / "params.csv").exists()

    def test_ssa_emits_artifacts(self, workdir):
        res = run_cli("ssa", "--config", "run.cfg", "--out", "g", cwd=workdir)
        assert res.returncode == 0, res.stderr
        for name in ("occupancy_t1.csv", "predefault.csv", "predefault.svg",
                     "occupancy_A.svg"):
            assert (workdir / "g" / name).exists()

    def test_labels_with_markup_characters_keep_every_svg_well_formed(self, workdir):
        cfg = _edit_config(workdir, {"labels = A,B,C,D": "labels = A&B,B<,C,D>"})
        titles = []
        for command in ("simulate", "ssa"):
            out = workdir / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            svgs = sorted(out.glob("*.svg"))
            assert len(svgs) == {"simulate": 2, "ssa": 4}[command]
            for path in svgs:
                root = ET.parse(path).getroot()
                titles += [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"A&B-B<", "occupancy from B<", "from D>", "C"} <= set(titles)
        assert (workdir / "ssa" / "occupancy_A&B.svg").exists()

    @pytest.mark.parametrize("labels", ["A/B,B,C,D", "A,B\\C,C,D", "A,..,C,D", ".,B,C,D",
                                        "A,B,C\0,D"])
    def test_label_that_is_no_file_name_exits_one(self, workdir, capsys, labels):
        cfg = _edit_config(workdir, {"labels = A,B,C,D": f"labels = {labels}"})
        code = cli.main(["ssa", "--config", str(cfg), "--out", str(workdir / "o")])
        assert code == 1
        assert f"ratingsde: validation error: {cfg}: labels " in capsys.readouterr().err
        assert list((workdir / "o").iterdir()) == []

    def test_ssa_initial_subset(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "ssa.initial = 1\n")
        res = run_cli("ssa", "--config", "run.cfg", "--out", "g", cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert (workdir / "g" / "occupancy_A.svg").exists()
        assert not (workdir / "g" / "occupancy_B.svg").exists()
        # the sampled rating's row and the absorbing row, under the full header
        for path in (workdir / "g").glob("occupancy_t*.csv"):
            header, rows = _occupancy_rows(path)
            assert header == ["from", "A", "B", "C", "D"]
            assert list(rows) == ["A", "D"], path.name
            assert rows["D"] == [0.0, 0.0, 0.0, 1.0]
        summary = json.loads((workdir / "g" / "run_summary.json").read_text())
        assert 0.0 < summary["simulation_error_t_horizon"] < 0.05

    def test_ssa_occupancy_csv_equals_empirical_transition(self, workdir):
        # the CSV rows come from the event-counted occupancy; they must equal
        # the frequencies read off the same draws' recorded rating paths
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "ssa.initial = 2,4\n")
        res = run_cli("ssa", "--config", "run.cfg", "--out", "g", cwd=workdir)
        assert res.returncode == 0, res.stderr
        _, a, b, sigma = read_params_csv(workdir / "params.csv")
        grid = TimeGrid(1.0, 24)
        bundle = simulate_with_increments(SdeParams(k=4, a=a, b=b, sigma=sigma),
                                          HISTORICAL, grid, 10, 42, keep_times=[1.0])
        states = {i0: recorded_ssa(bundle, 40, i0, 42)[0] for i0 in (2, 4)}
        for t, tag in ((0.25, "0.25"), (0.5, "0.5"), (1.0, "1")):
            header, written = _occupancy_rows(workdir / "g" / f"occupancy_t{tag}.csv")
            assert header == ["from", "A", "B", "C", "D"]
            assert list(written) == ["B", "D"]              # no zero rows A, C
            emp, present = empirical_transition(states, t, grid, 4)
            assert present == [2, 4]
            for i0 in present:
                assert (written["ABCD"[i0 - 1]] == emp[i0 - 1]).all(), (t, i0)
            assert written["D"] == [0.0, 0.0, 0.0, 1.0]

    def test_xva_report_regimes_and_identity(self, workdir):
        res = run_cli("xva", "--config", "run.cfg", "--out", "x", cwd=workdir)
        assert res.returncode == 0, res.stderr
        rows = (workdir / "x" / "xva_report.csv").read_text().splitlines()
        assert rows[0].startswith("regime,cva,dva,bva")
        regimes = {}
        for row in rows[1:]:
            cells = row.split(",")
            regimes[cells[0]] = [float(c) for c in cells[1:7]]
        assert set(regimes) == {"none", "perfect", "triggers"}
        for vals in regimes.values():
            cva, dva, bva = vals[:3]
            assert bva == dva - cva

    @pytest.mark.parametrize("line, code", [
        ("xva.m = 0", 1),
        ("xva.m = 1", 1),           # one scenario has no standard error
        ("portfolio.sigma_scale = inf", 2),
    ])
    def test_xva_empty_or_non_finite_run_writes_nothing(self, workdir, line, code):
        cfg = workdir / "run.cfg"
        text = cfg.read_text()
        cfg.write_text(text.replace("xva.m = 60", line) if line.startswith("xva.m")
                       else text + line + "\n")
        res = run_cli("xva", "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == code, res.stderr
        assert ("xva.m" if code == 1 else "non-finite") in res.stderr
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command, key, value, least", [
        ("simulate", "sim.m", 1, 2),      # var_matrix needs two trajectories
        ("ssa", "sim.m1", 0, 1),
        ("ssa", "sim.m2", 0, 1),
        ("xva", "xva.m", 1, 2),
        ("calibrate-hist", "hist.m", 0, 1),
        ("calibrate-rn", "rn.m", -3, 1),
        ("xva", "portfolio.n", -1, 0),
        ("calibrate-hist", "hist.max_iter", 0, 1),
        ("calibrate-hist", "hist.max_iter", -1, 1),
        ("xva", "csa.postings_per_year", 0, 1),
    ])
    def test_too_small_count_names_the_key(self, workdir, monkeypatch, capsys,
                                           command, key, value, least):
        def no_draws(counter, key):
            raise AssertionError("a draw was made before the counts were checked")

        monkeypatch.setattr(sde, "_philox4x32", no_draws)
        cfg = workdir / "run.cfg"
        lines = [line for line in cfg.read_text().splitlines()
                 if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        code = cli.main([command, "--config", str(cfg), "--out", str(workdir / "o")])
        assert code == 1
        assert capsys.readouterr().err == (f"ratingsde: validation error: {cfg}: "
                                           f"{key} must be >= {least}, got {value}\n")
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("xva.bank_rating", 0), ("xva.bank_rating", 5), ("xva.cpty_rating", 0)])
    def test_out_of_range_party_rating_names_the_key(self, workdir, monkeypatch,
                                                     capsys, key, value):
        def no_draws(counter, key):
            raise AssertionError("a draw was made before the ratings were checked")

        monkeypatch.setattr(sde, "_philox4x32", no_draws)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + f"{key} = {value}\n")
        code = cli.main(["xva", "--config", str(cfg), "--out", str(workdir / "o")])
        assert code == 1
        assert capsys.readouterr().err == (f"ratingsde: validation error: {cfg}: "
                                           f"{key} must be in 1..4, got {value}\n")
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command, old, new", [
        ("simulate", "grid.steps_per_year = 24",
         "grid.steps_per_year = 100000000000000000000"),
        ("simulate", "sim.m = 40", "sim.m = 100000000000000"),
        ("ssa", "sim.m2 = 40", "sim.m2 = 100000000000000"),
        ("xva", "xva.m = 60", "xva.m = 100000000000000"),
        ("calibrate-hist", None, "hist.m = 100000000000000"),
        ("calibrate-rn", None, "rn.m = 100000000000000"),
        ("xva", None, "portfolio.n = 1000000000"),
    ])
    def test_impossible_size_exits_one(self, workdir, command, old, new):
        # under a 2 GiB address-space cap a missed size check fails fast with
        # a MemoryError instead of paging the machine
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        cfg = workdir / "run.cfg"
        text = cfg.read_text().replace("measure.kind = historical", "measure.kind = jlt")
        cfg.write_text(text.replace(old, new) if old else text + new + "\n")
        res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir,
                      preexec_fn=cap_memory)
        assert res.returncode == 1, res.stderr
        assert "validation error" in res.stderr and "bytes of memory" in res.stderr
        assert new.split(" = ")[0] in res.stderr
        assert "Traceback" not in res.stderr
        assert list((workdir / "o").iterdir()) == []

    @pytest.mark.parametrize("command", ["reconstruct", "calibrate-hist",
                                         "calibrate-rn", "simulate", "ssa", "xva"])
    def test_unknown_key_exits_one_and_writes_nothing(self, workdir, command):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "sim.mm = 5\n")
        res = run_cli(command, "--config", "run.cfg", "--out", "o", cwd=workdir)
        assert res.returncode == 1, res.stderr
        assert "unknown key(s) sim.mm" in res.stderr
        assert not (workdir / "o").exists()

    def test_every_key_read_is_known(self, workdir, monkeypatch):
        read = set()
        raw = RunConfig._raw

        def recording(self, key, *args, **kwargs):
            read.add(key)
            return raw(self, key, *args, **kwargs)

        monkeypatch.setattr(RunConfig, "_raw", recording)
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("measure.kind = historical",
                                               "measure.kind = jlt")
                       + "hist.m = 20\nhist.max_iter = 1\nrn.m = 20\n")
        for command in ("reconstruct", "calibrate-hist", "calibrate-rn",
                        "simulate", "ssa", "xva"):
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(workdir / command)])
            assert code == 0, command
        assert read <= KNOWN_KEYS, read - KNOWN_KEYS
        # weights.file is read only with weights.kind = file
        assert KNOWN_KEYS - read == {"weights.file"}

    def test_xva_runs_on_default_postings(self, workdir):
        # csa.postings_per_year defaults to grid.steps_per_year
        res = run_cli("xva", "--config", "run.cfg", "--out", "explicit", cwd=workdir)
        assert res.returncode == 0, res.stderr
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("csa.postings_per_year = 24\n", ""))
        res = run_cli("xva", "--config", "run.cfg", "--out", "default", cwd=workdir)
        assert res.returncode == 0, res.stderr
        for name in ("xva_report.csv", "predefault.csv"):
            assert ((workdir / "default" / name).read_bytes()
                    == (workdir / "explicit" / name).read_bytes())

    def test_out_of_memory_is_one_line(self, workdir, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "simulate", exhausted)
        code = cli.main(["simulate", "--config", str(workdir / "run.cfg"),
                         "--out", str(workdir / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("ratingsde: error: out of memory: "
                       "Unable to allocate 8.00 EiB for an array\n")

    def test_report_summarizes_and_flags_missing(self, workdir):
        res = run_cli("reconstruct", "--config", "run.cfg", "--out", "r",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        res = run_cli("report", "--config", "r", cwd=workdir)
        assert res.returncode == 0, res.stderr
        text = (workdir / "r" / "report.txt").read_text()
        assert "reconstruction" in text and "absent" in text

    def test_report_on_empty_directory_exits_one(self, workdir):
        (workdir / "empty").mkdir()
        res = run_cli("report", "--config", "empty", cwd=workdir)
        assert res.returncode == 1
        assert "xva_report.csv" in res.stderr

    def test_pipeline_rerun_is_byte_identical(self, workdir):
        # every simulation here fits in one chunk of 256 trajectories, so the
        # --threads 8 runs start no worker; see
        # test_artifacts_do_not_depend_on_the_thread_count for runs that do
        for threads, out in (("1", "d1"), ("8", "d8")):
            for cmd in ("reconstruct", "simulate", "ssa", "xva"):
                res = run_cli(cmd, "--config", "run.cfg", "--out", out,
                              "--threads", threads, cwd=workdir)
                assert res.returncode == 0, res.stderr
        d1, d8 = workdir / "d1", workdir / "d8"
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d8.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d8 / name).read_bytes(), name

    def test_no_command_imports_scipy(self, workdir):
        # a fresh interpreter: numpy is the only runtime dependency, and
        # scipy would cost most of the import time
        script = (
            "import json, sys\n"
            "from ratingsde import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "report = {'import': [0, loaded()]}\n"
            "for command in sys.argv[1:]:\n"
            "    code = cli.main([command, '--config', 'run.cfg', '--out', command])\n"
            "    report[command] = [code, loaded()]\n"
            "print(json.dumps(report))\n")
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text().replace("measure.kind = historical",
                                               "measure.kind = jlt")
                       + "hist.m = 20\nhist.max_iter = 1\nrn.m = 20\n")
        commands = ["reconstruct", "calibrate-hist", "calibrate-rn",
                    "simulate", "ssa", "xva"]
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        res = subprocess.run([sys.executable, "-c", script, *commands], cwd=workdir,
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        for stage in ["import", *commands]:
            assert report[stage] == [0, []], stage

    def test_cli_import_loads_no_thread_pool(self):
        # the executor starts plain threads; concurrent.futures would cost
        # about 11 ms of every command's start-up
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        res = subprocess.run(
            [sys.executable, "-c", "import sys, ratingsde.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_seed_flag_overrides_config(self, workdir):
        for extra, out in (((), "a"), (("--seed", "43"), "b")):
            res = run_cli("simulate", "--config", "run.cfg", *extra,
                          "--out", out, cwd=workdir)
            assert res.returncode == 0, res.stderr
        a = (workdir / "a" / "mean_t1.csv").read_bytes()
        b = (workdir / "b" / "mean_t1.csv").read_bytes()
        assert a != b


# Config fuzzing: a tiny valid config that simulate, ssa, xva and
# calibrate-rn all accept, and the values one of its keys is mutated to
# (None misspells the key instead).
FUZZ_CONFIG = {
    "seed": "42", "labels": "A,B,C,D", "grid.horizon": "1.0",
    "grid.steps_per_year": "12", "measure.kind": "jlt",
    "measure.h": "1.2,1.1,1.05,1", "checkpoints": "0.5,1.0",
    "sim.m": "8", "sim.m1": "3", "sim.m2": "8", "ssa.initial": "1,2",
    "rn.m": "8", "xva.m": "8", "xva.bank_rating": "1", "xva.cpty_rating": "2",
    "csa.thresholds_bank": "10,5,0,0", "csa.thresholds_cpty": "10,5,0,0",
    "csa.lgd_bank": "0.6", "csa.lgd_cpty": "0.6", "csa.postings_per_year": "12",
    "portfolio.v0": "0", "portfolio.n": "4", "portfolio.sigma_scale": "10",
    "portfolio.seed": "0",
    "paths.params": str(data_path("calibrated_params_1y.csv")),
    "paths.pd_targets": str(data_path("pd_case1.csv")),
}
FUZZ_VALUES = ["0", "-1", "nan", "inf", "1e308", "2.5", "", None]
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

# Reads one JSON [argv, stderr path] per line, runs cli.main on it in a
# forked child whose stderr goes to that path, and prints the child's exit
# code.  Forking spares each example the interpreter and numpy start-up,
# and an exception that escapes main prints its traceback as python would.
_FORK_SERVER = """
import json, os, sys, traceback
from ratingsde import cli
for line in sys.stdin:
    argv, err = json.loads(line)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), flush=True)
"""


@pytest.fixture(scope="module")
def forked_cli(tmp_path_factory):
    """run(command, config text) -> (exit code, stderr, output directory),
    each run in a fresh fork of one server capped at 2 GiB of address space."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    root = tmp_path_factory.mktemp("fuzz")
    # one BLAS thread leaves the server single-threaded, so forking it is safe
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    server = subprocess.Popen([sys.executable, "-c", _FORK_SERVER], cwd=root, env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, preexec_fn=cap_memory)
    counter = itertools.count()

    def run(command, text):
        case = root / f"case{next(counter)}"
        case.mkdir()
        (case / "run.cfg").write_text(text)
        argv = [command, "--config", str(case / "run.cfg"), "--out", str(case / "o")]
        server.stdin.write(json.dumps([argv, str(case / "stderr")]) + "\n")
        server.stdin.flush()
        code = int(server.stdout.readline())
        return code, (case / "stderr").read_text(), case / "o"

    yield run
    server.stdin.close()
    server.wait()


class TestConfigFuzz:
    @given(command=st.sampled_from(["simulate", "ssa", "xva", "calibrate-rn"]),
           key=st.sampled_from(sorted(FUZZ_CONFIG)), value=st.sampled_from(FUZZ_VALUES))
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @example(command="xva", key="portfolio.seed", value="-1")  # was a traceback
    def test_mutated_key_exits_cleanly(self, forked_cli, command, key, value):
        cfg = dict(FUZZ_CONFIG)
        if value is None:
            cfg[key[:-1] + "x" + key[-1]] = cfg.pop(key)
        else:
            cfg[key] = value
        code, err, out = forked_cli(command, "".join(f"{k} = {v}\n"
                                                     for k, v in cfg.items()))
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            for artifact in out.iterdir():
                assert not NON_FINITE.search(artifact.read_text()), artifact.name


def test_readme_library_example_runs(capsys):
    # the README's "Library example" block, executed as written
    section = (SRC_ROOT.parent / "README.md").read_text().split("## Library example")[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6 and "nan" not in out  # a 4 x 4 matrix, 2 numbers
