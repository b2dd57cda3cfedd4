"""CSV round-trips, config grammar, and the command-line interface."""

import itertools
import json
import os
import re
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratingsde import (HISTORICAL, SdeParams, TimeGrid, ValidationError,
                       empirical_transition, simulate_paths_threaded)
from ratingsde import cli, sde
from ratingsde.config import KNOWN_KEYS, RunConfig, parse_config_text
from ratingsde.datasets import data_path
from ratingsde.matio import (format_rating_csv, read_params_csv, read_pd_csv,
                             read_rating_csv, write_params_csv, write_pd_csv,
                             write_rating_csv)
from ratingsde.svgplot import _Panel, _points, trajectory_fans

from conftest import ADJUSTED_PUBLISHED, PRINT_TOL, SRC_ROOT, recorded_ssa, run_cli


class TestMatIo:
    def test_rating_csv_round_trip(self, tmp_path, reconstructed):
        p = tmp_path / "m.csv"
        write_rating_csv(p, ["A", "B", "C", "D"], reconstructed)
        labels, entries = read_rating_csv(p)
        assert labels == ["A", "B", "C", "D"]
        assert np.array_equal(entries, reconstructed)

    def test_withdrawal_column_ignored_on_read(self, tmp_path, cohort):
        text = format_rating_csv(["A", "B", "C", "D"], cohort.entries,
                                 withdrawals=True)
        assert "w_t" in text.splitlines()[0]
        p = tmp_path / "with_wt.csv"
        p.write_text(text)
        labels, entries = read_rating_csv(p)
        assert np.array_equal(entries, cohort.entries)

    def test_parse_error_reports_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("from,A,B\nA,0.5,oops\nB,0,1\n")
        with pytest.raises(ValidationError, match="line 2, column 3"):
            read_rating_csv(p)

    def test_params_round_trip(self, tmp_path):
        p = tmp_path / "params.csv"
        labels, a, b, s = read_params_csv(data_path("calibrated_params_1y.csv"))
        write_params_csv(p, labels, a, b, s)
        labels2, a2, b2, s2 = read_params_csv(p)
        assert labels2 == labels
        assert np.array_equal(a2, a) and np.array_equal(s2, s)

    def test_pd_round_trip(self, tmp_path):
        p = tmp_path / "pd.csv"
        write_pd_csv(p, ["A", "B", "C", "D"], np.array([0.1, 0.2, 0.3, 1.0]))
        labels, pds = read_pd_csv(p)
        assert labels == ["A", "B", "C", "D"]
        assert np.array_equal(pds, [0.1, 0.2, 0.3, 1.0])


class TestSvgPlot:
    def test_points_match_per_coordinate_format(self):
        x = np.array([0.0, -0.0, 0.125, 0.375, -0.004, -1.005, 2.675, 1e6 / 3])
        y = np.array([-0.125, 0.005, -0.0, 12.345, 0.625, -7.5, 1.115, -2.5])
        ref = " ".join(f"{format(float(a), '.2f')},{format(float(b), '.2f')}"
                       for a, b in zip(x, y))
        assert _points(x, y) == ref
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
        before = len(panel.parts)
        panel.polylines(times, paths, colors, width=0.7, opacity=0.6)
        ref = []
        for y, color in zip(paths, colors):
            pts = " ".join(f"{format(float(a), '.2f')},{format(float(b), '.2f')}"
                           for a, b in zip(panel.px(times), panel.py(y)))
            ref.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       'stroke-width="0.7" stroke-opacity="0.6"/>')
        assert panel.parts[before:] == ref
        assert "36.12," in ref[0] and "36.38," in ref[0]
        rpaths = np.stack([paths, -paths[::-1], paths[:, ::-1], 2 * paths],
                          axis=-1).reshape(3, 5, 2, 2)
        fans = trajectory_fans(times, rpaths, ["A", "D"])
        assert fans.count("<polyline") == 12 and ref[0].split('" ')[0] in fans


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

    def test_empty_checkpoints_are_rejected(self, tmp_path):
        # an empty list would run a command without its per-checkpoint files
        cfg = RunConfig(values={"checkpoints": ""}, base_dir=tmp_path)
        with pytest.raises(ValidationError, match="checkpoints must list times"):
            cfg.checkpoints()

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

    def test_simulate_artifacts_do_not_depend_on_the_chunk_size(self, workdir,
                                                                monkeypatch):
        # 300 trajectories x 12 steps; with chunks of 7 the 50 fan paths
        # span 8 chunks, with chunks of 1000 everything is one chunk
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text()
                       .replace("grid.steps_per_year = 24", "grid.steps_per_year = 12")
                       .replace("sim.m = 40", "sim.m = 300"))
        artifacts = {}
        for chunk in (7, 1000):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            out = workdir / f"chunk{chunk}"
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            artifacts[chunk] = {p.name: p.read_bytes() for p in out.iterdir()}
        # mean and var at 3 checkpoints, the property report, 2 SVGs, the summary
        assert len(artifacts[7]) == 10
        assert artifacts[7] == artifacts[1000]

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

    def test_ssa_initial_subset(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + "ssa.initial = 1\n")
        res = run_cli("ssa", "--config", "run.cfg", "--out", "g", cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert (workdir / "g" / "occupancy_A.svg").exists()
        assert not (workdir / "g" / "occupancy_B.svg").exists()
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
        bundle = simulate_paths_threaded(SdeParams(k=4, a=a, b=b, sigma=sigma),
                                         HISTORICAL, grid, 10, 42, keep_times=[1.0],
                                         keep_paths=0, keep_increments=True)
        states = {i0: recorded_ssa(bundle, 40, i0, 42)[0] for i0 in (2, 4)}
        for t, tag in ((0.25, "0.25"), (0.5, "0.5"), (1.0, "1")):
            _, written = read_rating_csv(workdir / "g" / f"occupancy_t{tag}.csv")
            emp, present = empirical_transition(states, t, grid, 4)
            assert present == [2, 4]
            for i0 in present:
                assert (written[i0 - 1] == emp[i0 - 1]).all(), (t, i0)
            assert (written[3] == [0.0, 0.0, 0.0, 1.0]).all()

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
