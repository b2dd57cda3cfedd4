"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

cli = run._import_cli()


def _op(name: str, tmp_path: Path, tracer: Tracer | None = None, seed: int = 1):
    wl = workloads.workload(name, tiny=True)
    inputs = tmp_path / "inputs"
    if not inputs.exists():
        workloads.write_inputs(wl, seed, inputs)
    out = tmp_path / ("traced" if tracer else "plain")
    return wl, inputs, out, run.run_op(cli, wl, inputs, out, tracer)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    _, _, _, op = _op(name, tmp_path)
    assert op.problems == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_artifacts_are_identical(name, tmp_path):
    _, _, plain, op = _op(name, tmp_path)
    tracer = Tracer()
    _, _, traced, top = _op(name, tmp_path, tracer)
    assert op.problems == [] and top.problems == []
    assert workloads.digest(plain) == workloads.digest(traced)
    assert top.layers["cli.self_s"] > 0
    # wrappers are removed after the traced op
    from ratingsde import lie, sde
    assert not hasattr(lie.expm_batch, "__wrapped__")
    assert not hasattr(sde.simulate_paths, "__wrapped__")


def test_threaded_spans_have_nonnegative_self_times(tmp_path):
    tracer = Tracer()
    _, _, _, op = _op("simulate", tmp_path, tracer)
    assert op.problems == []
    wl = workloads.workload("simulate", tiny=True)
    m, chunk = int(wl.config["sim.m"]), 256
    assert op.layers["sde.executor.chunks"] == -(-m // chunk) > 1
    assert op.layers["sde.step.traj_steps"] == m * 12
    assert op.layers["lie.expm_batch.matrices"] == m * 12
    assert all(v >= 0 for k, v in op.layers.items() if k.endswith(".self_s"))


def _replace(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, count))


def _edit_csv_cell(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, **changes) -> None:
    record = json.loads(path.read_text())
    record.update(changes)
    path.write_text(json.dumps(record))


def _shift_mass(path: Path, row: int, src: int, dst: int, amount: float) -> None:
    """Move probability mass within one row, keeping its sum."""
    cells = path.read_text().splitlines()[row].split(",")
    _edit_csv_cell(path, row, src, repr(float(cells[src]) - amount))
    _edit_csv_cell(path, row, dst, repr(float(cells[dst]) + amount))


def _xva_row(out: Path, regime: str) -> int:
    lines = (out / "xva_report.csv").read_text().splitlines()
    return next(i for i, line in enumerate(lines) if line.startswith(regime + ","))


def _set_xva(out: Path, regime: str, column: str, value: float) -> None:
    """Set CVA or DVA of one regime and keep bva == dva - cva exact."""
    path = out / "xva_report.csv"
    row = _xva_row(out, regime)
    cells = path.read_text().splitlines()[row].split(",")
    cva, dva = float(cells[1]), float(cells[2])
    cva, dva = (value, dva) if column == "cva" else (cva, value)
    for col, v in ((1, cva), (2, dva), (3, dva - cva)):
        _edit_csv_cell(path, row, col, format(v, ".17g"))


# workload -> corruption -> (edit of a passing op's artifacts, expected problem)
CORRUPTIONS = {
    "simulate": {
        "row sum": (lambda o: _edit_csv_cell(o / "mean_t0.5.csv", 1, 1, "0.5"),
                    "sums to"),
        "entry outside [0,1]": (lambda o: _shift_mass(o / "mean_t1.csv", 2, 1, 2, 0.5),
                                "outside [0, 1]"),
        "absorbing row": (lambda o: _shift_mass(o / "mean_t0.25.csv", 4, 4, 3, 0.5),
                          "absorbing"),
        "far from reference": (lambda o: _shift_mass(o / "mean_t1.csv", 1, 1, 2, 0.05),
                               "from reference"),
        "missing checkpoint": (lambda o: (o / "mean_t0.25.csv").unlink(), "mean files"),
        "non-finite": (lambda o: _edit_csv_cell(o / "var_t1.csv", 1, 1, "nan"),
                       "non-finite"),
    },
    "ssa": {
        "occupancy row sum": (
            lambda o: _edit_csv_cell(o / "occupancy_t1.csv", 2, 2, "0.5"), "sums to"),
        "simulation error": (
            lambda o: _edit_json(o / "run_summary.json", simulation_error_t_horizon=0.5),
            "simulation_error"),
        "non-finite": (lambda o: _replace(o / "predefault.svg", 'y="', 'y="inf'),
                       "non-finite"),
    },
    "xva": {
        "bva != dva - cva": (lambda o: _edit_csv_cell(
            o / "xva_report.csv", _xva_row(o, "triggers"), 3, "0.125"), "bva"),
        "cva order": (lambda o: _set_xva(o, "perfect", "cva", 1e9), "cva not ordered"),
        "dva order": (lambda o: _set_xva(o, "none", "dva", -1e9), "dva not ordered"),
        "default counts": (lambda o: _edit_csv_cell(
            o / "xva_report.csv", _xva_row(o, "none"), 10, "0"), "default counts"),
        "non-finite": (lambda o: _edit_csv_cell(
            o / "xva_report.csv", _xva_row(o, "none"), 4, "inf"), "non-finite"),
    },
    "calibrate": {
        "not converged": (lambda o: _edit_json(o / "run_summary.json", converged=False),
                          "converged"),
        "sse": (lambda o: _edit_json(o / "run_summary.json", sse=0.01), "sse"),
        "h not finite": (lambda o: _edit_csv_cell(o / "rn_result.csv", 2, 1, "inf"),
                         "h is not finite"),
        "unreadable": (lambda o: (o / "rn_result.csv").write_text("rating,h\nA,x\n"),
                       "unreadable"),
    },
}


@pytest.fixture(scope="module")
def clean_outputs(tmp_path_factory):
    """One passing op per workload, copied fresh for each corruption."""
    made = {}
    for name in workloads.NAMES:
        base = tmp_path_factory.mktemp(name)
        wl, inputs, out, op = _op(name, base)
        assert op.problems == []
        made[name] = (wl, inputs, out)
    return made


@pytest.mark.parametrize("name,corruption", [
    (name, c) for name, cs in CORRUPTIONS.items() for c in cs])
def test_corrupted_artifact_fails_its_check(name, corruption, clean_outputs, tmp_path):
    wl, inputs, out = clean_outputs[name]
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    edit, expected = CORRUPTIONS[name][corruption]
    edit(bad)
    problems = workloads.check_outputs(wl, bad, inputs)
    assert any(expected in p for p in problems), problems
    assert workloads.digest(bad) != workloads.digest(out)


def _result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("name,trace,names", [
    ("ssa", 0, run.END_TO_END), ("simulate", 1, run.PER_LAYER)])
def test_run_prints_every_metric(name, trace, names, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)], tiny=True)
    stdout = capsys.readouterr().out
    assert code == 0
    result = _result_line(stdout)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    record = json.loads(next(line for line in stdout.splitlines()
                             if line.startswith("record "))[7:])
    assert record["src_lines"] > 0 and record["machine"]["cores"] >= 1
    for metric in names:
        assert re.search(rf"^{re.escape(metric)} ", stdout, re.M)
    assert not run.WORK.exists()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ssa", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
