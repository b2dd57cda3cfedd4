"""Workload definitions: generated inputs and output checks.

A workload is one CLI command with a fixed configuration.  `write_inputs`
writes the config (seeded from the benchmark's seed) and the bundled CSVs
it needs into a work directory; `check_outputs` reads the artifacts one
op wrote and returns every problem it finds.  The checks parse the files
themselves and use nothing from the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "ratingsde" / "data"

# Checkpoints written exactly on the grid: repr(1/12) round-trips to the
# grid point 10 * (1/120) within TimeGrid.index_of's tolerance.
CHECKPOINT_TIMES = (1 / 12, 0.25, 0.5, 1.0)
CHECKPOINTS = ",".join(repr(t) for t in CHECKPOINT_TIMES)
INPUT_FILES = {
    "params.csv": "calibrated_params_1y.csv",
    "pd_case2.csv": "pd_case2.csv",
    "reference_1y.csv": "reconstructed_1y.csv",
}

MEAN_ROW_SUM_TOL = 1e-10
MEAN_REFERENCE_TOL = 0.02
OCCUPANCY_ROW_SUM_TOL = 1e-12
SSA_ERROR_MAX = 0.01
RN_SSE_MAX = 1e-4

_NONFINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: dict[str, str]
    units: int          # work units in one op
    unit_name: str

    def config_text(self, seed: int) -> str:
        lines = [f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in self.config.items()]
        return "\n".join(lines) + "\n"

    def argv(self, workdir: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(workdir / "run.cfg"),
                "--out", str(out), "--threads", str(self.threads)]


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload at the paper's sizes, or at a size for unit tests."""
    steps = 12 if tiny else 120
    base = {
        "labels": "A,B,C,D",
        "grid.horizon": "1.0",
        "grid.steps_per_year": str(steps),
        "paths.params": "params.csv",
    }
    if name == "simulate":
        m = 300 if tiny else 1000
        cfg = {**base, "measure.kind": "historical", "sim.m": str(m),
               "checkpoints": CHECKPOINTS}
        return Workload(name, "simulate", 2, cfg, m * steps, "trajectory-step")
    if name == "ssa":
        m1, m2 = (4, 50) if tiny else (100, 1000)
        initial = (1, 2, 3)
        cfg = {**base, "measure.kind": "historical", "sim.m1": str(m1),
               "sim.m2": str(m2), "ssa.initial": ",".join(map(str, initial)),
               "checkpoints": CHECKPOINTS}
        return Workload(name, "ssa", 1, cfg, m1 * m2 * len(initial), "rating path")
    if name == "xva":
        m = 300 if tiny else 10000
        cfg = {**base, "measure.kind": "historical", "xva.m": str(m),
               "xva.bank_rating": "1", "xva.cpty_rating": "2",
               "csa.thresholds_bank": "30,10,0,0",
               "csa.thresholds_cpty": "30,10,0,0",
               "csa.postings_per_year": str(steps)}
        return Workload(name, "xva", 1, cfg, m, "scenario")
    if name == "calibrate":
        m = 50 if tiny else 400
        cfg = {**base, "measure.kind": "exponential",
               "paths.pd_targets": "pd_case2.csv", "rn.m": str(m)}
        return Workload(name, "calibrate-rn", 1, cfg, 1, "fit")
    raise ValueError(f"unknown workload {name!r}")


# BENCHMARK.json lists simulate and ssa only; run the others by name.
# calibrate: a fit's evaluation count depends on the seed (25 to 33 residual
# calls over seeds 1-10), so its op time spreads across seeds by more than
# any bound allows.  xva: its op time drifted from 5.2 s to 8.9 s between
# runs minutes apart on a 2-vCPU VM, a run-to-run spread past any bound.
NAMES = ("simulate", "ssa", "xva", "calibrate")


def write_inputs(wl: Workload, seed: int, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for dest, src in INPUT_FILES.items():
        shutil.copyfile(DATA / src, workdir / dest)
    (workdir / "run.cfg").write_text(wl.config_text(seed))


def digest(out: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order.

    run_summary.json is included: it holds no wall-clock timing (the CLI
    prints timings to stderr only).
    """
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return [row for row in csv.reader(f) if row]


def _matrix(path: Path) -> list[list[float]]:
    """Numeric body of a rating CSV (header row and label column dropped)."""
    return [[float(x) for x in row[1:]] for row in _rows(path)[1:]]


def _check_finite(out: Path) -> list[str]:
    problems = []
    for path in sorted(out.iterdir()):
        match = _NONFINITE.search(path.read_text())
        if match:
            problems.append(f"{path.name}: non-finite value {match.group(0)!r}")
    return problems


def _check_stochastic_rows(name: str, mat: list[list[float]], tol: float) -> list[str]:
    problems = []
    for i, row in enumerate(mat):
        if abs(sum(row) - 1.0) > tol:
            problems.append(f"{name}: row {i + 1} sums to {sum(row)!r}")
        if any(not 0.0 <= x <= 1.0 for x in row):
            problems.append(f"{name}: row {i + 1} has an entry outside [0, 1]")
    return problems


def _check_simulate(wl: Workload, out: Path, workdir: Path) -> list[str]:
    problems = []
    means = sorted(out.glob("mean_t*.csv"))
    if len(means) != len(CHECKPOINT_TIMES):
        problems.append(f"expected {len(CHECKPOINT_TIMES)} mean files, found {len(means)}")
    for path in means:
        mat = _matrix(path)
        problems += _check_stochastic_rows(path.name, mat, MEAN_ROW_SUM_TOL)
        k = len(mat)
        if mat and mat[-1] != [0.0] * (k - 1) + [1.0]:
            problems.append(f"{path.name}: last row is not the absorbing e_K")
    last = out / "mean_t1.csv"
    if last.exists():
        ref = _matrix(workdir / "reference_1y.csv")
        gap = max(abs(x - y) for r, s in zip(_matrix(last), ref) for x, y in zip(r, s))
        if gap > MEAN_REFERENCE_TOL:
            problems.append(f"mean_t1.csv: max distance {gap:.3g} from reference_1y.csv")
    else:
        problems.append("mean_t1.csv missing")
    return problems


def _check_ssa(wl: Workload, out: Path, workdir: Path) -> list[str]:
    problems = []
    occ = sorted(out.glob("occupancy_t*.csv"))
    if len(occ) != len(CHECKPOINT_TIMES):
        problems.append(f"expected {len(CHECKPOINT_TIMES)} occupancy files, found {len(occ)}")
    for path in occ:
        problems += _check_stochastic_rows(path.name, _matrix(path), OCCUPANCY_ROW_SUM_TOL)
    err = json.loads((out / "run_summary.json").read_text()).get(
        "simulation_error_t_horizon")
    if not isinstance(err, (int, float)) or not err <= SSA_ERROR_MAX:
        problems.append(f"simulation_error_t_horizon {err!r} exceeds {SSA_ERROR_MAX}")
    return problems


def _check_xva(wl: Workload, out: Path, workdir: Path) -> list[str]:
    problems = []
    rows = _rows(out / "xva_report.csv")
    body = {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
    if set(body) != {"none", "perfect", "triggers"}:
        return [f"xva_report.csv: regimes {sorted(body)}"]
    m = int(wl.config["xva.m"])
    for name, rec in body.items():
        cva, dva, bva = (float(rec[c]) for c in ("cva", "dva", "bva"))
        if bva != dva - cva:
            problems.append(f"{name}: bva {bva!r} != dva - cva {dva - cva!r}")
        counts = sum(int(rec[c]) for c in ("defaults_bank_first", "defaults_cpty_first",
                                           "defaults_simultaneous", "no_default"))
        if counts != m or int(rec["m"]) != m:
            problems.append(f"{name}: default counts sum to {counts}, expected m={m}")
    for col in ("cva", "dva"):
        p, t, n = (float(body[r][col]) for r in ("perfect", "triggers", "none"))
        if not p <= t <= n:
            problems.append(f"{col} not ordered perfect <= triggers <= none: {p}, {t}, {n}")
    return problems


def _check_calibrate(wl: Workload, out: Path, workdir: Path) -> list[str]:
    problems = []
    summary = json.loads((out / "run_summary.json").read_text())
    if summary.get("converged") is not True:
        problems.append(f"converged is {summary.get('converged')!r}")
    sse = summary.get("sse")
    if not isinstance(sse, (int, float)) or not sse <= RN_SSE_MAX:
        problems.append(f"sse {sse!r} exceeds {RN_SSE_MAX}")
    h = [float(row[1]) for row in _rows(out / "rn_result.csv")[1:]]
    if not h or not all(math.isfinite(x) for x in h):
        problems.append(f"h is not finite: {h}")
    return problems


_CHECKS = {
    "simulate": _check_simulate,
    "ssa": _check_ssa,
    "xva": _check_xva,
    "calibrate": _check_calibrate,
}


def check_outputs(wl: Workload, out: Path, workdir: Path) -> list[str]:
    """Every problem found in one op's artifacts; empty when all checks pass."""
    try:
        return _check_finite(out) + _CHECKS[wl.name](wl, out, workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
