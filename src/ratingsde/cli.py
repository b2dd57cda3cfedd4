"""Command-line interface.

Subcommands: reconstruct, calibrate-hist, calibrate-rn, simulate, ssa,
xva, report.  Global flags: --config PATH, --seed N (overrides config),
--out DIR, --threads N (every simulating command runs its matrix
trajectories on up to N worker threads, at most one per chunk and per
core: simulate, ssa and xva in chunks of 256, the calibrations in one part
per worker; no output depends on N).  Exit codes: 0 success, 1 validation,
2 numerical failure, 3 I/O.

All outputs are deterministic functions of (config, seed); wall-clock
timings and non-convergence warnings go to stderr only so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (RN_BOUNDS, HistCalibrationSpec, PdTargets, calibrate_historical,
                        calibrate_risk_neutral, coordinate_labels,
                        property_report)
from .cohort import (CohortMatrix, RepairOutputs, WeightMatrix, cohort_fault,
                     proportional_weights, reconstruction_fault, repair, uniform_weights,
                     weight_fault)
from .config import RunConfig
from .ctmc import simulate_nested_paths, simulation_error
from .errors import NumericalError, RatingSdeError, ValidationError
from .lie import n_coords
from .matio import (read_params_csv, read_pd_csv, read_rating_csv,
                    write_params_csv, write_rating_csv)
from .sde import (SdeParams, _chunk_buffers, _require_finite, mean_matrix,
                  simulate_paths_threaded, var_matrix)
from .svgplot import (_FAN_PATHS, entry_histograms, occupancy_plot, predefault_bars,
                      trajectory_fans)
from .xva import (CsaTerms, perfect_terms, posting_indices, predefault_distribution,
                  simulate_xva_paths, uncollateralized_terms, xva_by_regime)


class _Parser(argparse.ArgumentParser):
    """argparse with validation-style exit code (1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ratingsde",
                     description="Rating-matrix SDE calibration, simulation and XVA.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("reconstruct", "repair a cohort matrix and emit the adjustment artifacts"),
        ("calibrate-hist", "fit (a, b, sigma) to the repaired matrix and its uncertainty"),
        ("calibrate-rn", "fit the measure-change vector h to default probabilities"),
        ("simulate", "simulate matrix trajectories and property diagnostics"),
        ("ssa", "nested rating-path sampling and occupancy diagnostics"),
        ("xva", "portfolio, collateral and CVA/DVA/BVA report"),
        ("report", "summarize a completed run directory"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=(name != "report"),
                       help="path to the run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=_thread_count, default=1,
                       help="worker threads for the matrix trajectories (at most "
                            "one per chunk and per core; outputs do not depend on it)")
    return parser


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load(args) -> tuple[RunConfig, Path]:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg.values["seed"] = str(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _config_hash(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(cfg.values.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_summary(out: Path, command: str, cfg: RunConfig, outputs: list[str],
                   extra: dict | None = None) -> None:
    record = {
        "command": command,
        "config_sha256": _config_hash(cfg),
        "outputs": sorted(outputs),
        "seed": cfg.seed(),
        "version": __version__,
    }
    if extra:
        record.update(extra)
    (out / "run_summary.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")


def _read_rated(cfg: RunConfig, key: str, read=read_rating_csv,
                required: bool = True) -> np.ndarray | None:
    """The values `read` takes from the rating-indexed CSV that config key
    `key` names, whose rows must carry the configured labels in order;
    None if the key is unset and not required."""
    path = cfg.get_path(key, required=required)
    if path is None:
        return None
    labels, values = read(path)
    if labels != cfg.labels():
        raise ValidationError(f"{cfg.source}: {key}: {path} has labels {labels}, "
                              f"expected the configured labels {cfg.labels()}")
    return values


def _weights(cfg: RunConfig, cohort: CohortMatrix) -> WeightMatrix:
    kind = cfg.get_str("weights.kind", "uniform")
    if kind == "uniform":
        return uniform_weights(cohort.k)
    if kind == "proportional":
        return proportional_weights(cohort)
    if kind == "file":
        return WeightMatrix(_read_rated(cfg, "weights.file",
                                        partial(read_rating_csv, check=weight_fault)))
    raise ValidationError(f"weights.kind must be uniform|proportional|file, got {kind!r}")


def _repair(cfg: RunConfig) -> RepairOutputs:
    """The repair artifacts of the cohort, with the injected reconstruction
    of `paths.reconstructed` if one is given."""
    cohort = CohortMatrix(k=cfg.k, entries=_read_rated(
        cfg, "paths.cohort", partial(read_rating_csv, check=cohort_fault)))
    return repair(cohort, _weights(cfg, cohort), reconstructed=_read_rated(
        cfg, "paths.reconstructed", partial(read_rating_csv, check=reconstruction_fault),
        required=False))


def _read_params(cfg: RunConfig):
    path = cfg.get_path("paths.params", required=True)
    labels, a, b, sigma = read_params_csv(path)
    expected = coordinate_labels(cfg.k)
    if labels != expected:
        raise ValidationError(
            f"{path}: coordinate labels {labels} are not the canonical order {expected}")
    return SdeParams(k=cfg.k, a=a, b=b, sigma=sigma)


def _require_allocatable(cfg: RunConfig, keys: str, *arrays: tuple[int, ...]) -> None:
    """Reject, before anything is drawn, a run whose largest array does not
    fit in this machine's physical memory.  Each array is a tuple of its
    dimensions and its item size in bytes; `keys` names the config keys
    that size them."""
    nbytes = max(math.prod(a) for a in arrays)
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):     # no sysconf: numpy's limit
        limit = np.iinfo(np.intp).max
    if nbytes > limit:
        raise ValidationError(
            f"{cfg.source}: {keys} ask for an array of {nbytes} bytes, more "
            f"than the {limit} bytes of memory on this machine")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_reconstruct(args) -> int:
    cfg, out = _load(args)
    artifacts = _repair(cfg)
    files = {
        "reconstructed.csv": artifacts.reconstructed,
        "distance.csv": artifacts.distance,
        "adjusted.csv": artifacts.adjusted,
        "uncertainty.csv": artifacts.uncertainty,
    }
    for name, entries in files.items():
        write_rating_csv(out / name, cfg.labels(), entries)
    _write_summary(out, "reconstruct", cfg, list(files))
    return 0


def _warn_unconverged(command: str, result) -> None:
    if not result.converged:
        print(f"ratingsde: warning: {command} did not converge "
              f"(iterations {result.iterations}, sse {result.sse:.3g})",
              file=sys.stderr)


def _cmd_calibrate_hist(args) -> int:
    cfg, out = _load(args)
    targets = _repair(cfg)
    m, grid = cfg.get_count("hist.m", 1000, 1), cfg.grid()
    _require_allocatable(cfg, "hist.m and grid.steps_per_year",
                         (m, grid.steps, n_coords(cfg.k), 8))
    spec = HistCalibrationSpec(
        target_rec=targets.reconstructed, target_adj=targets.adjusted, seed=cfg.seed(),
        w1=cfg.get_float("hist.w1", 1.0), w2=cfg.get_float("hist.w2", 1.0),
        m=m, grid=grid,
        bound_lo=cfg.get_float("hist.bound_lo", 0.0),
        bound_hi=cfg.get_float("hist.bound_hi", 3.0),
    )
    result = calibrate_historical(spec, max_iter=cfg.get_count("hist.max_iter", 60, 1),
                                  threads=args.threads)
    _warn_unconverged("calibrate-hist", result)
    write_params_csv(out / "params.csv", coordinate_labels(cfg.k),
                     result.params.a, result.params.b, result.params.sigma)
    _write_summary(out, "calibrate-hist", cfg, ["params.csv"], extra={
        "converged": result.converged,
        "iterations": result.iterations,
        "sse": result.sse,
    })
    return 0


def _cmd_calibrate_rn(args) -> int:
    cfg, out = _load(args)
    params = _read_params(cfg)
    pds = _read_rated(cfg, "paths.pd_targets", read_pd_csv)
    kind = cfg.get_str("measure.kind", required=True)
    m, grid = cfg.get_count("rn.m", 1000, 1), cfg.grid()
    _require_allocatable(cfg, "rn.m and grid.steps_per_year",
                         (m, grid.steps, n_coords(cfg.k), 8))
    if kind not in RN_BOUNDS:
        raise ValidationError(f"{cfg.source}: measure.kind must be one of "
                              f"{tuple(RN_BOUNDS)} for calibrate-rn, got {kind!r}")
    result = calibrate_risk_neutral(params, kind, PdTargets(pds), grid=grid,
                                    m=m, seed=cfg.seed(), threads=args.threads)
    _warn_unconverged("calibrate-rn", result)
    lines = ["rating,h"]
    lines += [f"{lab},{format(hv, '.17g')}" for lab, hv in zip(cfg.labels(), result.h)]
    (out / "rn_result.csv").write_text("\n".join(lines) + "\n")
    _write_summary(out, "calibrate-rn", cfg, ["rn_result.csv"], extra={
        "converged": result.converged,
        "iterations": result.iterations,
        "kind": kind,
        "sse": result.sse,
    })
    return 0


def _fmt_time(t: float) -> str:
    return format(t, ".6g")


def _cmd_simulate(args) -> int:
    cfg, out = _load(args)
    params = _read_params(cfg)
    grid = cfg.grid()
    k = cfg.k
    m = cfg.get_count("sim.m", 1000, 2)         # var_matrix needs two
    checkpoints = [float(t) for t in cfg.checkpoints()]
    # the histograms read R_T, the fans every R_k of the leading paths
    keep_times = checkpoints + [grid.horizon]
    # the kept matrices, the fans' matrix paths and the workers' chunk buffers
    _require_allocatable(cfg, "sim.m and grid.steps_per_year",
                         (m, len(keep_times), k, k, 8),
                         (min(m, _FAN_PATHS), grid.steps + 1, k, k, 8),
                         (*_chunk_buffers(m, args.threads, grid.steps, k), 8))
    bundle = simulate_paths_threaded(params, cfg.measure(), grid, m, cfg.seed(),
                                     keep_times=keep_times, keep_paths=_FAN_PATHS,
                                     threads=args.threads)
    labels = cfg.labels()
    outputs = []
    for t in checkpoints:
        tag = _fmt_time(t)
        for stem, entries in (("mean", mean_matrix(bundle, t)),
                              ("var", var_matrix(bundle, t))):
            name = f"{stem}_t{tag}.csv"
            write_rating_csv(out / name, labels, entries)
            outputs.append(name)

    report = property_report(bundle, checkpoints)
    lines = ["property,checkpoint,violation_fraction,worst_violation,offending"]
    for prop, stats in report.all_stats().items():
        for st in stats:
            cp = (f"{_fmt_time(st.checkpoint[0])}->{_fmt_time(st.checkpoint[1])}"
                  if isinstance(st.checkpoint, tuple) else _fmt_time(st.checkpoint))
            off = ";".join(f"{k}:{format(v, '.6g')}"
                           for k, v in sorted(st.offending.items()))
            lines.append(f"{prop},{cp},{format(st.violation_fraction, '.17g')},"
                         f"{format(st.worst_violation, '.17g')},{off}")
    (out / "property_report.csv").write_text("\n".join(lines) + "\n")
    outputs.append("property_report.csv")

    (out / "trajectories.svg").write_text(
        trajectory_fans(grid.times, bundle.rpaths, labels))
    (out / "histograms.svg").write_text(
        entry_histograms(bundle.matrices_at(grid.horizon), labels))
    outputs += ["trajectories.svg", "histograms.svg"]
    _write_summary(out, "simulate", cfg, outputs)
    return 0


def _cmd_ssa(args) -> int:
    cfg, out = _load(args)
    params = _read_params(cfg)
    grid = cfg.grid()
    labels = cfg.labels()
    k = cfg.k
    m1 = cfg.get_count("sim.m1", 100, 1)
    m2 = cfg.get_count("sim.m2", 1000, 1)
    # the workers' chunk buffers and the per-trajectory outputs
    _require_allocatable(cfg, "sim.m1, sim.m2 and grid.steps_per_year",
                         (*_chunk_buffers(m1, args.threads, grid.steps, k), 8),
                         (m1, m2, 8),
                         (m1, grid.steps + 1, k, 8))
    initial = cfg.get_floats("ssa.initial")
    if initial is not None and (
            initial.size == 0 or np.any(initial != np.round(initial))
            or np.any((initial < 1) | (initial > k))
            or len(set(initial.tolist())) != initial.size):
        raise ValidationError(f"{cfg.source}: ssa.initial must list distinct integer "
                              f"ratings in 1..{k}, got {initial.tolist()}")
    i0_list = (list(range(1, k)) if initial is None
               else [int(i) for i in initial])
    bundle, nested = simulate_nested_paths(params, cfg.measure(), grid, m1, m2,
                                           i0_list, cfg.seed(), threads=args.threads)
    # occupancy frequencies (N+1, K) per initial rating, counted from the jump events
    freqs = {i0: paths.occupancy.sum(0) / (m1 * m2) for i0, paths in nested.items()}
    # the sampled ratings' rows and the absorbing row, in rating order
    rows = sorted({i0 - 1 for i0 in i0_list} | {k - 1})
    outputs = []
    for t in cfg.checkpoints():
        idx = grid.index_of(float(t))
        emp = np.zeros((k, k))
        emp[k - 1, k - 1] = 1.0
        for i0, freq in freqs.items():
            emp[i0 - 1] = freq[idx]
        name = f"occupancy_t{_fmt_time(float(t))}.csv"
        write_rating_csv(out / name, labels, emp, rows=rows)
        outputs.append(name)

    err = simulation_error(bundle, nested, grid.horizon)
    for i0, freq in freqs.items():
        name = f"occupancy_{labels[i0 - 1]}.svg"
        (out / name).write_text(
            occupancy_plot(grid.times, freq, labels, labels[i0 - 1]))
        outputs.append(name)

    dist = predefault_distribution(
        {i0: paths.predefault for i0, paths in nested.items()}, k)
    write_rating_csv(out / "predefault.csv", labels, dist.matrix)
    (out / "predefault.svg").write_text(predefault_bars(dist.matrix, labels))
    outputs += ["predefault.csv", "predefault.svg"]
    _write_summary(out, "ssa", cfg, outputs, extra={
        "simulation_error_t_horizon": err,
        "total_defaults": dist.total_defaults,
    })
    return 0


def _regimes(terms: CsaTerms) -> dict:
    k = terms.k
    return {
        "none": uncollateralized_terms(k, terms.lgd_bank, terms.lgd_cpty,
                                       terms.postings_per_year),
        "perfect": perfect_terms(k, terms.lgd_bank, terms.lgd_cpty,
                                 terms.postings_per_year),
        "triggers": terms,
    }


def _cmd_xva(args) -> int:
    cfg, out = _load(args)
    params = _read_params(cfg)
    grid = cfg.grid()
    m = cfg.get_count("xva.m", 10000, 2)        # the standard errors need two
    terms = cfg.csa_terms()
    bank, cpty = cfg.rating("xva.bank_rating", 1), cfg.rating("xva.cpty_rating", 2)
    # posting dates off the grid are rejected before anything is drawn
    posting_indices(grid, terms.postings_per_year)
    _require_allocatable(cfg, "xva.m and grid.steps_per_year", (m, grid.steps + 1, 8),
                         (*_chunk_buffers(m, args.threads, grid.steps, cfg.k), 8))
    portfolio = cfg.portfolio()
    # draw_components holds 13.1 words per component (tracemalloc, n = 10^6)
    _require_allocatable(cfg, "portfolio.n", (portfolio.n + 1, 14, 8))
    paths = simulate_xva_paths(params, cfg.measure(), grid, m, portfolio, cfg.seed(),
                               bank_rating=bank, cpty_rating=cpty, threads=args.threads)
    _require_finite(paths.v, "portfolio values")
    results = xva_by_regime(paths, _regimes(terms))
    for name, r in results.items():
        _require_finite(np.array([r.cva, r.dva, r.bva]), f"{name} CVA/DVA/BVA values")
    lines = ["regime,cva,dva,bva,cva_se,dva_se,bva_se,"
             "defaults_bank_first,defaults_cpty_first,defaults_simultaneous,no_default,m"]
    for name in ("none", "perfect", "triggers"):
        r = results[name]
        nums = [r.cva, r.dva, r.bva, r.cva_se, r.dva_se, r.bva_se]
        lines.append(",".join(
            [name, *(format(v, ".17g") for v in nums),
             str(r.defaults_bank_first), str(r.defaults_cpty_first),
             str(r.defaults_simultaneous), str(r.no_default), str(r.m)]))
    (out / "xva_report.csv").write_text("\n".join(lines) + "\n")

    k = cfg.k
    # parties that start at one rating count in one row
    dist = predefault_distribution(
        {bank: np.concatenate([paths.predefault_b, paths.predefault_c])}
        if bank == cpty else {bank: paths.predefault_b, cpty: paths.predefault_c}, k)
    write_rating_csv(out / "predefault.csv", cfg.labels(), dist.matrix)
    _write_summary(out, "xva", cfg, ["xva_report.csv", "predefault.csv"],
                   extra={"total_defaults": dist.total_defaults})
    return 0


_REPORT_SECTIONS = {
    "reconstruction": ["reconstructed.csv", "distance.csv", "adjusted.csv"],
    "historical calibration": ["params.csv"],
    "risk-neutral calibration": ["rn_result.csv"],
    "simulation diagnostics": ["property_report.csv"],
    "rating paths": ["predefault.csv"],
    "xva": ["xva_report.csv"],
}


def _cmd_report(args) -> int:
    run_dir = Path(args.config) if args.config else Path(args.out)
    if not run_dir.is_dir():
        raise ValidationError(f"run directory {run_dir} does not exist")
    lines = [f"ratingsde run report: {run_dir.name}", ""]
    found_any = False
    for section, files in _REPORT_SECTIONS.items():
        present = [f for f in files if (run_dir / f).exists()]
        lines.append(f"== {section} ==")
        if not present:
            lines.append("  absent")
            lines.append("")
            continue
        found_any = True
        for f in present:
            lines.append(f"  {f}:")
            for row in (run_dir / f).read_text().splitlines():
                lines.append(f"    {row}")
        lines.append("")
    if not found_any:
        expected = sorted({f for fs in _REPORT_SECTIONS.values() for f in fs})
        raise ValidationError(
            f"{run_dir} holds no run artifacts; expected any of: {', '.join(expected)}")
    (run_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "reconstruct": _cmd_reconstruct,
    "calibrate-hist": _cmd_calibrate_hist,
    "calibrate-rn": _cmd_calibrate_rn,
    "simulate": _cmd_simulate,
    "ssa": _cmd_ssa,
    "xva": _cmd_xva,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"ratingsde: validation error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"ratingsde: numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ratingsde: i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"ratingsde: error: out of memory{detail}", file=sys.stderr)
        return 1
    except RatingSdeError as exc:
        print(f"ratingsde: error: {exc}", file=sys.stderr)
        return 1
    print(f"ratingsde {args.command}: {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
