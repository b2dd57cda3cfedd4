"""Paper-size benchmark of the ratingsde command-line interface.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): simulate, ssa, xva, calibrate.  The package
is imported from ./src and each op is one CLI command run in-process
through ``ratingsde.cli.main``; a closed loop issues one op at a time and
starts another while the run's time budget allows it.  Every op's
artifacts are checked and must hash identically across the ops of a run.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced ops and reports the per-layer split of the traced ones (see
spans.py).  Each run prints every metric with its unit, a `record` line
with machine facts, the git commit and the src/ line count, and last a
JSON line {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

# name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "op_cpu_s": "s",
    "units_per_s": "unit/s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

# name -> unit, for --trace 1
PER_LAYER = {
    "lie.expm_batch.self_s": "s",
    "lie.expm_batch.matrices": "count",
    "lie.coeffs_to_matrices.self_s": "s",
    "sde.draw_noise.self_s": "s",
    "sde.draw_noise.streams": "count",
    "sde.step.self_s": "s",
    "sde.step.traj_steps": "count",
    "sde.executor.self_s": "s",
    "sde.executor.chunks": "count",
    "ctmc.ssa.self_s": "s",
    "ctmc.ssa.paths": "count",
    "ctmc.ssa.defaults": "count",
    "ctmc.piecewise_generators.self_s": "s",
    "ctmc.sample_from_bundle.self_s": "s",
    "ctmc.diagnostics.self_s": "s",
    "xva.simulate_portfolio.self_s": "s",
    "xva.compute_xva.self_s": "s",
    "xva.compute_xva.calls": "count",
    "xva.glue.self_s": "s",
    "calibrate.residual.self_s": "s",
    "calibrate.residual.calls": "count",
    "calibrate.solver.self_s": "s",
    "calibrate.nfev": "count",
    "calibrate.property_report.self_s": "s",
    "svgplot.self_s": "s",
    "svgplot.bytes": "B",
    "matio.self_s": "s",
    "cli.self_s": "s",
    "trace.covered_frac": "1",
    "trace.overhead_frac": "1",
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    traced: bool
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def _import_cli():
    """Import ratingsde.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "ratingsde" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'ratingsde'} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ratingsde.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported ratingsde from {cli.__file__}, not {SRC}")
    return cli


def _setup_once(wl, seed: int, inputs: Path) -> float:
    """A CLI user's set-up: a fresh interpreter importing ratingsde.cli
    (numpy and scipy included), plus writing the generated inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ratingsde.cli"], env=env,
                   cwd=ROOT, check=True, timeout=120)
    workloads.write_inputs(wl, seed, inputs)
    return time.perf_counter() - t0


def _layer_metrics(tracer: Tracer, op_wall: float, out: Path) -> dict[str, float]:
    """PER_LAYER values of one traced op (trace.overhead_frac is set per run)."""
    totals = tracer.layer_totals()
    row = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        row[name] = totals.get(layer, {}).get(key, 0)
    row["sde.executor.chunks"] = tracer.child_count("sde.executor", "sde.step")
    summary = json.loads((out / "run_summary.json").read_text())
    if summary.get("command") == "calibrate-rn":
        row["calibrate.nfev"] = summary["iterations"]
    covered = sum(v["self_s"] for layer, v in totals.items() if layer != "cli")
    row["trace.covered_frac"] = covered / op_wall
    return row


def run_op(cli, wl, workdir: Path, out: Path, tracer: Tracer | None) -> Op:
    """One CLI command, timed, then checked."""
    argv = wl.argv(workdir, out)
    stderr = io.StringIO()
    code, crash = None, None
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    with ctx, contextlib.redirect_stderr(stderr):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                sid = tracer.open("cli")
                try:
                    code = cli.main(argv)
                finally:
                    tracer.close(sid)
            else:
                code = cli.main(argv)
        except Exception:  # an op that crashes counts as failed; keep measuring
            crash = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if crash is not None:
        problems = [f"crashed:\n{crash}"]
    elif code != 0:
        problems = [f"exit code {code}: {stderr.getvalue().strip()}"]
    else:
        problems = workloads.check_outputs(wl, out, workdir)
    op = Op(wall, cpu, tracer is not None, problems)
    if tracer is not None:
        if not problems:
            op.layers = _layer_metrics(tracer, wall, out)
        tracer.clear()
    return op


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def measure(cli, wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run the closed loop for `seconds`, and reduce to metrics."""
    inputs = workdir / "inputs"
    setups = []
    if trace:
        workloads.write_inputs(wl, seed, inputs)
    else:
        setups = [_setup_once(wl, seed, inputs) for _ in range(SETUP_REPEATS)]

    # Finish lazy imports and fill caches on a tiny input; not counted.
    tiny = workloads.workload(wl.name, tiny=True)
    workloads.write_inputs(tiny, seed, workdir / "warmup")
    run_op(cli, tiny, workdir / "warmup", workdir / "warmup" / "out", None)

    tracer = Tracer() if trace else None
    ops: list[Op] = []
    first_digest = None
    start = time.perf_counter()
    while True:
        use_tracer = tracer if trace and len(ops) % 2 == 1 else None
        out = workdir / f"op{len(ops)}"
        op = run_op(cli, wl, inputs, out, use_tracer)
        if not op.problems:
            d = workloads.digest(out)
            first_digest = first_digest or d
            if d != first_digest:
                op.problems.append("artifact digest differs from the run's first op")
        shutil.rmtree(out, ignore_errors=True)
        ops.append(op)
        for p in op.problems:
            print(f"perfbench: op {len(ops) - 1} failed: {p}", file=sys.stderr)
        # Start another op only if it should end nearer to `seconds` than
        # stopping now does, so a run lasts about `seconds` on average.
        elapsed = time.perf_counter() - start
        typical = statistics.median(o.wall_s for o in ops)
        if elapsed + typical / 2 > seconds and (not trace or len(ops) >= 2):
            break

    failed = sum(1 for o in ops if o.problems)
    plain = [o for o in ops if not o.traced]
    walls = [o.wall_s for o in plain]
    if trace:
        traced = [o for o in ops if o.traced and not o.problems]
        metrics = {name: statistics.median(o.layers[name] for o in traced)
                   if traced else 0.0 for name in PER_LAYER
                   if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(o.wall_s for o in traced) / statistics.median(walls) - 1
            if traced else 0.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_wall_s": statistics.median(walls),
            "op_cpu_s": statistics.median(o.cpu_s for o in plain),
            "units_per_s": wl.units * len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END
    return {
        "ops": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli = _import_cli()
    wl = workloads.workload(args.workload, tiny=tiny)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        result = measure(cli, wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    ops = result["ops"]
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    record = {
        "workload": wl.name,
        "command": wl.argv(Path("<inputs>"), Path("<out>")),
        "config": wl.config_text(args.seed).splitlines(),
        "units_per_op": wl.units,
        "unit": wl.unit_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "op_wall_s": [round(o.wall_s, 6) for o in ops],
        "op_traced": [o.traced for o in ops],
        "percentile_note": "op_wall_s is the median: a run holds too few ops "
                           "for a tail percentile with ten samples beyond it",
        "machine": _machine(),
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(ops),
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
