"""Historical and risk-neutral calibration, plus rating-property diagnostics.

Historical calibration fits the per-coordinate (a, b, sigma) triples so
that the simulated mean matrix at one year matches the repaired matrix
and the simulated variance matches the two-point uncertainty target.
Risk-neutral calibration then fits the measure-change vector h so that
the simulated default column matches market default probabilities.

Both objectives freeze the Brownian tensor once per calibration (common
random numbers), which makes the least-squares problems noise-free and
deterministic across optimizer iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .lie import basis_index_map, n_coords
from .sde import (MatrixPathBundle, MeasureChange, SdeParams, TimeGrid,
                  default_grid, draw_noise, simulate_terminal, HISTORICAL,
                  _require_finite)

DEFAULT_BOUND_HI = 3.0
DEFAULT_START = (1.5, 0.1, 0.05)   # (a, b, sigma) uniform starting point
FD_REL_STEP = 1e-6
LM_LAMBDA0 = 1e-3
# Box for the free entries of h, which all start at 1; the ratio kind
# needs h_i > 0.
RN_BOUNDS = {"jlt": (-1e4, 1e4), "exponential": (1e-6, 1e4)}
# Slack before a rating-matrix property counts as violated.
PROPERTY_TOL = 1e-12


@dataclass(frozen=True)
class PdTargets:
    """Default probabilities per starting rating at the calibration horizon."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValidationError("PD targets must be a vector of length K >= 2")
        if np.any(v < 0) or np.any(v > 1):
            raise ValidationError("PD targets must lie in [0, 1]")
        if v[-1] != 1.0:
            raise ValidationError("the defaulted state must have PD 1")

    @property
    def k(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class HistCalibrationSpec:
    """Targets and settings for the historical least-squares fit."""

    target_rec: np.ndarray         # repaired matrix at t = horizon
    target_adj: np.ndarray         # adjusted matrix at t = horizon
    seed: int
    w1: float = 1.0
    w2: float = 1.0
    m: int = 1000
    grid: TimeGrid = field(default_factory=default_grid)
    bound_lo: float = 0.0
    bound_hi: float = DEFAULT_BOUND_HI

    def __post_init__(self):
        rec = np.asarray(self.target_rec, dtype=float)
        adj = np.asarray(self.target_adj, dtype=float)
        object.__setattr__(self, "target_rec", rec)
        object.__setattr__(self, "target_adj", adj)
        if rec.ndim != 2 or rec.shape[0] != rec.shape[1] or rec.shape != adj.shape:
            raise ValidationError("targets must be square matrices of equal shape")
        if self.w1 <= 0 or self.w2 <= 0:
            raise ValidationError("weights must be positive")
        if not (0 <= self.bound_lo <= self.bound_hi):
            raise ValidationError("bounds must satisfy 0 <= lo <= hi")

    @property
    def k(self) -> int:
        return self.target_rec.shape[0]

    @property
    def variance_target(self) -> np.ndarray:
        return (self.target_rec - self.target_adj) ** 2


def hist_residual(params: SdeParams, spec: HistCalibrationSpec,
                  noise: np.ndarray) -> np.ndarray:
    """Stacked residual [w1*(mean - rec), w2*(var - variance target)], row-major,
    on the frozen noise of the calibration."""
    if params.k != spec.k:
        raise ValidationError(f"params k={params.k} but spec k={spec.k}")
    rt = simulate_terminal(params, HISTORICAL, spec.grid, noise)
    mean = rt.mean(axis=0)
    var = rt.var(axis=0, ddof=1) if len(rt) > 1 else np.zeros_like(mean)
    f1 = (mean - spec.target_rec).ravel()
    f2 = (var - spec.variance_target).ravel()
    return np.concatenate([spec.w1 * f1, spec.w2 * f2])


@dataclass
class HistCalibrationResult:
    params: SdeParams
    sse: float
    iterations: int
    converged: bool


def _levenberg_marquardt(fun, x0, lo, hi, max_iter=60, sse_tol=1e-14,
                         step_tol=1e-10, rel_tol=1e-3, max_rejects=12):
    """Bounded Levenberg-Marquardt with a forward-difference Jacobian.

    Trial points are clipped to the box; the finite-difference step flips
    direction at the upper bound.  Stops when the SSE falls below sse_tol,
    the step below step_tol, or an accepted step improves the SSE by less
    than the relative factor rel_tol.  Raises NumericalError if the
    residual at the (clipped) start point or its sum of squares is not
    finite.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    _require_finite(r, "residuals at the start point")
    with np.errstate(over="ignore"):
        sse = float(r @ r)
    if not np.isfinite(sse):
        raise NumericalError("the sum of squared residuals at the start point overflows")
    lam = LM_LAMBDA0
    n = x.size
    iterations = 0
    converged = False

    for _ in range(max_iter):
        iterations += 1
        jac = np.empty((r.size, n))
        for i in range(n):
            h = FD_REL_STEP * max(abs(x[i]), 1.0)
            if x[i] + h > hi[i]:
                h = -h
            xp = x.copy()
            xp[i] = np.clip(x[i] + h, lo[i], hi[i])
            dh = xp[i] - x[i]
            if dh == 0.0:
                jac[:, i] = 0.0
                continue
            jac[:, i] = (fun(xp) - r) / dh

        jtj = jac.T @ jac
        g = jac.T @ r
        accepted = False
        for _ in range(max_rejects):
            try:
                step = np.linalg.solve(jtj + lam * np.eye(n), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(x + step, lo, hi)
            rt = fun(trial)
            sse_t = float(rt @ rt)
            if sse_t < sse:
                move = np.linalg.norm(trial - x)
                improvement = 1.0 - sse_t / sse
                x, r, sse = trial, rt, sse_t
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if sse < sse_tol or move < step_tol or improvement < rel_tol:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            converged = sse < sse_tol
            break
        if converged:
            break
    return x, sse, iterations, converged


def calibrate_historical(spec: HistCalibrationSpec,
                         start: SdeParams | None = None,
                         max_iter: int = 60) -> HistCalibrationResult:
    """Fit (a, b, sigma) per coordinate by bounded Levenberg-Marquardt."""
    nc = n_coords(spec.k)
    if start is None:
        a0, b0, s0 = DEFAULT_START
        start = SdeParams(k=spec.k, a=np.full(nc, a0), b=np.full(nc, b0),
                          sigma=np.full(nc, s0))
    noise = draw_noise(spec.k, spec.grid, spec.m, spec.seed)

    def fun(p):
        return hist_residual(SdeParams.from_stacked(spec.k, p), spec, noise)

    lo = np.full(3 * nc, spec.bound_lo)
    hi = np.full(3 * nc, spec.bound_hi)
    x, sse, iterations, converged = _levenberg_marquardt(
        fun, start.stacked(), lo, hi, max_iter=max_iter)
    return HistCalibrationResult(
        params=SdeParams.from_stacked(spec.k, x), sse=sse,
        iterations=iterations, converged=converged)


def _measure_for(kind: str, h_free: np.ndarray) -> MeasureChange:
    if kind == "historical":
        return HISTORICAL
    return MeasureChange(kind=kind, h=np.append(np.asarray(h_free, dtype=float), 1.0))


def rn_residual(h_free: np.ndarray, params: SdeParams, kind: str,
                targets: PdTargets, grid: TimeGrid, noise: np.ndarray) -> np.ndarray:
    """Mean simulated default column at the horizon minus the PD targets,
    on the frozen noise of the calibration."""
    if targets.k != params.k:
        raise ValidationError(f"targets have length {targets.k}, expected {params.k}")
    rt = simulate_terminal(params, _measure_for(kind, h_free), grid, noise)
    return rt[:, :, -1].mean(axis=0) - targets.values


@dataclass
class RnCalibrationResult:
    h: np.ndarray            # full length-K vector, last entry 1
    sse: float
    iterations: int
    converged: bool


def calibrate_risk_neutral(params: SdeParams, kind: str, targets: PdTargets,
                           grid: TimeGrid | None = None, m: int = 1000,
                           seed: int = 0) -> RnCalibrationResult:
    """Fit the K-1 free entries of h by bounded Levenberg-Marquardt, from
    h = 1 within RN_BOUNDS[kind].

    The SDE parameters stay fixed at their historical values; only the
    drift shift varies.  Raises NumericalError if the residual at the
    start point is not finite.
    """
    if kind not in RN_BOUNDS:
        raise ValidationError(f"calibratable kinds are 'jlt' and 'exponential', got {kind!r}")
    grid = grid or default_grid()
    k = params.k
    noise = draw_noise(k, grid, m, seed)
    lo, hi = RN_BOUNDS[kind]
    x, sse, iterations, converged = _levenberg_marquardt(
        lambda h: rn_residual(h, params, kind, targets, grid, noise),
        np.ones(k - 1), np.full(k - 1, lo), np.full(k - 1, hi))
    return RnCalibrationResult(h=np.append(x, 1.0), sse=sse,
                               iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# Rating-property diagnostics


@dataclass(frozen=True)
class PropertyStat:
    """Violation statistics for one property at one checkpoint (or pair)."""

    checkpoint: float | tuple[float, float]
    violation_fraction: float
    worst_violation: float
    offending: dict[str, float]    # label -> per-pair violation fraction


@dataclass(frozen=True)
class PropertyReport:
    diagonal_dominance: list[PropertyStat]      # R_ii >= sum_{j != i} R_ij
    downgrade_dominance: list[PropertyStat]     # upper-triangular mass >= lower
    monotone_default_column: list[PropertyStat]
    decreasing_diagonal: list[PropertyStat]     # across consecutive checkpoints

    def all_stats(self) -> dict[str, list[PropertyStat]]:
        return {
            "diagonal_dominance": self.diagonal_dominance,
            "downgrade_dominance": self.downgrade_dominance,
            "monotone_default_column": self.monotone_default_column,
            "decreasing_diagonal": self.decreasing_diagonal,
        }


def _stat(checkpoint, violations: np.ndarray, magnitudes: np.ndarray,
          labels: list[str]) -> PropertyStat:
    """violations: (M, P) bool per trajectory per labelled pair."""
    per_pair = violations.mean(axis=0)
    offending = {lab: float(fr) for lab, fr in zip(labels, per_pair) if fr > 0}
    any_viol = violations.any(axis=1)
    worst = float(magnitudes.max(initial=0.0))
    return PropertyStat(checkpoint=checkpoint,
                        violation_fraction=float(any_viol.mean()),
                        worst_violation=worst, offending=offending)


def property_report(bundle: MatrixPathBundle, checkpoints: list[float]) -> PropertyReport:
    """Evaluate the four rating-matrix properties pathwise at the checkpoints."""
    k = bundle.k
    mats = [bundle.matrices_at(t) for t in checkpoints]     # C x (M, K, K)

    iu = np.triu_indices(k, 1)
    il = np.tril_indices(k, -1)
    diag = np.arange(k)

    dd_stats, ud_stats, mono_stats = [], [], []
    for t, r in zip(checkpoints, mats):
        # (1) strong diagonal dominance per row
        off_sum = r.sum(axis=2) - r[:, diag, diag]
        gap = off_sum - r[:, diag, diag]
        viol = gap > PROPERTY_TOL
        dd_stats.append(_stat(t, viol, np.where(viol, gap, 0.0),
                              [f"row {i + 1}" for i in range(k)]))
        # (2) downgrades at least as likely as upgrades
        upper = r[:, iu[0], iu[1]].sum(axis=1)
        lower = r[:, il[0], il[1]].sum(axis=1)
        gap2 = (lower - upper)[:, None]
        viol2 = gap2 > PROPERTY_TOL
        ud_stats.append(_stat(t, viol2, np.where(viol2, gap2, 0.0), ["total"]))
        # (3) monotone default column
        col = r[:, :, -1]
        gap3 = col[:, :-1] - col[:, 1:]
        viol3 = gap3 > PROPERTY_TOL
        mono_stats.append(_stat(t, viol3, np.where(viol3, gap3, 0.0),
                                [f"{i + 1}-{i + 2}" for i in range(k - 1)]))

    dec_stats = []
    for ci in range(len(checkpoints) - 1):
        s, t = checkpoints[ci], checkpoints[ci + 1]
        ds = mats[ci][:, diag, diag] - mats[ci + 1][:, diag, diag]
        viol = -ds > PROPERTY_TOL
        dec_stats.append(_stat((s, t), viol, np.where(viol, -ds, 0.0),
                               [f"row {i + 1}" for i in range(k)]))

    return PropertyReport(diagonal_dominance=dd_stats,
                          downgrade_dominance=ud_stats,
                          monotone_default_column=mono_stats,
                          decreasing_diagonal=dec_stats)


def coordinate_labels(k: int) -> list[str]:
    return basis_index_map(k).labels()
