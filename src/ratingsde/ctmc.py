"""Nested rating-path sampling from simulated matrix trajectories.

Each matrix trajectory defines a piecewise-homogeneous CTMC: on grid
interval k the generator is the step's coordinate increment divided by
dt.  Rating paths are sampled with the Gillespie algorithm per interval:
an exponential waiting time at the current state's total rate, then a
jump destination drawn from the off-diagonal intensities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lie import coeffs_to_matrices
from .sde import (MatrixPathBundle, MeasureChange, SdeParams, TimeGrid,
                  simulate_paths, _stream)

_SSA_STREAM_TAG = 0x55A


def piecewise_generators(bundle: MatrixPathBundle) -> np.ndarray:
    """Per-trajectory generator sequences, shape (M, N, K, K).

    Interval k carries the step-k coordinate increments divided by dt, so
    exp(gen_k * dt) reproduces the bundle's step factor exactly.
    """
    if bundle.increments is None:
        raise ValidationError("bundle carries no per-step increments")
    return coeffs_to_matrices(bundle.increments / bundle.grid.dt, bundle.k)


def _open_unit(u: np.ndarray | float):
    """Map draws from [0,1) into (0,1) so log() stays finite."""
    return np.maximum(u, np.nextafter(0.0, 1.0))


def _ssa_batch(gens: np.ndarray, gen_index: np.ndarray, i0: np.ndarray,
               grid: TimeGrid, rng: np.random.Generator):
    """Vectorized SSA across paths with per-path generator sequences.

    gens: (G, N, K, K); gen_index: (P,) path -> generator; i0: (P,) 1-based.
    Returns (states (P, N+1) int8, default_time (P,), predefault (P,) int8).
    """
    p = gen_index.size
    k = gens.shape[-1]
    n = grid.steps
    times = grid.times
    cur = np.asarray(i0, dtype=np.int64) - 1
    states = np.empty((p, n + 1), dtype=np.int8)
    states[:, 0] = cur + 1
    def_time = np.full(p, np.nan)
    predef = np.zeros(p, dtype=np.int8)
    def_time[cur == k - 1] = 0.0

    arange_p = np.arange(p)
    for step in range(n):
        t_end = times[step + 1]
        t_now = np.full(p, times[step])
        while True:
            rates = -gens[gen_index, step, cur, cur]
            active = (rates > 0) & (t_now < t_end)
            if not active.any():
                break
            r1 = _open_unit(rng.random(p))
            r2 = _open_unit(rng.random(p))
            tau = -np.log(r1) / np.where(rates > 0, rates, 1.0)
            jump = active & (t_now + tau < t_end)
            t_now[active & ~jump] = t_end
            jidx = np.nonzero(jump)[0]
            if jidx.size == 0:
                continue
            t_jump = t_now[jidx] + tau[jidx]
            rows = gens[gen_index[jidx], step, cur[jidx], :].copy()
            rows[np.arange(jidx.size), cur[jidx]] = 0.0
            cum = np.cumsum(rows, axis=1)
            thr = rates[jidx] * r2[jidx]
            dest = np.argmax(cum > thr[:, None], axis=1)
            bad = cum[:, -1] <= thr       # summation round-off guard
            if bad.any():
                last_pos = (k - 1) - np.argmax(rows[:, ::-1] > 0, axis=1)
                dest = np.where(bad, last_pos, dest)
            to_abs = dest == k - 1
            dj = jidx[to_abs]
            predef[dj] = cur[dj] + 1
            def_time[dj] = t_jump[to_abs]
            cur[jidx] = dest
            t_now[jidx] = t_jump
        states[:, step + 1] = cur + 1
    del arange_p
    return states, def_time, predef


@dataclass
class NestedPaths:
    """M1 x M2 rating paths sampled from M1 matrix trajectories."""

    i0: int
    m1: int
    m2: int
    grid: TimeGrid
    seed: int
    states: np.ndarray        # (M1, M2, N+1), 1-based ratings
    default_time: np.ndarray  # (M1, M2), nan = no default before horizon
    predefault: np.ndarray    # (M1, M2), 0 = no default
    bundle: MatrixPathBundle | None = None

    @property
    def flat_states(self) -> np.ndarray:
        return self.states.reshape(self.m1 * self.m2, -1)


def sample_from_bundle(bundle: MatrixPathBundle, m2: int, i0: int,
                       seed: int) -> NestedPaths:
    """SSA-sample m2 paths per matrix trajectory of an existing bundle."""
    if m2 < 1:
        raise ValidationError(f"m2 must be >= 1, got {m2}")
    gens = piecewise_generators(bundle)
    m1 = bundle.m
    gen_index = np.repeat(np.arange(m1), m2)
    i0_arr = np.full(m1 * m2, i0)
    # the constant 0 keeps the stream key, and so the draws, of earlier versions
    rng = _stream([seed, _SSA_STREAM_TAG, 0, i0])
    states, dt_, pd_ = _ssa_batch(gens, gen_index, i0_arr, bundle.grid, rng)
    return NestedPaths(
        i0=i0, m1=m1, m2=m2, grid=bundle.grid, seed=seed,
        states=states.reshape(m1, m2, -1),
        default_time=dt_.reshape(m1, m2),
        predefault=pd_.reshape(m1, m2),
        bundle=bundle,
    )


def nested_simulate(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                    m1: int, m2: int, i0: int, seed: int) -> NestedPaths:
    """Outer matrix simulation plus inner SSA sampling; deterministic in seed."""
    if m1 < 1:
        raise ValidationError(f"m1 must be >= 1, got {m1}")
    bundle = simulate_paths(params, measure, grid, m1, seed, store_w=False)
    return sample_from_bundle(bundle, m2, i0, seed)


def empirical_transition(states_by_i0: dict[int, np.ndarray], t: float,
                         grid: TimeGrid, k: int) -> tuple[np.ndarray, list[int]]:
    """Occupancy frequencies at time t, one row per provided initial rating.

    Rows for initial ratings without paths are NaN and reported absent.
    """
    idx = grid.index_of(t)
    out = np.full((k, k), np.nan)
    present = []
    for i0, states in states_by_i0.items():
        flat = np.asarray(states).reshape(-1, grid.steps + 1)
        if flat.shape[0] == 0:
            continue
        at_t = flat[:, idx]
        out[i0 - 1] = np.bincount(at_t - 1, minlength=k) / flat.shape[0]
        present.append(i0)
    return out, present


def simulation_error(nested_by_i0: dict[int, NestedPaths], t: float) -> float:
    """Mean over matrix trajectories of ||R_model - R_empirical||_F / K^2.

    All collections must share one bundle (same matrix trajectories); the
    absorbing initial rating is filled in exactly if not sampled.
    """
    any_np = next(iter(nested_by_i0.values()))
    bundle = any_np.bundle
    if bundle is None:
        raise ValidationError("nested paths carry no model bundle")
    k = bundle.k
    idx = bundle.grid.index_of(t)
    m1 = any_np.m1
    model = bundle.require_rpaths()[:, idx]         # (M1, K, K)

    emp = np.zeros((m1, k, k))
    filled = np.zeros(k, dtype=bool)
    for i0, npaths in nested_by_i0.items():
        if npaths.bundle is not bundle or npaths.m1 != m1:
            raise ValidationError("collections must share the same matrix trajectories")
        at_t = npaths.states[:, :, idx]             # (M1, M2)
        counts = np.apply_along_axis(np.bincount, 1, at_t - 1, minlength=k)
        emp[:, i0 - 1, :] = counts / npaths.m2
        filled[i0 - 1] = True
    if not filled[k - 1]:
        emp[:, k - 1, k - 1] = 1.0
        filled[k - 1] = True
    if not filled.all():
        missing = [i + 1 for i in range(k) if not filled[i]]
        raise ValidationError(f"no paths for initial ratings {missing}")

    diffs = np.linalg.norm((model - emp).reshape(m1, -1), axis=1)
    return float(diffs.mean() / k ** 2)
