"""Nested rating-path sampling from simulated matrix trajectories.

Each matrix trajectory defines a piecewise-homogeneous CTMC: on grid
interval k the off-diagonal intensities are the step's coordinate
increments divided by dt.  Rating paths are sampled event by event on the
integrated hazard (the next-reaction method for time-dependent rates):
each jump draws an Exp(1) budget, finds the time at which the current
state's cumulative hazard exceeds it, then draws the destination from the
current state's intensities on that interval.  Event e of path p uses the
counter-based draws for (seed, stream, p, e), so a path's draws do not
depend on the batch it is sampled in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sde import (MatrixPathBundle, MeasureChange, SdeParams, TimeGrid,
                  _counter_uniforms, _philox_key, simulate_paths_threaded)

_SSA_STREAM_TAG = 0x55A


def piecewise_generators(bundle: MatrixPathBundle) -> np.ndarray:
    """Per-trajectory off-diagonal intensities, shape (M, N, K-1, K-1).

    Entry [m, i, s, d] is the rate on grid interval i from rating s+1 to
    rating d + (d >= s) + 1: the step-i coordinate increments divided by
    dt, in lie.basis_index_map order.  The generator they fill, times dt,
    exponentiates to the bundle's step factor.
    """
    inc = bundle.increments
    if inc is None:
        raise ValidationError("the bundle holds no increments; only the part that "
                              "each_chunk receives from simulate_paths_threaded does")
    return (inc / bundle.grid.dt).reshape(inc.shape[:2] + (bundle.k - 1,) * 2)


def _ssa_batch(gens: np.ndarray, m2: int, i0: int, grid: TimeGrid,
               key: np.ndarray, path_offset: int = 0,
               occupancy: np.ndarray | None = None, out=None):
    """Event-driven SSA: m2 paths from the 1-based rating i0 per sequence.

    gens: (G, N, K-1, K-1) intensities as `piecewise_generators` returns
    them; path p of the P = G*m2 paths follows sequence p // m2.  Event e
    of path p draws from the Philox counter (path_offset + p, e) under
    `key`, so a path's draws do not depend on the batch it runs in.
    Returns (states (P, N+1) int8, default_time (P,), predefault (P,) int8);
    states is the transposed view of a time-major (N+1, P) array.  Given
    `occupancy` (G, N+1, K), integer, it fills that instead: for each
    sequence g and grid index j, the number of g's paths in each state at
    j, counted from the jump events; states is then empty (P, 0) and the
    other outputs are the same bits.  Given `out`, a pair of (P,) arrays,
    it writes default_time and predefault into them.
    """
    g, n = gens.shape[:2]
    p = g * m2
    k = gens.shape[2] + 1                     # the absorbing rating has no row
    times = grid.times
    # exit rates (G, N, K-1), each row added in order; slice adds, since
    # .sum over the short last axis is several times slower
    rates = gens[..., 0].copy()
    for d in range(1, k - 1):
        rates += gens[..., d]
    hazard = np.zeros((g, k - 1, n + 1))                     # H[g, s, j]
    np.cumsum(rates.transpose(0, 2, 1) * grid.dt, axis=2, out=hazard[:, :, 1:])

    # jump deltas, summed below; no rows when occupancy is counted
    states = np.zeros((n + 1 if occupancy is None else 0, p), dtype=np.int8)
    states[:1] = i0
    if occupancy is not None:
        occupancy[...] = 0
        occupancy[:, 0, i0 - 1] = m2
    def_time, predef = (np.empty(p), np.empty(p, np.int8)) if out is None else out
    def_time[:] = 0.0 if i0 == k else np.nan   # an absorbed start defaults at t = 0
    predef[:] = 0

    # Live paths: state s, interval j and time t of the last event, and
    # h, the integrated hazard H_s at t.
    live = np.arange(p if i0 < k else 0)
    s = np.full(live.size, i0 - 1)
    j = np.zeros(live.size, dtype=np.int64)
    t = np.zeros(live.size)
    h = np.zeros(live.size)
    event = 0
    while live.size:
        u_wait, u_dest = _counter_uniforms(key, path_offset + live, event, words=2)
        gl = live // m2
        target = h - np.log(u_wait)
        # paths whose budget outlasts the horizon never jump again
        jumped = np.nonzero(hazard[gl, s, n] >= target)[0]
        live, gl, s, t = live[jumped], gl[jumped], s[jumped], t[jumped]
        target, u_dest = target[jumped], u_dest[jumped]
        # first grid index i in (j, n] with H_s[i] >= target
        lo, hi = j[jumped], np.full(live.size, n)
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            reached = hazard[gl, s, mid] >= target
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid)
        j = hi - 1
        tau = times[j] + (target - hazard[gl, s, j]) / rates[gl, j, s]
        tau = np.clip(tau, t, times[j + 1])       # round-off at the ends
        cum = np.cumsum(gens[gl, j, s], axis=1)
        # u_dest < 1, so the threshold lies below the row's own total
        d = np.argmax(cum > (u_dest * cum[:, -1])[:, None], axis=1)
        dest = d + (d >= s)                       # skip the diagonal
        if occupancy is None:
            states[j + 1, live] += (dest - s).astype(np.int8)
        else:
            np.subtract.at(occupancy, (gl, j + 1, s), 1)
            np.add.at(occupancy, (gl, j + 1, dest), 1)
        absorbed = dest == k - 1
        def_time[live[absorbed]] = tau[absorbed]
        predef[live[absorbed]] = s[absorbed] + 1
        go_on = ~absorbed
        live, gl, s, j, t = (live[go_on], gl[go_on], dest[go_on], j[go_on],
                             tau[go_on])
        h = hazard[gl, s, j] + rates[gl, j, s] * (t - times[j])
        event += 1
    for i in range(1, len(states)):
        np.add(states[i], states[i - 1], out=states[i])
    if occupancy is not None:
        np.cumsum(occupancy, axis=1, out=occupancy)
    return states.T, def_time, predef


@dataclass
class NestedPaths:
    """M1 x M2 rating paths sampled from M1 matrix trajectories.

    Only what the jump events give is kept: no per-path rating states.
    """

    m1: int
    m2: int
    default_time: np.ndarray  # (M1, M2), nan = no default before horizon
    predefault: np.ndarray    # (M1, M2), 0 = no default
    occupancy: np.ndarray     # (M1, N+1, K), paths per state, counted per trajectory


def _nested_outputs(k: int, steps: int, m1: int, m2: int, initial: list[int]):
    """Unfilled {rating: NestedPaths}, m2 paths per trajectory from each rating."""
    if min(m1, m2) < 1:
        raise ValidationError(f"m1 and m2 must be >= 1, got {m1} and {m2}")
    for i0 in initial:
        if not 1 <= i0 <= k:
            raise ValidationError(f"initial rating must be in 1..{k}, got {i0}")
    return {i0: NestedPaths(m1, m2, np.empty((m1, m2)), np.empty((m1, m2), np.int8),
                            np.empty((m1, steps + 1, k), np.int64))
            for i0 in initial}


def _sample_chunk(nested: dict, part: MatrixPathBundle, offset: int, seed: int) -> None:
    """Fill every rating's outputs for the chunk `part` of trajectories
    offset.. from intensities computed once; each rating draws from its
    own Philox key, the chunk's path p on counter offset * m2 + p."""
    gens = piecewise_generators(part)
    rows = slice(offset, offset + part.m)
    for i0, paths in nested.items():
        key = _philox_key([seed, _SSA_STREAM_TAG, i0])
        # contiguous rows, so the flattened outputs are views
        _ssa_batch(gens, paths.m2, i0, part.grid, key, offset * paths.m2,
                   paths.occupancy[rows], (paths.default_time[rows].reshape(-1),
                                           paths.predefault[rows].reshape(-1)))


def simulate_nested_paths(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                          m1: int, m2: int, initial: list[int], seed: int,
                          threads: int = 1
                          ) -> tuple[MatrixPathBundle, dict[int, NestedPaths]]:
    """Simulate m1 matrix trajectories, keeping R at the horizon, and sample
    m2 rating paths on each from every rating in `initial` inside
    simulate_paths_threaded's each_chunk, on up to `threads` threads;
    returns (bundle, {rating: NestedPaths}), bit for bit
    sample_from_bundle's on a bundle of all m1 trajectories' increments."""
    nested = _nested_outputs(params.k, grid.steps, m1, m2, initial)
    bundle = simulate_paths_threaded(
        params, measure, grid, m1, seed, keep_times=[grid.horizon], threads=threads,
        each_chunk=lambda offset, part: _sample_chunk(nested, part, offset, seed))
    return bundle, nested


def sample_from_bundle(bundle: MatrixPathBundle, m2: int, initial: list[int],
                       seed: int) -> dict[int, NestedPaths]:
    """SSA-sample m2 paths per trajectory of a bundle that holds its
    increments, from each rating in `initial`; returns {rating: NestedPaths},
    all taken from the jump events, with no per-path states built."""
    nested = _nested_outputs(bundle.k, bundle.grid.steps, bundle.m, m2, initial)
    _sample_chunk(nested, bundle, 0, seed)
    return nested


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


def simulation_error(bundle: MatrixPathBundle, nested_by_i0: dict[int, NestedPaths],
                     t: float) -> float:
    """Mean over matrix trajectories of ||R_model - R_empirical||_F / (rows K).

    The paths must have been sampled on the bundle's trajectories.  The
    norm runs over the sampled initial ratings' rows plus the absorbing
    row, which is filled in exactly if not sampled.
    """
    k, m1 = bundle.k, bundle.m
    idx = bundle.grid.index_of(t)
    model = bundle.matrices_at(t)                   # (M1, K, K)

    emp = np.zeros((m1, k, k))
    filled = np.zeros(k, dtype=bool)
    for i0, npaths in nested_by_i0.items():
        if npaths.m1 != m1:
            raise ValidationError(f"{npaths.m1} trajectories of paths, {m1} in the bundle")
        emp[:, i0 - 1, :] = npaths.occupancy[:, idx] / npaths.m2
        filled[i0 - 1] = True
    if not filled[k - 1]:
        emp[:, k - 1, k - 1] = 1.0
        filled[k - 1] = True

    rows = int(filled.sum())
    diffs = np.linalg.norm((model - emp)[:, filled].reshape(m1, -1), axis=1)
    return float(diffs.mean() / (rows * k))
