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
from .sde import MatrixPathBundle, TimeGrid, _counter_uniforms, _philox_key

_SSA_STREAM_TAG = 0x55A


def piecewise_generators(bundle: MatrixPathBundle) -> np.ndarray:
    """Per-trajectory off-diagonal intensities, shape (M, N, K-1, K-1).

    Entry [m, i, s, d] is the rate on grid interval i from rating s+1 to
    rating d + (d >= s) + 1: the step-i coordinate increments divided by
    dt, in lie.basis_index_map order.  The generator they fill, times dt,
    exponentiates to the bundle's step factor.
    """
    inc = bundle.increments
    return (inc / bundle.grid.dt).reshape(inc.shape[:2] + (bundle.k - 1,) * 2)


def _ssa_batch(gens: np.ndarray, gen_index: np.ndarray, i0: np.ndarray,
               grid: TimeGrid, key: np.ndarray, path_offset: int = 0,
               occupancy: np.ndarray | None = None, record_states: bool = True):
    """Event-driven SSA across paths with per-path intensity sequences.

    gens: (G, N, K-1, K-1) intensities as `piecewise_generators` returns
    them; gen_index: (P,) path -> sequence; i0: (P,) 1-based.
    Event e of path p draws from the Philox counter (path_offset + p, e)
    under `key`, so a path's draws do not depend on the batch it runs in.
    Returns (states (P, N+1) int8, default_time (P,), predefault (P,) int8);
    states is the transposed view of a time-major (N+1, P) array.  With
    `record_states` false no per-path states are built and states is an
    empty (P, 0) array; the other outputs are the same bits.  If given,
    `occupancy` (G, N+1, K), integer, receives for each sequence g and grid
    index j the number of g's paths in each state at j, counted from the
    jump events.
    """
    p = gen_index.size
    g, n = gens.shape[:2]
    k = gens.shape[2] + 1                     # the absorbing rating has no row
    times = grid.times
    # exit rates (G, N, K-1), each row added in order; slice adds, since
    # .sum over the short last axis is several times slower
    rates = gens[..., 0].copy()
    for d in range(1, k - 1):
        rates += gens[..., d]
    hazard = np.zeros((g, k - 1, n + 1))                     # H[g, s, j]
    np.cumsum(rates.transpose(0, 2, 1) * grid.dt, axis=2, out=hazard[:, :, 1:])

    cur = np.asarray(i0, dtype=np.int64) - 1
    # jump deltas, summed below; no rows unless states are recorded
    states = np.zeros((n + 1 if record_states else 0, p), dtype=np.int8)
    states[:1] = cur + 1
    if occupancy is not None:
        occupancy[:, 1:] = 0
        occupancy[:, 0] = np.bincount(gen_index * k + cur,
                                      minlength=g * k).reshape(g, k)
    def_time = np.full(p, np.nan)
    predef = np.zeros(p, dtype=np.int8)
    def_time[cur == k - 1] = 0.0

    # Live paths: state s, interval j and time t of the last event, and
    # h, the integrated hazard H_s at t.
    live = np.nonzero(cur != k - 1)[0]
    s = cur[live]
    j = np.zeros(live.size, dtype=np.int64)
    t = np.zeros(live.size)
    h = np.zeros(live.size)
    event = 0
    while live.size:
        u_wait, u_dest = _counter_uniforms(key, path_offset + live, event, words=2)
        gl = gen_index[live]
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
        if record_states:
            states[j + 1, live] += (dest - s).astype(np.int8)
        if occupancy is not None:
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
    bundle: MatrixPathBundle | None = None


def sample_from_bundle(bundle: MatrixPathBundle, m2: int, initial: list[int],
                       seed: int) -> dict[int, NestedPaths]:
    """SSA-sample m2 paths per matrix trajectory of an existing bundle, for
    each initial rating in `initial`; returns {rating: NestedPaths}.

    The intensities are computed once and shared by the ratings; each
    rating draws from its own Philox key.  Keeps the occupancy counts,
    default times and pre-default ratings, all taken from the jump events;
    the per-path states are not built.
    """
    if m2 < 1:
        raise ValidationError(f"m2 must be >= 1, got {m2}")
    for i0 in initial:
        if not 1 <= i0 <= bundle.k:
            raise ValidationError(f"initial rating must be in 1..{bundle.k}, got {i0}")
    gens = piecewise_generators(bundle)
    m1 = bundle.m
    gen_index = np.repeat(np.arange(m1), m2)
    nested = {}
    for i0 in initial:
        key = _philox_key([seed, _SSA_STREAM_TAG, i0])
        occupancy = np.empty((m1, bundle.grid.steps + 1, bundle.k), dtype=np.int64)
        _, dt_, pd_ = _ssa_batch(gens, gen_index, np.full(m1 * m2, i0), bundle.grid,
                                 key, occupancy=occupancy, record_states=False)
        nested[i0] = NestedPaths(
            m1=m1, m2=m2,
            default_time=dt_.reshape(m1, m2),
            predefault=pd_.reshape(m1, m2),
            occupancy=occupancy,
            bundle=bundle,
        )
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


def simulation_error(nested_by_i0: dict[int, NestedPaths], t: float) -> float:
    """Mean over matrix trajectories of ||R_model - R_empirical||_F / (rows K).

    The norm runs over the sampled initial ratings' rows plus the absorbing
    row, which is filled in exactly if not sampled.  All collections must
    share one bundle (same matrix trajectories).
    """
    any_np = next(iter(nested_by_i0.values()))
    bundle = any_np.bundle
    if bundle is None:
        raise ValidationError("nested paths carry no model bundle")
    k = bundle.k
    idx = bundle.grid.index_of(t)
    m1 = any_np.m1
    model = bundle.matrices_at(t)                   # (M1, K, K)

    emp = np.zeros((m1, k, k))
    filled = np.zeros(k, dtype=bool)
    for i0, npaths in nested_by_i0.items():
        if npaths.bundle is not bundle or npaths.m1 != m1:
            raise ValidationError("collections must share the same matrix trajectories")
        emp[:, i0 - 1, :] = npaths.occupancy[:, idx] / npaths.m2
        filled[i0 - 1] = True
    if not filled[k - 1]:
        emp[:, k - 1, k - 1] = 1.0
        filled[k - 1] = True

    rows = int(filled.sum())
    diffs = np.linalg.norm((model - emp)[:, filled].reshape(m1, -1), axis=1)
    return float(diffs.mean() / (rows * k))
