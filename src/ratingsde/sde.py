"""Coefficient SDEs in the generator cone and the group-valued rating process.

Each coordinate i of the generator follows the pathwise-increasing pair

    dA_i = |Y_i|^{a_i} dt,      dY_i = b_i dt + sigma_i dW_i,  Y_i(0) = y0_i,

with mutually independent Brownian drivers.  The rating matrix advances by
R_{k+1} = R_k exp(dA_k), which keeps every step row-stochastic with an
absorbing last state.  A measure change is a constant drift shift
b_i -> b_i + sigma_i * kappa_i with kappa derived from a per-rating vector h.

Reproducibility contract: every random draw of the package comes from one
counter-based generator, Philox4x32-10 (Salmon et al., SC'11), evaluated
on whole arrays of counters.  A key derived from (seed, stream tag) picks
the stream, and the counter holds the draw's own index: (trajectory,
coordinate) and a block of four steps for the matrix noise, (path, event
number) for the rating paths, (path, block of steps) for the portfolio.
Each draw is therefore a pure function of its index, and results do not
depend on the batch size, the chunking or the number of steps drawn.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .lie import _coord_arrays, coeffs_to_matrices, expm_batch, n_coords

MEASURE_KINDS = ("historical", "jlt", "exponential")
# How far a time may lie from its nearest grid point in TimeGrid.has_point.
_ON_GRID_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Homogeneous grid on [0, horizon] with `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def has_point(self, t: float) -> bool:
        """Whether t is a grid point, to within _ON_GRID_TOL."""
        idx = round(t / self.dt)
        return 0 <= idx <= self.steps and abs(idx * self.dt - t) <= _ON_GRID_TOL

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises if t is not a grid point."""
        if not self.has_point(t):
            raise ValidationError(f"t={t} is not on the grid (dt={self.dt})")
        return round(t / self.dt)


# 120 steps per year resolves monthly checkpoints with margin.
DEFAULT_STEPS_PER_YEAR = 120


def default_grid(horizon: float = 1.0) -> TimeGrid:
    return TimeGrid(horizon=horizon, steps=max(1, round(DEFAULT_STEPS_PER_YEAR * horizon)))


@dataclass(frozen=True)
class SdeParams:
    """Per-coordinate (a, b, sigma) triples plus initial Y values."""

    k: int
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    y0: np.ndarray | None = None

    def __post_init__(self):
        nc = n_coords(self.k)
        for name in ("a", "b", "sigma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (nc,):
                raise ValidationError(f"{name} must have shape ({nc},), got {arr.shape}")
            if np.any(arr < 0):
                raise ValidationError(f"{name} must be nonnegative")
        y0 = self.y0
        y0 = np.zeros(nc) if y0 is None else np.asarray(y0, dtype=float)
        if y0.shape != (nc,):
            raise ValidationError(f"y0 must have shape ({nc},), got {y0.shape}")
        object.__setattr__(self, "y0", y0)

    @classmethod
    def from_stacked(cls, k: int, p: np.ndarray) -> "SdeParams":
        """Unpack a flat optimizer vector [a..., b..., sigma...]."""
        nc = n_coords(k)
        p = np.asarray(p, dtype=float)
        if p.shape != (3 * nc,):
            raise ValidationError(f"expected {3 * nc} stacked parameters, got {p.shape}")
        return cls(k=k, a=p[:nc], b=p[nc:2 * nc], sigma=p[2 * nc:])

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.sigma])


@dataclass(frozen=True)
class MeasureChange:
    """A measure kind plus the per-rating vector h (h_K pinned to 1)."""

    kind: str
    h: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValidationError(f"kind must be one of {MEASURE_KINDS}, got {self.kind!r}")
        if self.h is not None:
            h = np.asarray(self.h, dtype=float)
            object.__setattr__(self, "h", h)
            if h.ndim != 1:
                raise ValidationError("h must be a vector")
            if h[-1] != 1.0:
                raise ValidationError(f"h must end in 1, the absorbing rating's pinned "
                                      f"entry, got {h[-1]}")
            if self.kind == "exponential" and np.any(h == 0.0):
                raise ValidationError(f"h must have no zero entry under the exponential "
                                      f"kind, got {h.tolist()}")
        elif self.kind != "historical":
            raise ValidationError(f"kind {self.kind!r} requires an h vector")


HISTORICAL = MeasureChange(kind="historical")


def kappa_from_h(measure: MeasureChange, k: int) -> np.ndarray:
    """Girsanov kernel coordinates under the canonical basis ordering.

    Coordinate (i, j) maps to h_i for the per-row ("jlt") kind, to
    h_i / h_j for the ratio ("exponential") kind, and to 0 historically.
    """
    nc = n_coords(k)
    if measure.kind == "historical":
        return np.zeros(nc)
    h = measure.h
    if h is None or h.shape != (k,):
        raise ValidationError(f"h must have length {k}")
    rows, cols = _coord_arrays(k)
    if measure.kind == "jlt":
        return h[rows]
    return h[rows] / h[cols]


@dataclass
class MatrixPathBundle:
    """Simulated trajectories of the rating-matrix process, as far as kept.

    kept:       grid indices at which R is held for every trajectory.
    matrices:   (M, len(kept), K, K) the matrices R at those indices.
    rpaths:     (P, N+1, K, K) every R_k (R_0 = I) of the leading P <= M
                trajectories, or None.
    increments: (M, N, (K-1)^2) nonnegative per-step generator coordinates;
                only the part that each_chunk receives holds them.
    """

    k: int
    grid: TimeGrid
    m: int
    increments: np.ndarray | None = None
    rpaths: np.ndarray | None = None
    kept: tuple[int, ...] = ()
    matrices: np.ndarray | None = None

    def matrices_at(self, t: float) -> np.ndarray:
        """R_t of every trajectory, shape (M, K, K); raises if t was not kept."""
        idx = self.grid.index_of(t)
        if idx not in self.kept:
            raise ValidationError(f"R at t={t} was not kept")
        return self.matrices[:, self.kept.index(idx)]


def _philox_key(seed_words: list[int]) -> np.ndarray:
    """64-bit Philox4x32 key (two uint32 words) for one stream."""
    return np.random.SeedSequence(seed_words).generate_state(2, np.uint32)


_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
# positions of the high and the low 32-bit word within a uint64
_HI, _LO = (0, 1) if sys.byteorder == "big" else (1, 0)


def _mulhilo(c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 32-bit words of the 64-bit products m * c, as uint32
    views of the one product array."""
    product = np.asarray(np.multiply(c, m, dtype=np.uint64, order="C"))
    words = product.reshape(product.shape + (1,)).view(np.uint32)
    return words[..., _HI], words[..., _LO]


def _philox4x32(counter, key) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 (Salmon et al., SC'11) on a batch of counters.

    counter: four arrays of 32-bit words, broadcast against each other;
    key: two 32-bit words.  Returns the four output words as uint32 arrays.
    The counters are not broadcast up front, so the first rounds run at
    the words' own shapes.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint32) for c in counter)
    k0, k1 = (int(w) for w in key)
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
            k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0 = np.bitwise_xor(hi1, c1)
        c0 ^= k0                      # in place: one array per new word
        c2 = np.bitwise_xor(hi0, c3)
        c2 ^= k1
        c1, c3 = lo1, lo0
    return c0, c1, c2, c3


def _counter_uniforms(key, index: np.ndarray, event: int | np.ndarray,
                      words: int = 4) -> tuple[np.ndarray, ...]:
    """Uniforms on the open interval (0, 1) per (index, event) pair: the
    first `words` of the four, converted only as far as asked for.

    The counter is (index low word, index high word, event, 0); each
    32-bit output x maps to (x + 0.5) / 2**32, which is never 0 or 1.
    """
    index = np.asarray(index)
    # a scalar high word unless some index needs one
    high = index >> 32 if index.size and index.max() >> 32 else 0
    counter = (index.astype(np.uint32), high, event, 0)
    return tuple((x + 0.5) * 2.0 ** -32 for x in _philox4x32(counter, key)[:words])


def _polar(u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller's radius r = sqrt(-2 ln u_radius) and angle 2 pi u_angle,
    from uniforms on the open interval (0, 1), written over the uniforms;
    r cos(angle) and r sin(angle) are two independent standard normals."""
    np.log(u_radius, out=u_radius)
    u_radius *= -2.0
    np.sqrt(u_radius, out=u_radius)
    u_angle *= 2.0 * np.pi
    return u_radius, u_angle


# Trajectory rows per batch of counters in _counter_normals.  Each
# executor worker holds one batch's Philox words and uniforms beside its
# chunk buffer: at 120 steps, 2 workers of 128 rows peaked 3 MB higher in
# RSS than of 64, and 32 rows were slower.
_NOISE_ROWS = 64


def _counter_normals(key, index: np.ndarray, steps: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals z[p, j, c] for stream index[p, c] and step j.

    index: (P, C) counter indices; returns (P, steps, C), written into
    `out` if given.  Step j is word j % 4 of the counter (index, j // 4);
    words (0, 1) and (2, 3) are each mapped by Box-Muller, so a step's draw
    does not depend on how many steps are drawn.  The draws are made
    _NOISE_ROWS rows of index at a time, straight into the output.
    """
    p, c = index.shape
    z = np.empty((p, steps, c)) if out is None else out
    blocks = np.arange(-(-steps // 4))[:, None]
    for lo in range(0, p, _NOISE_ROWS):
        rows = slice(lo, lo + _NOISE_ROWS)
        u = _counter_uniforms(key, index[rows, None, :], blocks)
        for word in (0, 2):
            r, angle = _polar(u[word], u[word + 1])
            for w, trig in ((word, np.cos), (word + 1, np.sin)):
                n = len(range(w, steps, 4))
                np.multiply(r[:, :n], trig(angle)[:, :n], out=z[rows, w::4])
    return z


_NOISE_TAG = 0x5DE


def draw_noise(k: int, grid: TimeGrid, m: int, seed: int,
               traj_offset: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal tensor (M, N, ncoord) for trajectories
    traj_offset .. traj_offset + m - 1, on counter index
    (traj_offset + t) * ncoord + c; written into `out` if given.

    The Box-Muller radius comes from a uniform of 32-bit resolution, which
    caps |z| at sqrt(66 ln 2) = 6.76; a true standard normal exceeds that
    with probability 1.3e-11.
    """
    nc = n_coords(k)
    index = (traj_offset + np.arange(m))[:, None] * nc + np.arange(nc)
    return _counter_normals(_philox_key([seed, _NOISE_TAG]), index, grid.steps, out)


def _increments(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Generator increments dA_k = |Y_k|^a dt, shape (M, N, ncoord), written
    into `out` if given; out may be the noise itself, which each step
    overwrites once it has been read.

    Y advances by an Euler step with the measure-shifted drift
    b + sigma * kappa; each increment uses the step's left endpoint.
    """
    dt = grid.dt
    sqdt = np.sqrt(dt)
    drift = params.b + params.sigma * kappa_from_h(measure, params.k)
    y = np.broadcast_to(params.y0, (noise.shape[0], noise.shape[2])).copy()
    increments = np.empty(noise.shape) if out is None else out
    # overflow becomes inf, which the callers' finite checks report
    with np.errstate(over="ignore"):
        for step in range(grid.steps):
            increment = np.abs(y) ** params.a * dt
            y = y + drift * dt + params.sigma * sqdt * noise[:, step]
            increments[:, step] = increment
    return increments


# Matrices per expm_batch call in _products: enough to amortize the
# per-call overhead, few enough that a block's factors stay in cache.
# Blocks of 2,048-8,192 matrices were fastest at M = 100, 256 and 400;
# 16,384 and one call over the whole horizon were slower.  The smallest
# of these keeps each executor worker's temporaries smallest.
_STEP_BLOCK = 2048


def _products(increments: np.ndarray, k: int, rpaths: np.ndarray | None = None,
              kept: tuple[int, ...] = (), matrices: np.ndarray | None = None) -> np.ndarray:
    """Terminal matrices of R_{k+1} = R_k exp(dA_k), R_0 = I; shape (M, K, K).

    The factors exp(dA_k) are formed max(1, _STEP_BLOCK // M) steps per
    expm_batch call, time-major, so each step's (M, K, K) factors are
    contiguous.  When rpaths (P, N+1, K, K) is given, every R_k of the
    leading P trajectories is written into it; when matrices
    (M, len(kept), K, K) is given, R at each grid index in kept.
    """
    m, n, _ = increments.shape
    block = max(1, _STEP_BLOCK // m)
    slots = {index: slot for slot, index in enumerate(kept)}

    def store(index, r):
        if rpaths is not None:
            rpaths[:, index] = r[:len(rpaths)]
        if index in slots:
            matrices[:, slots[index]] = r

    r = np.broadcast_to(np.eye(k), (m, k, k)).copy()
    store(0, r)
    # non-finite increments give non-finite matrices, which the callers'
    # finite checks report
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            factors = expm_batch(coeffs_to_matrices(
                increments[:, start:start + block].transpose(1, 0, 2), k))
            for step, factor in enumerate(factors, start):
                r = r @ factor
                r[:, -1, :] = 0.0            # keep the absorbing row exact
                r[:, -1, -1] = 1.0
                store(step + 1, r)
    return r


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericalError(f"{bad} non-finite {what}: the parameters drive "
                             "the simulation out of floating-point range")


def simulate_paths(params: SdeParams, measure: MeasureChange, seed: int,
                   traj_offset: int, part: MatrixPathBundle) -> MatrixPathBundle:
    """simulate_paths_threaded's chunk body: trajectories traj_offset ..
    traj_offset + part.m - 1 by the group-preserving Euler scheme.

    The noise and then the increments go into part.increments, the
    worker's buffer; R at the grid indices part.kept and every R_k of the
    fan rows go into part.matrices and part.rpaths, the chunk's rows of the
    executor's arrays.  The products R_{k+1} = R_k exp(dA) are formed only
    when a matrix is kept.  Returns part; raises NumericalError if any
    increment or kept matrix is non-finite.
    """
    # the noise is overwritten by the increments, step by step
    noise = draw_noise(part.k, part.grid, part.m, seed, traj_offset, part.increments)
    _increments(params, measure, part.grid, noise, out=noise)
    _require_finite(part.increments, "generator increments")
    if part.kept or len(part.rpaths):
        _products(part.increments, part.k, part.rpaths, part.kept, part.matrices)
    _require_finite(part.matrices, "rating-matrix entries")
    _require_finite(part.rpaths, "rating-matrix entries")
    return part


def simulate_terminal(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                      noise: np.ndarray, threads: int = 1) -> np.ndarray:
    """Terminal matrices R_T only, shape (M, K, K), driven by the frozen
    noise (M, N, ncoord) of draw_noise; used by the calibration loops.

    Same stepping as simulate_paths, in _run_chunks on one contiguous part
    of the held noise per worker.  Non-finite values are returned, not
    raised: the calibration loops reject trial points with a NaN residual.
    """
    steps, nc, k = grid.steps, n_coords(params.k), params.k
    if noise.ndim != 3 or noise.shape[1:] != (steps, nc) or noise.shape[0] < 1:
        raise ValidationError(f"noise must have shape (M >= 1, {steps}, {nc}), "
                              f"got {noise.shape}")
    m = len(noise)
    terminal = np.empty((m, k, k))

    def run(off, buffer):
        rows = slice(off, off + len(buffer))
        terminal[rows] = _products(_increments(params, measure, grid, noise[rows], buffer), k)

    workers = _chunk_buffers(m, threads, steps, k, 1)[0]      # min(threads, M, cores)
    _run_chunks(m, threads, steps, k, -(-m // workers), run)
    return terminal


# Trajectories per simulate_paths call in simulate_paths_threaded.
_CHUNK = 256
# Seconds per wait of _run_chunks' caller on a worker's event: an interrupt
# that wakes no blocked wait, as interrupt_main's does not, is seen this soon.
# Not Thread.join: an interrupt inside it can mark a live thread stopped.
_JOIN_POLL = 0.05


def _chunk_buffers(m: int, threads: int, steps: int, k: int,
                   chunk: int | None = None) -> tuple[int, ...]:
    """(workers, chunk, N, ncoord): _run_chunks' worker count for m
    trajectories in chunks of `chunk` (default _CHUNK), at most one per
    chunk and one per core, and the shape of each worker's chunk buffer."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    chunk = chunk or _CHUNK
    return (min(threads, -(-m // chunk), os.cpu_count() or 1), min(m, chunk),
            steps, n_coords(k))


def _run_chunks(m: int, threads: int, steps: int, k: int, chunk: int, run) -> None:
    """The package's one loop over chunks: run(offset, buffer) for each
    chunk of `chunk` of the m trajectories, offset being its first index and
    buffer its rows of the worker's (chunk, N, ncoord) array, which the
    worker reuses.  The chunks are dealt round-robin to the workers that
    _chunk_buffers counts; with one worker they run on the calling thread,
    which otherwise only waits.  run may execute concurrently with other
    chunks, so it must write only its own rows of any shared output.

    If a chunk raises or the wait is interrupted, no further chunk starts,
    and the first chunk's error or the interrupt is raised once every
    worker has stopped.
    """
    workers, size, *shape = _chunk_buffers(m, threads, steps, k, chunk)
    offsets = range(0, m, size)
    buffers = [np.empty((size, *shape)) for _ in range(workers)]
    failed = []                       # (offset, error) of each chunk that raised
    finished = [threading.Event() for _ in range(workers)]

    def work(worker):
        try:
            for off in offsets[worker::workers]:
                if any(bad < off for bad, _ in failed):
                    return
                try:
                    run(off, buffers[worker][:min(size, m - off)])
                except Exception as exc:  # raised on the calling thread below
                    failed.append((off, exc))
                    return
        finally:
            finished[worker].set()

    if workers == 1:
        work(0)
    else:
        pool = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        try:
            for thread in pool:
                thread.start()
            for done in finished:
                while not done.wait(_JOIN_POLL):
                    pass
        except BaseException:         # interrupted: the workers stop after their chunk
            failed.append((-1, None))
            raise
        finally:
            for thread in pool:
                if thread.is_alive():
                    thread.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def simulate_paths_threaded(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                            m: int, seed: int, *, keep_times: list[float],
                            keep_paths: int = 0, each_chunk=None,
                            threads: int = 1) -> MatrixPathBundle:
    """Group-preserving Euler simulation of m rating-matrix trajectories,
    keeping R at the grid times keep_times for every trajectory and every
    R_k of the leading keep_paths trajectories.  Each of _run_chunks'
    chunks of _CHUNK trajectories runs in simulate_paths, which writes
    straight into the returned arrays.  Every draw is keyed on its global
    trajectory index, so no bit depends on the chunking or thread count.
    each_chunk(offset, part), if given, is called within each chunk with
    its bundle, increments included; they are valid only during the call.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    k = params.k
    kept = tuple(sorted({grid.index_of(t) for t in keep_times}))
    matrices = np.empty((m, len(kept), k, k))
    rpaths = np.empty((min(m, keep_paths), grid.steps + 1, k, k))

    def run(off, buffer):
        rows = slice(off, off + len(buffer))
        part = simulate_paths(params, measure, seed, off, MatrixPathBundle(
            k=k, grid=grid, m=len(buffer), increments=buffer, rpaths=rpaths[rows],
            kept=kept, matrices=matrices[rows]))
        if each_chunk is not None:
            each_chunk(off, part)

    _run_chunks(m, threads, grid.steps, k, _CHUNK, run)
    return MatrixPathBundle(k=k, grid=grid, m=m, rpaths=rpaths, kept=kept,
                            matrices=matrices)


def girsanov_density(kappa: np.ndarray, w_increments: np.ndarray, grid: TimeGrid) -> np.ndarray | float:
    """Radon-Nikodym density L_T for a constant kernel.

    L_T = exp(sum_i kappa_i W_T^i - |kappa|^2 T / 2), computed from Brownian
    increments of shape (N, ncoord) or batched (M, N, ncoord), such as
    draw_noise(...) * sqrt(dt) for the noise a simulation was driven by.
    """
    kappa = np.asarray(kappa, dtype=float)
    w = np.asarray(w_increments, dtype=float)
    if w.shape[-2] != grid.steps or w.shape[-1] != kappa.shape[0]:
        raise ValidationError(
            f"increments shape {w.shape} does not match grid steps {grid.steps} "
            f"and {kappa.shape[0]} coordinates"
        )
    wt = w.sum(axis=-2)
    log_l = wt @ kappa - 0.5 * float(kappa @ kappa) * grid.horizon
    out = np.exp(log_l)
    return float(out) if out.ndim == 0 else out


def mean_matrix(bundle: MatrixPathBundle, t: float) -> np.ndarray:
    """Elementwise sample mean of R_t across trajectories."""
    return bundle.matrices_at(t).mean(axis=0)


def var_matrix(bundle: MatrixPathBundle, t: float) -> np.ndarray:
    """Elementwise unbiased sample variance of R_t across trajectories."""
    if bundle.m < 2:
        raise ValidationError("variance requires at least 2 trajectories")
    return bundle.matrices_at(t).var(axis=0, ddof=1)
