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

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .lie import coeffs_to_matrices, expm_batch, n_coords

MEASURE_KINDS = ("historical", "jlt", "exponential")
# How far a time may lie from its nearest grid point in TimeGrid.index_of.
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

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises if t is not a grid point."""
        idx = round(t / self.dt)
        if idx < 0 or idx > self.steps or abs(idx * self.dt - t) > _ON_GRID_TOL:
            raise ValidationError(f"t={t} is not on the grid (dt={self.dt})")
        return int(idx)


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
                raise ValidationError(f"h_K must equal 1, got {h[-1]}")
            if self.kind == "exponential" and np.any(h == 0.0):
                raise ValidationError("exponential measure change requires h_i != 0")
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
    from .lie import basis_index_map

    pairs = basis_index_map(k).pairs
    if measure.kind == "jlt":
        return np.array([h[i - 1] for i, _ in pairs])
    return np.array([h[i - 1] / h[j - 1] for i, j in pairs])


@dataclass
class MatrixPathBundle:
    """Simulated trajectories of the rating-matrix process, as far as kept.

    kept:       grid indices at which R is held for every trajectory.
    matrices:   (M, len(kept), K, K) the matrices R at those indices.
    rpaths:     (P, N+1, K, K) every R_k (R_0 = I) of the leading P <= M
                trajectories, or None.
    increments: (M, N, (K-1)^2) nonnegative per-step generator coordinates,
                or None.
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


def _box_muller(u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard normals r cos(2 pi u_angle), r sin(2 pi u_angle),
    with r = sqrt(-2 ln u_radius), from uniforms on the open interval (0, 1)."""
    r = np.sqrt(-2.0 * np.log(u_radius))
    angle = 2.0 * np.pi * u_angle
    return r * np.cos(angle), r * np.sin(angle)


def _counter_normals(key, index: np.ndarray, steps: int) -> np.ndarray:
    """Standard normals z[p, j, c] for stream index[p, c] and step j.

    index: (P, C) counter indices; returns (P, steps, C).  Step j is word
    j % 4 of the counter (index, j // 4); words (0, 1) and (2, 3) are each
    mapped by Box-Muller, so a step's draw does not depend on how many
    steps are drawn.
    """
    p, c = index.shape
    z = np.empty((p, steps, c))
    u = _counter_uniforms(key, index[:, None, :],
                          np.arange(-(-steps // 4))[:, None])
    for word in (0, 2):
        for w, normals in enumerate(_box_muller(u[word], u[word + 1]), word):
            z[:, w::4] = normals[:, :len(range(w, steps, 4))]
    return z


_NOISE_TAG = 0x5DE


def draw_noise(k: int, grid: TimeGrid, m: int, seed: int,
               traj_offset: int = 0) -> np.ndarray:
    """Standard-normal tensor (M, N, ncoord) for trajectories
    traj_offset .. traj_offset + m - 1, on counter index
    (traj_offset + t) * ncoord + c.

    The Box-Muller radius comes from a uniform of 32-bit resolution, which
    caps |z| at sqrt(66 ln 2) = 6.76; a true standard normal exceeds that
    with probability 1.3e-11.
    """
    nc = n_coords(k)
    index = (traj_offset + np.arange(m))[:, None] * nc + np.arange(nc)
    return _counter_normals(_philox_key([seed, _NOISE_TAG]), index, grid.steps)


def _increments(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                noise: np.ndarray) -> np.ndarray:
    """Generator increments dA_k = |Y_k|^a dt, shape (M, N, ncoord).

    Y advances by an Euler step with the measure-shifted drift
    b + sigma * kappa; each increment uses the step's left endpoint.
    """
    dt = grid.dt
    sqdt = np.sqrt(dt)
    drift = params.b + params.sigma * kappa_from_h(measure, params.k)
    y = np.broadcast_to(params.y0, (noise.shape[0], noise.shape[2])).copy()
    increments = np.empty(noise.shape)
    # overflow becomes inf, which the callers' finite checks report
    with np.errstate(over="ignore"):
        for step in range(grid.steps):
            increments[:, step] = np.abs(y) ** params.a * dt
            y = y + drift * dt + params.sigma * sqdt * noise[:, step]
    return increments


# Matrices per expm_batch call in _products: enough to amortize the
# per-call overhead, few enough that a block's factors stay in cache.
# Blocks of 2,048-8,192 matrices were fastest at M = 100, 256 and 400;
# 16,384 and one call over the whole horizon were slower.
_STEP_BLOCK = 4096


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


def simulate_paths(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                   m: int, seed: int, store_rpaths: bool = True, traj_offset: int = 0,
                   *, keep_times: list[float] | None = None,
                   keep_paths: int = 0) -> MatrixPathBundle:
    """Group-preserving Euler simulation of M rating-matrix trajectories.

    The increments dA = |Y_k|^a dt depend on the driver Y alone, so the
    group products R_{k+1} = R_k exp(dA) are formed only when the matrix
    paths are stored.  The bundle then keeps every grid index of every
    trajectory, or, given keep_times, R at those grid times for every
    trajectory and every R_k of the leading keep_paths trajectories; only
    what is kept is written.  Raises NumericalError if any increment or
    kept matrix is non-finite.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    k = params.k
    # the noise is freed before the products are formed
    increments = _increments(params, measure, grid,
                             draw_noise(k, grid, m, seed, traj_offset))
    _require_finite(increments, "generator increments")
    if not store_rpaths:
        return MatrixPathBundle(k=k, grid=grid, m=m, increments=increments)
    if keep_times is None:
        rpaths = np.empty((m, grid.steps + 1, k, k))
        _products(increments, k, rpaths)
        kept, matrices = tuple(range(grid.steps + 1)), rpaths
    else:
        kept = tuple(sorted({grid.index_of(t) for t in keep_times}))
        rpaths = np.empty((min(m, keep_paths), grid.steps + 1, k, k))
        matrices = np.empty((m, len(kept), k, k))
        _products(increments, k, rpaths, kept, matrices)
        _require_finite(matrices, "rating-matrix entries")
    _require_finite(rpaths, "rating-matrix entries")
    return MatrixPathBundle(k=k, grid=grid, m=m, increments=increments, rpaths=rpaths,
                            kept=kept, matrices=matrices)


def simulate_terminal(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                      noise: np.ndarray) -> np.ndarray:
    """Terminal matrices R_T only, shape (M, K, K), driven by the frozen
    noise (M, N, ncoord) of draw_noise; used by the calibration loops.

    Same stepping as simulate_paths.  Non-finite values are returned, not
    raised: the calibration loops reject trial points with a NaN residual.
    """
    steps, nc = grid.steps, n_coords(params.k)
    if noise.ndim != 3 or noise.shape[1:] != (steps, nc) or noise.shape[0] < 1:
        raise ValidationError(f"noise must have shape (M >= 1, {steps}, {nc}), "
                              f"got {noise.shape}")
    return _products(_increments(params, measure, grid, noise), params.k)


# Trajectories per simulate_paths call in simulate_paths_threaded.
_CHUNK = 256


def simulate_paths_threaded(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                            m: int, seed: int, *, keep_times: list[float],
                            keep_paths: int, keep_increments: bool) -> MatrixPathBundle:
    """simulate_paths over fixed chunks of 256 trajectories, keeping only
    what the caller reads: R at the grid times keep_times for every
    trajectory, every R_k of the leading keep_paths trajectories, and the
    increments if keep_increments.

    Each chunk writes only what is kept, and is dropped before the next is
    simulated.  Every draw is keyed on its global trajectory index, so the
    kept arrays equal the same slices of a single simulate_paths call bit
    for bit.  The chunks run one after another on the calling thread: a
    pool of 2 workers was slower than 1.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    k = params.k
    kept = tuple(sorted({grid.index_of(t) for t in keep_times}))
    matrices = np.empty((m, len(kept), k, k))
    rpaths = np.empty((min(m, keep_paths), grid.steps + 1, k, k))
    increments = np.empty((m, grid.steps, n_coords(k))) if keep_increments else None
    for off in range(0, m, _CHUNK):
        part = simulate_paths(params, measure, grid, min(_CHUNK, m - off), seed,
                              traj_offset=off, keep_times=keep_times,
                              keep_paths=max(0, keep_paths - off))
        matrices[off:off + part.m] = part.matrices
        rpaths[off:off + len(part.rpaths)] = part.rpaths
        if increments is not None:
            increments[off:off + part.m] = part.increments
        del part                     # hold no chunk while the next is simulated
    return MatrixPathBundle(k=k, grid=grid, m=m, increments=increments, rpaths=rpaths,
                            kept=kept, matrices=matrices)


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
