"""Portfolio simulation, rating-trigger collateral, and CVA/DVA/BVA.

The mark-to-market is a sum of independent Brownian components with
random volatilities and lifetimes (a synthetic netting set, not real
deals).  Collateral at a posting date is the closed form
C = (V + rho_B)^- + (V - rho_C)^+ with thresholds looked up from each
party's current rating; the account is a cash balance, held between
postings and frozen at the first default, so only its value at the last
posting before that default is computed.  CVA/DVA average the
LGD-weighted unsecured exposure at the first default; discounting is
zero throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sde import (DEFAULT_STEPS_PER_YEAR, MeasureChange, SdeParams, TimeGrid,
                  _counter_normals, _counter_uniforms, _philox_key, _polar,
                  simulate_paths_threaded)
from .ctmc import piecewise_generators, _ssa_batch

_PORTFOLIO_STATIC_TAG = 0x90F
_PORTFOLIO_PATH_TAG = 0x91F
_XVA_PARTY_TAG = {"B": 0xB0, "C": 0xC0}
# Elements per block of the portfolio variance sum (4 MB of float64).
_VAR_BLOCK = 1 << 19


@dataclass(frozen=True)
class PortfolioSpec:
    """Synthetic netting-set mark-to-market driven by n+1 Brownian components.

    Component volatilities are sigma_scale times standard-normal draws and
    lifetimes are uniform on [0, horizon] of the grid; component 0 has no
    lifetime.  Both are drawn once from `seed` and shared by all paths.
    """

    v0: float = 0.0
    n: int = 24
    sigma_scale: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"cash-flow count must be >= 0, got {self.n}")
        if self.sigma_scale < 0:
            raise ValidationError(f"sigma_scale must be nonnegative, got {self.sigma_scale}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    def draw_components(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """(volatilities including component 0, lifetimes on [0, horizon] for
        components 1..n).

        Component i draws both from the Philox counter (i, 0): its
        volatility by Box-Muller from words 0 and 1, its lifetime from word 2.
        """
        key = _philox_key([self.seed, _PORTFOLIO_STATIC_TAG])
        u_radius, u_angle, u_life = _counter_uniforms(key, np.arange(self.n + 1), 0,
                                                      words=3)
        r, angle = _polar(u_radius, u_angle)
        return self.sigma_scale * (r * np.cos(angle)), horizon * u_life[1:]


def simulate_portfolio(spec: PortfolioSpec, grid: TimeGrid, m: int, seed: int) -> np.ndarray:
    """Value paths (M, N+1) with exact Brownian increments per component.

    Path p's normals are keyed on its index p.  Each finite-lifetime component is frozen at its lifetime: its
    increment over [t_k, t_{k+1}] has variance min(t_{k+1}, l) - min(t_k, l).
    """
    times = grid.times
    # Per-step standard deviation of the aggregated increment.  Overflow
    # gives non-finite values, which the callers' finite checks report.
    t0, t1 = times[:-1], times[1:]
    block = max(1, _VAR_BLOCK // grid.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        sigmas, lifetimes = spec.draw_components(grid.horizon)
        var = np.full(grid.steps, sigmas[0] ** 2 * grid.dt)
        # Components are added in order: the running sum heads each block's
        # rows, which accumulate adds one after another.  float_power squares
        # by pow() as a scalar s ** 2 does; an array's ** 2 multiplies, which
        # can differ in the last bit.
        for start in range(0, lifetimes.size, block):
            life = lifetimes[start:start + block, None]
            rows = np.empty((len(life) + 1, grid.steps))
            rows[0] = var
            np.multiply(np.float_power(sigmas[1 + start:1 + start + block, None], 2.0),
                        np.maximum(0.0, np.minimum(t1, life) - np.minimum(t0, life)),
                        out=rows[1:])
            var = np.add.accumulate(rows, out=rows)[-1]
    z = _counter_normals(_philox_key([seed, _PORTFOLIO_PATH_TAG]),
                         np.arange(m)[:, None], grid.steps)[:, :, 0]
    v = np.empty((m, grid.steps + 1))
    v[:, 0] = spec.v0
    np.cumsum(z * np.sqrt(var), axis=1, out=v[:, 1:])
    v[:, 1:] += spec.v0
    return v


@dataclass(frozen=True)
class CsaTerms:
    """Per-rating unsecured-exposure thresholds and loss-given-default."""

    thresholds_bank: np.ndarray     # length K, +inf allowed
    thresholds_cpty: np.ndarray
    lgd_bank: float = 0.6
    lgd_cpty: float = 0.6
    postings_per_year: int = DEFAULT_STEPS_PER_YEAR

    def __post_init__(self):
        for name in ("thresholds_bank", "thresholds_cpty"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or np.any(arr < 0):
                raise ValidationError(f"{name} must be a nonnegative vector, got {arr.tolist()}")
        if self.thresholds_bank.shape != self.thresholds_cpty.shape:
            raise ValidationError("threshold vectors must have equal length")
        for name in ("lgd_bank", "lgd_cpty"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.postings_per_year < 1:
            raise ValidationError("postings_per_year must be >= 1")

    @property
    def k(self) -> int:
        return self.thresholds_bank.size


def uncollateralized_terms(k: int, lgd_bank: float = 0.6, lgd_cpty: float = 0.6,
                           postings_per_year: int = DEFAULT_STEPS_PER_YEAR) -> CsaTerms:
    inf = np.full(k, np.inf)
    return CsaTerms(inf, inf, lgd_bank, lgd_cpty, postings_per_year)


def perfect_terms(k: int, lgd_bank: float = 0.6, lgd_cpty: float = 0.6,
                  postings_per_year: int = DEFAULT_STEPS_PER_YEAR) -> CsaTerms:
    zero = np.zeros(k)
    return CsaTerms(zero, zero, lgd_bank, lgd_cpty, postings_per_year)


def posting_indices(grid: TimeGrid, postings_per_year: int) -> np.ndarray:
    """Grid indices of the posting dates j / postings_per_year within the
    horizon (including t=0); they must align exactly."""
    # postings finer than the grid cannot align; checked first, since a
    # huge count would not fit in a float or an array below
    aligned = postings_per_year <= grid.steps / grid.horizon + 1e-9
    if aligned:
        # the dates stop at the last one within the horizon
        n_post = int((grid.horizon + 1e-9) * postings_per_year)
        t_post = np.arange(n_post + 1) / postings_per_year
        idx = np.rint(t_post / grid.dt).astype(np.int64)
        aligned = np.abs(idx * grid.dt - t_post).max() <= 1e-9 and idx.max() <= grid.steps
    if not aligned:
        raise ValidationError(
            f"posting dates ({postings_per_year}/year) are not a subset of the grid "
            f"({grid.steps} steps on [0,{grid.horizon}])"
        )
    return idx


def _posting_values(v_post: np.ndarray, xb_post: np.ndarray, xc_post: np.ndarray,
                    terms: CsaTerms) -> np.ndarray:
    """Closed-form collateral balance posted at the given values and ratings."""
    rho_b = terms.thresholds_bank[xb_post - 1]
    rho_c = terms.thresholds_cpty[xc_post - 1]
    with np.errstate(invalid="ignore"):
        return np.minimum(v_post + rho_b, 0.0) + np.maximum(v_post - rho_c, 0.0)


@dataclass(frozen=True)
class XvaResult:
    cva: float
    dva: float
    bva: float
    cva_se: float
    dva_se: float
    bva_se: float
    defaults_bank_first: int
    defaults_cpty_first: int
    defaults_simultaneous: int
    no_default: int
    m: int


def compute_xva(v: np.ndarray, xb: np.ndarray, tau_b: np.ndarray,
                xc: np.ndarray, tau_c: np.ndarray, terms: CsaTerms,
                grid: TimeGrid) -> XvaResult:
    """Monte Carlo CVA/DVA/BVA from aligned path collections.

    v: (M, N+1) portfolio values; xb/xc: (M, N+1) rating snapshots;
    tau_b/tau_c: (M,) exact default times (NaN if none).  The portfolio
    value at default is read at the grid point at or immediately after
    tau; the collateral at the last posting date strictly before that
    point.  Exact-time ties contribute to neither adjustment.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    for arr, name in ((xb, "xb"), (xc, "xc")):
        if np.asarray(arr).shape != v.shape:
            raise ValidationError(f"{name} shape does not match portfolio paths")
    if tau_b.shape != (m,) or tau_c.shape != (m,):
        raise ValidationError("default-time vectors must have length M")

    has_b = ~np.isnan(tau_b)
    has_c = ~np.isnan(tau_c)
    both = has_b & has_c
    simultaneous = both & (tau_b == tau_c)
    bank_first = (has_b & ~has_c) | (both & (tau_b < tau_c))
    cpty_first = (has_c & ~has_b) | (both & (tau_c < tau_b))
    tau = np.where(bank_first | simultaneous, tau_b, tau_c)

    pidx = posting_indices(grid, terms.postings_per_year)

    defaulted = bank_first | cpty_first
    cva_contrib = np.zeros(m)
    dva_contrib = np.zeros(m)
    if defaulted.any():
        didx = np.nonzero(defaulted)[0]
        gi = np.searchsorted(grid.times, tau[didx] - 1e-12, side="left")
        v_tau = v[didx, gi]
        # last posting strictly before the default grid point; the account
        # is empty until the first posting after t0
        pj = np.searchsorted(grid.times[pidx], grid.times[gi] - 1e-12,
                             side="left") - 1
        gp = pidx[np.maximum(pj, 0)]
        c_tau = np.where(pj >= 1, _posting_values(
            v[didx, gp], np.asarray(xb)[didx, gp], np.asarray(xc)[didx, gp],
            terms), 0.0)
        pos = np.maximum(v_tau, 0.0) - np.maximum(c_tau, 0.0)
        neg = np.minimum(v_tau, 0.0) - np.minimum(c_tau, 0.0)
        cva_contrib[didx] = np.where(cpty_first[didx], terms.lgd_cpty * pos, 0.0)
        dva_contrib[didx] = np.where(bank_first[didx], -terms.lgd_bank * neg, 0.0)

    bva_contrib = dva_contrib - cva_contrib

    def mean_se(x):
        se = float(x.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")
        return float(x.mean()), se

    cva, cva_se = mean_se(cva_contrib)
    dva, dva_se = mean_se(dva_contrib)
    bva, bva_se = mean_se(bva_contrib)
    return XvaResult(
        cva=cva, dva=dva, bva=dva - cva,
        cva_se=cva_se, dva_se=dva_se, bva_se=bva_se,
        defaults_bank_first=int(bank_first.sum()),
        defaults_cpty_first=int(cpty_first.sum()),
        defaults_simultaneous=int(simultaneous.sum()),
        no_default=int((~defaulted & ~simultaneous).sum()),
        m=m,
    )


@dataclass(frozen=True)
class PredefaultDistribution:
    """Histogram of (initial rating, rating just before default)."""

    matrix: np.ndarray        # (K, K), rows = initial rating, normalized by all defaults
    total_defaults: int


def predefault_distribution(groups: dict[int, np.ndarray], k: int) -> PredefaultDistribution:
    """Aggregate pre-default ratings; `groups` maps initial rating to the
    per-path pre-default rating array (0 = path never defaulted)."""
    counts = np.zeros((k, k))
    for i0, predef in groups.items():
        predef = np.asarray(predef).ravel()
        defaulted = predef[predef > 0]
        if defaulted.size:
            counts[i0 - 1] += np.bincount(defaulted - 1, minlength=k)
    total = int(counts.sum())
    matrix = counts / total if total else counts
    return PredefaultDistribution(matrix=matrix, total_defaults=total)


# ---------------------------------------------------------------------------
# Orchestration of the full bilateral run


@dataclass
class XvaPaths:
    """All simulated paths of one run, shared across collateral regimes."""

    grid: TimeGrid
    v: np.ndarray
    xb: np.ndarray
    tau_b: np.ndarray
    xc: np.ndarray
    tau_c: np.ndarray
    predefault_b: np.ndarray
    predefault_c: np.ndarray


def simulate_xva_paths(params: SdeParams, measure: MeasureChange, grid: TimeGrid,
                       m: int, portfolio: PortfolioSpec, seed: int,
                       bank_rating: int = 1, cpty_rating: int = 2,
                       threads: int = 1) -> XvaPaths:
    """Simulate portfolio values and both parties' rating paths.

    Bank and counterparty paths use independent streams but share the
    same matrix trajectory, sampled from its intensities.  Both parties
    are sampled inside simulate_paths_threaded's each_chunk, on up to
    `threads` threads, so only each worker's chunk of increments and
    intensities is held at a time; the chunks and threads change no bit,
    as each party's SSA draws are keyed on the global trajectory index.
    """
    k = params.k
    for name, rating in (("bank_rating", bank_rating), ("cpty_rating", cpty_rating)):
        if not 1 <= rating <= k:
            raise ValidationError(f"{name} must be in 1..{k}, got {rating}")
    n = grid.steps
    xb = np.empty((m, n + 1), dtype=np.int8)
    xc = np.empty((m, n + 1), dtype=np.int8)
    tau_b = np.empty(m)
    tau_c = np.empty(m)
    pre_b = np.empty(m, dtype=np.int8)
    pre_c = np.empty(m, dtype=np.int8)
    keys = {party: _philox_key([seed, tag]) for party, tag in _XVA_PARTY_TAG.items()}

    def sample(off, part):
        rows = slice(off, off + part.m)
        gens = piecewise_generators(part)
        for party, x, tau, pre, i0 in (
            ("B", xb, tau_b, pre_b, bank_rating),
            ("C", xc, tau_c, pre_c, cpty_rating),
        ):
            x[rows], tau[rows], pre[rows] = _ssa_batch(
                gens, 1, i0, grid, keys[party], path_offset=off)

    simulate_paths_threaded(params, measure, grid, m, seed, keep_times=[],
                            each_chunk=sample, threads=threads)
    v = simulate_portfolio(portfolio, grid, m, seed)
    return XvaPaths(grid=grid, v=v, xb=xb, tau_b=tau_b, xc=xc, tau_c=tau_c,
                    predefault_b=pre_b, predefault_c=pre_c)


def xva_by_regime(paths: XvaPaths, regimes: dict[str, CsaTerms]) -> dict[str, XvaResult]:
    """Evaluate several collateral agreements on identical paths."""
    return {
        name: compute_xva(paths.v, paths.xb, paths.tau_b, paths.xc, paths.tau_c,
                          terms, paths.grid)
        for name, terms in regimes.items()
    }
