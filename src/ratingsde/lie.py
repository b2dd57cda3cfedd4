"""Generators of stochastic matrices with an absorbing last state.

The transient part of a K-state generator has (K-1)^2 free nonnegative
off-diagonal intensities.  Coordinates are enumerated row-major, skipping
the diagonal, e.g. for K=4: (1,2),(1,3),(1,4),(2,1),(2,3),(2,4),(3,1),
(3,2),(3,4).  Exponentials of such generators are row-stochastic with
last row equal to the last unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import ValidationError

# Defaults used across the library.
ROW_SUM_TOL = 1e-10          # internally produced matrices


def n_coords(k: int) -> int:
    if k < 2:
        raise ValidationError(f"rating count must be >= 2, got {k}")
    return (k - 1) ** 2


@dataclass(frozen=True)
class BasisIndexMap:
    """Canonical coordinate index <-> (row, col) map, 1-based pairs."""

    k: int
    pairs: tuple[tuple[int, int], ...]

    def labels(self) -> list[str]:
        return [f"{r}-{c}" for r, c in self.pairs]


@lru_cache(maxsize=None)
def basis_index_map(k: int) -> BasisIndexMap:
    """Row-major enumeration of off-diagonal intensities for rows 1..K-1."""
    if k < 2:
        raise ValidationError(f"rating count must be >= 2, got {k}")
    pairs = tuple(
        (row, col)
        for row in range(1, k)
        for col in range(1, k + 1)
        if col != row
    )
    assert len(pairs) == n_coords(k)
    return BasisIndexMap(k=k, pairs=pairs)


@lru_cache(maxsize=None)
def _coord_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) index arrays matching basis_index_map order."""
    bim = basis_index_map(k)
    rows = np.array([r - 1 for r, _ in bim.pairs], dtype=np.intp)
    cols = np.array([c - 1 for _, c in bim.pairs], dtype=np.intp)
    return rows, cols


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic K x K matrix with absorbing last state, to ROW_SUM_TOL."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        fault = validate_stochastic(m)
        if fault:
            raise ValidationError(f"row {fault[0] + 1}: {fault[1]}")
        if m.shape[0] != self.k:
            raise ValidationError(f"dimension mismatch: k={self.k}, shape={m.shape}")


def validate_stochastic(entries: np.ndarray, tol: float = ROW_SUM_TOL,
                        what: str = "stochastic matrix",
                        sub: bool = False) -> tuple[int, str] | None:
    """(row, message) of the first rule the square matrix breaks, or None:
    entries in [0, 1], row sums 1 (at most 1 if sub, for rows that lose
    mass) and the last row e_K, each to within tol."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    for i, row in enumerate(m):
        if not -tol <= row.min() <= row.max() <= 1 + tol:     # NaN fails too
            return i, f"{what} entries must lie in [0, 1]"
        if row.sum() > 1 + tol or not sub and row.sum() < 1 - tol:
            return i, f"{what} row sums must {'not exceed' if sub else 'be'} 1"
    if np.abs(m[-1] - np.eye(len(m))[-1]).max() > tol:
        return len(m) - 1, f"last {what} row must be the last unit vector"
    return None


def coeffs_to_matrices(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Assemble generators from coordinates; supports leading batch axes.

    coeffs: (..., (K-1)^2) nonnegative.  Returns (..., K, K) with exact
    zero row sums and zero last row.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] != n_coords(k):
        raise ValidationError(
            f"expected last axis {n_coords(k)}, got {c.shape[-1]}"
        )
    rows, cols = _coord_arrays(k)
    m = np.zeros(c.shape[:-1] + (k, k))
    m[..., rows, cols] = c
    diag = np.arange(k)
    m[..., diag, diag] = -m.sum(axis=-1)
    return m


# Degree-8 Taylor series of exp(X) for X >= 0 with ||X||_inf <= THETA: the
# dropped terms sum_{j>8} X^j / j! are nonnegative and at most
# THETA^9 / 9! * e^THETA ~ 2^-53 relative to exp(X) (Al-Mohy & Higham 2011).
_TAYLOR_DEGREE = 8
_TAYLOR_THETA = (math.factorial(9) * 2.0 ** -53) ** (1 / 9)  # ~0.070


def expm_batch(a: np.ndarray) -> np.ndarray:
    """Exponential of a batch of generators, entrywise nonnegative.

    Uniformized Taylor series: exp(A) = e^-lam exp(A + lam I) with
    lam = max_i(-A_ii), so X = A + lam I is nonnegative with ||X||_inf = lam
    and every term and squaring stays nonnegative.  X is scaled by 2^-s to
    norm <= _TAYLOR_THETA, summed by Horner and squared back s times.  lam
    and s are per matrix, so results do not depend on the batch partition.
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    batch_shape = a.shape[:-2]
    flat = a.reshape((-1, k, k))
    diag = np.arange(k)
    lam = -flat[:, diag, diag].min(axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(lam / _TAYLOR_THETA))
    s = np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(np.int64)
    scale = 2.0 ** -s
    x = flat * scale[:, None, None]
    x[:, diag, diag] += (lam * scale)[:, None]

    ident = np.eye(k)
    r = x / _TAYLOR_DEGREE + ident
    for j in range(_TAYLOR_DEGREE - 1, 0, -1):
        r = x @ r
        r /= j
        r += ident
    r *= np.exp(-lam * scale)[:, None, None]

    smax = int(s.max(initial=0))
    for _ in range(smax):
        need = s > 0
        if not need.any():
            break
        r[need] = r[need] @ r[need]
        s = s - need
    return r.reshape(batch_shape + (k, k))


def ad(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Commutator [a, h] = a h - h a."""
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    if a.shape != h.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {h.shape}")
    return a @ h - h @ a


def dexp_L(a: np.ndarray, h: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated series sum_k ad_{-a}^k(h) / (k+1)!.

    Right-trivialized differential of exp at a; verification use only.
    """
    if terms < 1:
        raise ValidationError(f"terms must be >= 1, got {terms}")
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    if a.shape != h.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {h.shape}")
    acc = np.zeros_like(h)
    term = h.copy()
    for j in range(terms):
        acc += term / math.factorial(j + 1)
        term = ad(-a, term)
    return acc
