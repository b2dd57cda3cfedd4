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


# Truncated Taylor series of exp(X) for X >= 0 with ||X||_inf = lam: the
# dropped terms sum_{j>d} X^j / j! are nonnegative and at most
# lam^(d+1) / (d+1)! * e^lam, under 2^-53 relative to exp(X) once
# lam <= theta_d = ((d+1)! 2^-53)^(1/(d+1)) (Al-Mohy & Higham 2009).  A
# factor with lam <= _THETA6 ~ 0.0178 takes degree 6 unscaled, in 3 matrix
# products; the step factors of every command at paper sizes do (lam below
# 1e-2).  Any other is scaled by 2^-s to norm <= _THETA8 ~ 0.070 and takes
# degree 8, in 4 products, before s squarings.
_THETA6 = (math.factorial(7) * 2.0 ** -53) ** (1 / 7)
_THETA8 = (math.factorial(9) * 2.0 ** -53) ** (1 / 9)


def expm_batch(a: np.ndarray) -> np.ndarray:
    """Exponential of a batch of generators, entrywise nonnegative.

    Uniformized Taylor series: exp(A) = e^-lam exp(A + lam I) with
    lam = max_i(-A_ii), so X = A + lam I is nonnegative with ||X||_inf = lam
    and every term, partial sum and squaring stays nonnegative.  The degree
    and the squarings are chosen per matrix from lam, so results do not
    depend on the batch partition; a batch in one group is not gathered.
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    x = a.reshape((-1, k, k)).copy()
    diag = np.arange(k)
    lam = -x[:, diag, diag].min(axis=-1, initial=0.0)
    x[:, diag, diag] += lam[:, None]
    small = lam <= _THETA6                  # NaN lam goes to degree 8
    if small.all():
        return _exp_degree6(x, lam).reshape(a.shape)
    if not small.any():
        return _exp_degree8(x, lam).reshape(a.shape)
    r = np.empty_like(x)
    r[small] = _exp_degree6(x[small], lam[small])
    r[~small] = _exp_degree8(x[~small], lam[~small])
    return r.reshape(a.shape)


def _exp_degree6(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """exp(X - lam I) by the degree-6 series of exp(X), for lam <= _THETA6."""
    r = _taylor(x, 6)
    r *= np.exp(-lam)[:, None, None]
    return r


def _exp_degree8(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """exp(X - lam I): the degree-8 series of 2^-s X, squared s times."""
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(lam / _THETA8))
    s = np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(np.int64)
    scale = 2.0 ** -s
    r = _taylor(x * scale[:, None, None], 8)
    r *= np.exp(-lam * scale)[:, None, None]
    for _ in range(int(s.max(initial=0))):
        need = s > 0
        r[need] = r[need] @ r[need]
        s = s - need
    return r


def _taylor(x: np.ndarray, degree: int) -> np.ndarray:
    """sum_{j <= degree} X^j / j! for degree 6 or 8, by Paterson-Stockmeyer
    (SIAM J. Comput. 2(1), 1973).

    With H_j = sum_{i=j..degree} (j! / i!) X^(i-j), the sum is H_0 and
    H_j = I + (X + (X^2 + X^3 H_{j+3} / (j+3)) / (j+2)) / (j+1).  Only the
    X^3 H_{j+3} are matrix products besides X^2 and X^3 themselves: 3 at
    degree 6, where H_6 = I, and 4 at degree 8.  Every step adds or scales
    by a positive number in place, so no temporary holds a negative entry.
    """
    x2 = x @ x
    x3 = x2 @ x
    ident = np.eye(x.shape[-1])
    if degree == 6:
        h = x3 * (1 / 6)
    else:
        h = x2 * (1 / 8)
        h += x
        h *= 1 / 7
        h += ident
        h = x3 @ h
        h *= 1 / 6
    for j in (3, 0):
        h += x2
        h *= 1 / (j + 2)
        h += x
        h *= 1 / (j + 1)
        h += ident
        if j:
            h = x3 @ h
            h *= 1 / j
    return h


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
