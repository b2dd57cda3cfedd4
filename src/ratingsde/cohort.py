"""Repair of cohort matrices with withdrawal mass.

A cohort matrix loses probability mass to withdrawals, so rows sum to
less than one.  The missing mass of each row is redistributed according
to a strictly positive weight matrix; the result has row sums exactly
one.  The distance/adjustment machinery quantifies how much repair each
entry received and turns it into a variance target for calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .lie import StochasticMatrix, validate_stochastic

_ROW_SUM_SLACK = 1e-9
_WEIGHT_FLOOR = 1e-12
# Slack of a reconstruction read from a file, which prints it to 6
# decimals: the rows of the bundled reconstructed_1y.csv are off by 6.0e-6.
RECONSTRUCTED_TOL = 1e-5
# validate_stochastic for a cohort matrix, whose rows may lose mass to
# withdrawals, and for a reconstruction read from a file.
cohort_fault = partial(validate_stochastic, tol=_ROW_SUM_SLACK, what="cohort", sub=True)
reconstruction_fault = partial(validate_stochastic, tol=RECONSTRUCTED_TOL,
                               what="reconstructed")


def weight_fault(entries: np.ndarray) -> tuple[int, str] | None:
    """(row, message) of the first row of a weight matrix with an entry
    that is not strictly positive (NaN included), or None."""
    bad = np.nonzero(~(entries > 0).all(axis=1))[0]
    return (int(bad[0]), "weights must be strictly positive") if bad.size else None


@dataclass(frozen=True)
class CohortMatrix:
    """K x K nonnegative matrix; rows may sum to <= 1; last row absorbing."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.shape != (self.k, self.k):
            raise ValidationError(f"expected shape ({self.k},{self.k}), got {m.shape}")
        fault = cohort_fault(m)
        if fault:
            raise ValidationError(f"row {fault[0] + 1}: {fault[1]}")


@dataclass(frozen=True)
class WeightMatrix:
    """Strictly positive unnormalized redistribution weights."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square weight matrix, got {m.shape}")
        fault = weight_fault(m)
        if fault:
            raise ValidationError(f"row {fault[0] + 1}: {fault[1]}")


def uniform_weights(k: int) -> WeightMatrix:
    return WeightMatrix(np.ones((k, k)))


def proportional_weights(cohort: CohortMatrix) -> WeightMatrix:
    """Weights proportional to the surviving entries of each row.

    Zero entries are floored at _WEIGHT_FLOOR to keep the weight matrix
    strictly positive; rows with some mass are effectively
    redistributed pro rata.
    """
    return WeightMatrix(np.maximum(cohort.entries, _WEIGHT_FLOOR))


def withdrawal_rates(cohort: CohortMatrix) -> np.ndarray:
    """Per-row missing mass w_i = 1 - sum_j R_ij; the last row has none."""
    w = 1.0 - cohort.entries.sum(axis=1)
    return np.clip(w, 0.0, 1.0)


def reconstruct(cohort: CohortMatrix, weights: WeightMatrix) -> StochasticMatrix:
    """Redistribute each row's withdrawal mass along the normalized weights.

    Row sums of the output equal one by construction for any positive
    weight matrix.
    """
    if weights.entries.shape != cohort.entries.shape:
        raise ValidationError("weight matrix dimension mismatch")
    nu = weights.entries / weights.entries.sum(axis=1, keepdims=True)
    omega = withdrawal_rates(cohort)[:, None] * nu
    out = cohort.entries + omega
    return StochasticMatrix(k=cohort.k, entries=out)


def distance_matrix(rec: np.ndarray, cohort: np.ndarray) -> np.ndarray:
    """Elementwise absolute repair distance |rec - cohort|."""
    rec = np.asarray(rec, dtype=float)
    cohort = np.asarray(cohort, dtype=float)
    if rec.shape != cohort.shape:
        raise ValidationError(f"dimension mismatch: {rec.shape} vs {cohort.shape}")
    return np.abs(rec - cohort)


def adjusted_matrix(cohort: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """Equalized repair: add each row's total distance pro rata to its entries.

    With d the distance matrix and eta its row sums, the adjustment is
    cohort + (d / eta) * d per entry; rows with eta = 0 stay untouched.
    """
    cohort = np.asarray(cohort, dtype=float)
    d = distance_matrix(rec, cohort)
    eta = d.sum(axis=1)
    rho = np.zeros_like(d)
    nz = eta > 0
    rho[nz] = d[nz] / eta[nz, None]
    return cohort + rho * d


def uncertainty_target(rec: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Two-point variance target (rec - adj)^2, elementwise."""
    rec = np.asarray(rec, dtype=float)
    adj = np.asarray(adj, dtype=float)
    if rec.shape != adj.shape:
        raise ValidationError(f"dimension mismatch: {rec.shape} vs {adj.shape}")
    return (rec - adj) ** 2


@dataclass(frozen=True)
class RepairOutputs:
    """All artifacts of one repair pass, for a single time slice."""

    reconstructed: np.ndarray
    distance: np.ndarray
    adjusted: np.ndarray
    uncertainty: np.ndarray


def repair(cohort: CohortMatrix, weights: WeightMatrix,
           reconstructed: np.ndarray | None = None) -> RepairOutputs:
    """Run the full repair chain; a precomputed reconstruction may be injected."""
    if reconstructed is None:
        reconstructed = reconstruct(cohort, weights).entries
    dist = distance_matrix(reconstructed, cohort.entries)
    adj = adjusted_matrix(cohort.entries, reconstructed)
    unc = uncertainty_target(reconstructed, adj)
    return RepairOutputs(reconstructed=reconstructed, distance=dist,
                         adjusted=adj, uncertainty=unc)
