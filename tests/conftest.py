"""Shared fixtures: bundled sample data, published reference values, and a
launcher for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratingsde
from ratingsde import (CohortMatrix, SdeParams, piecewise_generators,
                       simulate_paths_threaded)
from ratingsde import datasets
from ratingsde.ctmc import _SSA_STREAM_TAG, _ssa_batch
from ratingsde.sde import _philox_key

# Printed reference values for the sample data set (4 decimal digits of the
# published tables; tolerance 5e-5 covers print rounding).
DISTANCE_PUBLISHED = np.array([
    [0.0945, 0.0013, 2.5123e-04, 6.5335e-04],
    [6.9289e-04, 0.1892, 6.1092e-04, 0.0042],
    [4.5115e-04, 0.0067, 0.0849, 0.0283],
    [0.0, 0.0, 0.0, 0.0],
])

ADJUSTED_PUBLISHED = np.array([
    [0.9624, 0.0329, 3.4924e-04, 2.8275e-05],
    [0.0065, 0.9610, 0.0199, 0.0019],
    [8.3277e-06, 0.0072, 0.7773, 0.1621],
    [0.0, 0.0, 0.0, 1.0],
])

PRINT_TOL = 5e-5


@pytest.fixture(scope="session")
def cohort() -> CohortMatrix:
    return CohortMatrix(k=4, entries=datasets.cohort_1y())


@pytest.fixture(scope="session")
def reconstructed() -> np.ndarray:
    return datasets.reconstructed_1y()


@pytest.fixture(scope="session")
def calibrated_params() -> SdeParams:
    _, a, b, sigma = datasets.calibrated_params_1y()
    return SdeParams(k=4, a=a, b=b, sigma=sigma)


def off_diagonal(gen: np.ndarray) -> np.ndarray:
    """The intensities of generators (..., K, K) in the layout
    ``piecewise_generators`` returns, (..., K-1, K-1): row s of the
    transient rows without its diagonal entry."""
    k = gen.shape[-1]
    rows, cols = np.nonzero(~np.eye(k, dtype=bool)[:-1])
    return gen[..., rows, cols].reshape(gen.shape[:-2] + (k - 1, k - 1))


def simulate_with_increments(params, measure, grid, m, seed, **kwargs):
    """``simulate_paths_threaded``, with the returned bundle's increments set
    to every chunk's, in trajectory order.  Each chunk's part holds its
    increments in its worker's buffer, which the next chunk reuses, so
    ``each_chunk`` copies them."""
    parts = {}
    bundle = simulate_paths_threaded(
        params, measure, grid, m, seed,
        each_chunk=lambda off, part: parts.update({off: part.increments.copy()}),
        **kwargs)
    bundle.increments = np.concatenate([parts[off] for off in sorted(parts)])
    return bundle


def ssa_both_modes(gens, m2: int, i0: int, grid, key, occupancy):
    """`_ssa_batch` called twice with one key: the first call returns the
    per-path states, the second fills `occupancy`.  Both must draw the same
    paths.  Returns (states, default_time, predefault)."""
    states, dts, pds = _ssa_batch(gens, m2, i0, grid, key)
    empty, dts_occ, pds_occ = _ssa_batch(gens, m2, i0, grid, key,
                                         occupancy=occupancy)
    assert empty.shape == (states.shape[0], 0)
    assert np.array_equal(dts_occ, dts, equal_nan=True)
    assert np.array_equal(pds_occ, pds)
    return states, dts, pds


def recorded_ssa(bundle, m2: int, i0: int, seed: int):
    """The `_ssa_batch` call of ``sample_from_bundle(bundle, m2, i0, seed)``,
    with the per-path states as well (see ``ssa_both_modes``).

    Returns (states (M1*M2, N+1), default_time, predefault, occupancy),
    paths ordered trajectory-major as in ``sample_from_bundle``.
    """
    occupancy = np.empty((bundle.m, bundle.grid.steps + 1, bundle.k), dtype=np.int64)
    states, dts, pds = ssa_both_modes(
        piecewise_generators(bundle), m2, i0, bundle.grid,
        _philox_key([seed, _SSA_STREAM_TAG, i0]), occupancy)
    return states, dts, pds, occupancy


# Directory that holds the ``ratingsde`` package this test process imported.
SRC_ROOT = Path(ratingsde.__file__).resolve().parents[1]


def run_cli(*args, cwd, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run ``python -m ratingsde.cli *args`` in a separate process from ``cwd``.

    The child imports the same ``ratingsde`` as this process: ``SRC_ROOT``
    goes first on its ``PYTHONPATH``, ahead of any inherited entries, so a
    relative entry such as ``src`` need not resolve from ``cwd``.
    ``preexec_fn`` runs in the child before it starts.
    """
    pythonpath = filter(None, (str(SRC_ROOT), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    return subprocess.run([sys.executable, "-m", "ratingsde.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          preexec_fn=preexec_fn)
