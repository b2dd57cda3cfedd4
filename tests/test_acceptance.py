"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion is a single
test whose verdict line carries the measured figure.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from ratingsde import (HISTORICAL, CohortMatrix, CsaTerms, MeasureChange,
                       PdTargets, PortfolioSpec, SdeParams, TimeGrid,
                       WeightMatrix, adjusted_matrix, calibrate_historical,
                       calibrate_risk_neutral, distance_matrix,
                       girsanov_density, kappa_from_h, mean_matrix,
                       perfect_terms, predefault_distribution, property_report,
                       reconstruct, repair, simulate_nested_paths,
                       simulate_paths_threaded, simulate_xva_paths,
                       simulation_error, uncollateralized_terms,
                       uniform_weights, xva_by_regime)
from ratingsde.calibrate import HistCalibrationSpec
from ratingsde.ctmc import _ssa_batch
from ratingsde.datasets import (cohort_1y, data_path, pd_scenario,
                                reconstructed_1y)
from ratingsde.sde import _philox_key, _products, draw_noise

from conftest import (ADJUSTED_PUBLISHED, DISTANCE_PUBLISHED, PRINT_TOL,
                      off_diagonal, run_cli)

GRID_FINE = TimeGrid(1.0, 120)
SEED = 11
CHECKPOINTS = [1 / 12, 0.25, 0.5, 1.0]     # read by criteria 04 and 08


def _input_rng(seed_words: list[int]) -> np.random.Generator:
    """Sequential generator for the random inputs of criteria 01 and 03."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_words)))


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num:02d}: FAIL - {detail}"


# ---------------------------------------------------------------------------
# Shared expensive computations


@pytest.fixture(scope="module")
def bundle_1000(calibrated_params):
    return simulate_paths_threaded(calibrated_params, HISTORICAL, GRID_FINE,
                                   1000, SEED, keep_times=CHECKPOINTS)


@pytest.fixture(scope="module")
def nested_p(calibrated_params):
    """One shared 100-trajectory bundle, 1000 SSA paths per initial rating:
    (bundle, {rating: NestedPaths})."""
    return simulate_nested_paths(calibrated_params, HISTORICAL, GRID_FINE, 100,
                                 1000, [1, 2, 3], SEED)


@pytest.fixture(scope="module")
def case2_exponential(calibrated_params):
    return calibrate_risk_neutral(calibrated_params, "exponential",
                                  PdTargets(pd_scenario(2)), m=400, seed=0)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_group_preservation():
    # one step R_1 = I exp(A) of the stepping kernel every command runs, for
    # each of 1000 generators, with no renormalization after the exponential
    rng = _input_rng([101])
    coeffs = rng.uniform(0.0, 5.0, size=(1000, 9))
    r = _products(coeffs[:, None, :], 4)
    worst_sum = np.abs(r.sum(axis=-1) - 1.0).max()
    worst_range = max(0.0, -r.min(), r.max() - 1.0)
    worst_absorb = np.abs(r[:, -1] - np.eye(4)[-1]).max()
    ok = worst_sum <= 1e-10 and worst_range <= 0.0 and worst_absorb == 0.0
    _verdict(1, ok, f"1000 one-step products: max row-sum dev {worst_sum:.2e}, "
                    f"entry overshoot {worst_range:.2e}, "
                    f"absorbing-row dev {worst_absorb:.2e}")


def test_criterion_02_published_tables():
    rec, coh = reconstructed_1y(), cohort_1y()
    d_err = np.abs(distance_matrix(rec, coh) - DISTANCE_PUBLISHED).max()
    a_err = np.abs(adjusted_matrix(coh, rec) - ADJUSTED_PUBLISHED).max()
    ok = d_err <= PRINT_TOL and a_err <= PRINT_TOL
    _verdict(2, ok, f"distance table max err {d_err:.2e}, "
                    f"adjusted table max err {a_err:.2e} (tol {PRINT_TOL:.0e})")


def test_criterion_03_reconstruction_identity():
    cohort = CohortMatrix(k=4, entries=cohort_1y())
    rng = _input_rng([103])
    worst = 0.0
    for _ in range(100):
        w = WeightMatrix(rng.uniform(0.05, 2.0, size=(4, 4)))
        rec = reconstruct(cohort, w).entries
        worst = max(worst, np.abs(rec.sum(axis=1) - 1.0).max())
    ok = worst <= 1e-12
    _verdict(3, ok, f"100 random weightings: max row-sum dev {worst:.2e}")


def test_criterion_04_historical_fit(bundle_1000):
    mean_err = np.abs(mean_matrix(bundle_1000, 1.0) - reconstructed_1y()).max()

    cohort = CohortMatrix(k=4, entries=cohort_1y())
    rec = reconstructed_1y()
    adj = repair(cohort, uniform_weights(4), reconstructed=rec).adjusted
    spec = HistCalibrationSpec(target_rec=rec, target_adj=adj, seed=SEED,
                               m=1000, grid=GRID_FINE)
    result = calibrate_historical(spec, max_iter=5)
    ok = mean_err <= 0.02 and result.sse <= 1e-4
    _verdict(4, ok, f"mean matrix at t=1 within {mean_err:.4f} of target "
                    f"(tol 0.02); re-calibration SSE {result.sse:.3e} "
                    f"(tol 1e-4, {result.iterations} iterations)")


def test_criterion_05_risk_neutral_fit(calibrated_params, case2_exponential):
    r1 = calibrate_risk_neutral(calibrated_params, "exponential",
                                PdTargets(pd_scenario(1)), m=400, seed=0)
    r3e = calibrate_risk_neutral(calibrated_params, "exponential",
                                 PdTargets(pd_scenario(3)), m=400, seed=0)
    r3j = calibrate_risk_neutral(calibrated_params, "jlt",
                                 PdTargets(pd_scenario(3)), m=400, seed=0)
    ratio = r3j.sse / max(r3e.sse, 1e-300)
    ok = (r1.sse <= 1e-4 and case2_exponential.sse <= 1e-4 and ratio >= 10.0)
    _verdict(5, ok, f"exponential SSE case1 {r1.sse:.3e}, "
                    f"case2 {case2_exponential.sse:.3e} (tol 1e-4); "
                    f"case3 per-row/ratio SSE {r3j.sse:.3e}/{r3e.sse:.3e} "
                    f"= {ratio:.1f}x (need >= 10x)")


def test_criterion_06_girsanov_martingale():
    m = 100000
    grid = TimeGrid(1.0, 4)
    measure = MeasureChange(kind="jlt", h=np.array([0.5, 0.6, 0.7, 1.0]))
    kappa = kappa_from_h(measure, 4)
    assert np.linalg.norm(kappa) <= 2.0
    # the Brownian increments that drive simulate_paths at this seed
    w = draw_noise(4, grid, m, 106) * np.sqrt(grid.dt)
    dens = girsanov_density(kappa, w, grid)
    dev = abs(dens.mean() - 1.0)
    tol = 3.0 * dens.std(ddof=1) / np.sqrt(m)
    ok = dev <= tol
    _verdict(6, ok, f"mean density over {m} paths off by {dev:.2e} "
                    f"(3 SE tol {tol:.2e}, |kappa| = "
                    f"{np.linalg.norm(kappa):.2f})")


def test_criterion_07_ssa_oracle(nested_p):
    gen = np.array([
        [-0.8, 0.5, 0.2, 0.1],
        [0.3, -0.9, 0.4, 0.2],
        [0.1, 0.2, -0.8, 0.5],
        [0.0, 0.0, 0.0, 0.0],
    ])
    n = 100000
    grid = TimeGrid(1.0, 1)
    target = scipy_expm(gen)
    worst_z = 0.0
    for i0 in (1, 2, 3):
        states, _, _ = _ssa_batch(off_diagonal(gen)[None, None], n, i0, grid,
                                  _philox_key([107, i0]))
        freq = np.bincount(states[:, -1] - 1, minlength=4) / n
        se = np.sqrt(target[i0 - 1] * (1 - target[i0 - 1]) / n)
        z = np.abs(freq - target[i0 - 1]) / np.maximum(se, 1e-12)
        worst_z = max(worst_z, z.max())

    err = simulation_error(*nested_p, 1.0)
    ok = worst_z <= 3.0 and err <= 0.01
    _verdict(7, ok, f"constant-generator frequencies within {worst_z:.2f} "
                    f"binomial SE (limit 3); nested M1=100, M2=1000 "
                    f"error {err:.4f} at t=1 (tol 0.01)")


def test_criterion_08_rating_properties(bundle_1000):
    report = property_report(bundle_1000, CHECKPOINTS)
    late_worst = 0.0
    for stats in report.all_stats().values():
        for st in stats:
            t = st.checkpoint[0] if isinstance(st.checkpoint, tuple) else st.checkpoint
            if t >= 0.25:
                late_worst = max(late_worst, st.violation_fraction)
    early = report.monotone_default_column[0].violation_fraction
    ok = late_worst <= 0.01 and early <= 0.10
    _verdict(8, ok, f"worst late (t>=0.25) violation fraction {late_worst:.4f}"
                    f" (limit 0.01); early (t=1/12) ordering violations "
                    f"{early:.4f} (limit 0.10)")


def test_criterion_09_xva_structure(calibrated_params):
    portfolio = PortfolioSpec(n=24, sigma_scale=10.0, seed=3)
    paths = simulate_xva_paths(calibrated_params, HISTORICAL, GRID_FINE, 400,
                               portfolio, 17)
    triggers = CsaTerms(np.array([30.0, 10.0, 0.0, 0.0]),
                        np.array([30.0, 10.0, 0.0, 0.0]),
                        postings_per_year=120)
    res = xva_by_regime(paths, {
        "none": uncollateralized_terms(4, postings_per_year=120),
        "perfect": perfect_terms(4, postings_per_year=120),
        "triggers": triggers,
        "limit_hi": CsaTerms(np.full(4, np.inf), np.full(4, np.inf),
                             postings_per_year=120),
        "limit_lo": CsaTerms(np.zeros(4), np.zeros(4), postings_per_year=120),
    })
    ordered = (res["perfect"].cva <= res["triggers"].cva <= res["none"].cva
               and res["perfect"].dva <= res["triggers"].dva <= res["none"].dva)
    degenerate = (res["limit_hi"] == res["none"]
                  and res["limit_lo"] == res["perfect"])
    identity = all(r.bva == r.dva - r.cva for r in res.values())
    ok = ordered and degenerate and identity
    _verdict(9, ok, f"CVA {res['perfect'].cva:.3f} <= {res['triggers'].cva:.3f}"
                    f" <= {res['none'].cva:.3f} and DVA ordered: {ordered}; "
                    f"threshold limits bitwise degenerate: {degenerate}; "
                    f"BVA = DVA - CVA exact: {identity}")


def test_criterion_10_predefault_distribution(calibrated_params, nested_p,
                                              case2_exponential):
    dist_p = predefault_distribution(
        {i0: n.predefault for i0, n in nested_p[1].items()}, 4)
    modal_p = int(np.argmax(dist_p.matrix.sum(axis=0))) + 1

    measure_q = MeasureChange(kind="exponential", h=case2_exponential.h)
    _, nested_q = simulate_nested_paths(calibrated_params, measure_q, GRID_FINE, 100,
                                        1000, [1, 2, 3], SEED)
    dist_q = predefault_distribution(
        {i0: n.predefault for i0, n in nested_q.items()}, 4)

    high_p = dist_p.matrix.sum(axis=0)[:2].sum()
    high_q = dist_q.matrix.sum(axis=0)[:2].sum()
    ok = modal_p == 3 and high_q > high_p
    _verdict(10, ok, f"historical modal pre-default rating index {modal_p} "
                     f"(want 3); A/B pre-default fraction "
                     f"{high_q:.4f} (risk-neutral) > {high_p:.4f} (historical)")


def test_criterion_11_cli_determinism(tmp_path):
    for name in ("cohort_1y.csv", "reconstructed_1y.csv", "pd_case1.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    shutil.copy(data_path("calibrated_params_1y.csv"), tmp_path / "params.csv")
    (tmp_path / "run.cfg").write_text(
        "seed = 42\n"
        "grid.steps_per_year = 24\n"
        "paths.cohort = cohort_1y.csv\n"
        "paths.reconstructed = reconstructed_1y.csv\n"
        "paths.params = params.csv\n"
        "paths.pd_targets = pd_case1.csv\n"
        "sim.m = 60\nsim.m1 = 10\nsim.m2 = 60\nxva.m = 80\n"
        "csa.postings_per_year = 24\n"
        "checkpoints = 0.5,1.0\n"
    )
    # every simulation here fits in one chunk of 256 trajectories, so the
    # --threads 8 run starts no worker
    runs = (("r1", "1"), ("r2", "1"), ("r8", "8"))
    for out, threads in runs:
        for cmd in ("reconstruct", "simulate", "ssa", "xva"):
            res = run_cli(cmd, "--config", "run.cfg", "--out", out,
                          "--threads", threads, cwd=tmp_path)
            assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    identical = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / other / n).read_bytes()
        for other in ("r2", "r8") for n in names)
    ok = identical and len(names) >= 10
    _verdict(11, ok, f"{len(names)} pipeline artifacts byte-identical across "
                     f"a rerun and a `--threads 8` run: {identical}")
