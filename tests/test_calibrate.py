"""Calibration objectives, optimizers, and property diagnostics."""

import numpy as np
import pytest

from ratingsde import (HISTORICAL, MatrixPathBundle, SdeParams, TimeGrid,
                       ValidationError, property_report, simulate_paths_threaded)
from ratingsde.calibrate import (RN_BOUNDS, HistCalibrationSpec, PdTargets,
                                 _levenberg_marquardt, calibrate_historical,
                                 calibrate_risk_neutral, coordinate_labels,
                                 hist_residual, rn_residual)
from ratingsde.datasets import annual_example, pd_scenario
from ratingsde.sde import draw_noise, simulate_terminal


def flat_params(k, a, b, sigma):
    nc = (k - 1) ** 2
    return SdeParams(k=k, a=np.full(nc, a), b=np.full(nc, b),
                     sigma=np.full(nc, sigma))


class TestPdTargets:
    def test_accepts_published_scenarios(self):
        for case in (1, 2, 3):
            t = PdTargets(pd_scenario(case))
            assert t.k == 4 and t.values[-1] == 1.0

    def test_rejects_pd_out_of_range(self):
        with pytest.raises(ValidationError):
            PdTargets(np.array([0.1, 1.2, 0.3, 1.0]))

    def test_rejects_unfit_default_row(self):
        with pytest.raises(ValidationError):
            PdTargets(np.array([0.1, 0.2, 0.3, 0.9]))


class TestHistResidual:
    def test_perfect_fit_gives_zero(self):
        # deterministic model: generate the target from the model itself
        params = flat_params(4, 1.0, 0.2, 0.0)
        grid = TimeGrid(1.0, 40)
        noise = draw_noise(4, grid, 2, 0)
        rt = simulate_terminal(params, HISTORICAL, grid, noise)
        spec = HistCalibrationSpec(target_rec=rt[0], target_adj=rt[0],
                                   seed=0, m=2, grid=grid)
        r = hist_residual(params, spec, noise)
        assert np.abs(r).max() <= 1e-14

    def test_zero_volatility_f2_block(self, cohort, reconstructed):
        from ratingsde import repair, uniform_weights

        adj = repair(cohort, uniform_weights(4), reconstructed=reconstructed).adjusted
        spec = HistCalibrationSpec(target_rec=reconstructed, target_adj=adj,
                                   seed=3, m=4, grid=TimeGrid(1.0, 10))
        params = flat_params(4, 1.0, 0.0, 0.0)
        r = hist_residual(params, spec, draw_noise(4, spec.grid, 4, 3))
        f2 = r[16:]
        assert np.allclose(f2, -spec.variance_target.ravel(), atol=1e-12)

    def test_frozen_seed_makes_objective_deterministic(self, calibrated_params,
                                                       cohort, reconstructed):
        spec = HistCalibrationSpec(target_rec=reconstructed,
                                   target_adj=reconstructed, seed=7, m=50,
                                   grid=TimeGrid(1.0, 12))
        noise = draw_noise(4, spec.grid, spec.m, spec.seed)
        r1 = hist_residual(calibrated_params, spec, noise)
        r2 = hist_residual(calibrated_params, spec, noise.copy())
        assert np.array_equal(r1, r2)

    def test_overflowing_trial_point_gives_nan_on_any_thread_count(self, reconstructed):
        # a=400 with b=sigma=3 overflows |Y|^a within the year; the fit
        # rejects such a point by its NaN residual
        spec = HistCalibrationSpec(target_rec=reconstructed, target_adj=reconstructed,
                                   seed=0, m=20, grid=TimeGrid(1.0, 120))
        noise = draw_noise(4, spec.grid, spec.m, spec.seed)
        r1, r2 = (hist_residual(flat_params(4, 400.0, 3.0, 3.0), spec, noise, threads)
                  for threads in (1, 2))
        assert np.isnan(r1).any()
        assert np.array_equal(r1, r2, equal_nan=True)


class TestCalibrateHistorical:
    def test_recovers_deterministic_self_target(self):
        # sigma = 0: target generated by known parameters, then refit
        truth = flat_params(2, 1.0, 0.4, 0.0)
        grid = TimeGrid(1.0, 30)
        rt = simulate_terminal(truth, HISTORICAL, grid, draw_noise(2, grid, 2, 0))
        spec = HistCalibrationSpec(target_rec=rt[0], target_adj=rt[0],
                                   seed=0, m=2, grid=grid)
        start = flat_params(2, 1.0, 0.3, 0.0)
        res = calibrate_historical(spec, start=start, max_iter=40)
        assert res.sse <= 1e-10

    def test_result_respects_bounds(self, cohort, reconstructed):
        from ratingsde import repair, uniform_weights

        adj = repair(cohort, uniform_weights(4), reconstructed=reconstructed).adjusted
        spec = HistCalibrationSpec(target_rec=reconstructed, target_adj=adj,
                                   seed=5, m=40, grid=TimeGrid(1.0, 12),
                                   bound_hi=2.0)
        res = calibrate_historical(spec, max_iter=3)
        stacked = res.params.stacked()
        assert stacked.min() >= 0.0 and stacked.max() <= 2.0

    def test_infeasible_target_saturates_with_warning(self):
        # variance target far above anything achievable -> non-convergence flag
        rec = np.array([[0.6, 0.4], [0.0, 1.0]])
        adj = np.array([[0.0, 1.0], [0.0, 1.0]])   # variance target 0.36
        spec = HistCalibrationSpec(target_rec=rec, target_adj=adj, seed=1,
                                   m=30, grid=TimeGrid(1.0, 10),
                                   bound_hi=0.5)
        res = calibrate_historical(spec, max_iter=3)
        assert res.sse > 1e-4
        assert not res.converged or res.sse > 1e-4


class TestRnResidual:
    def test_self_targeting_historical_is_zero(self, calibrated_params):
        grid = TimeGrid(1.0, 20)
        noise = draw_noise(4, grid, 100, 3)
        rt = simulate_terminal(calibrated_params, HISTORICAL, grid, noise)
        targets = PdTargets(np.append(rt[:, :3, -1].mean(axis=0), 1.0))
        r = rn_residual(np.ones(3), calibrated_params, "historical", targets,
                        grid, noise)
        assert np.abs(r).max() <= 1e-14

    def test_last_component_always_zero(self, calibrated_params):
        grid = TimeGrid(1.0, 10)
        r = rn_residual(np.ones(3), calibrated_params, "exponential",
                        PdTargets(pd_scenario(1)), grid, draw_noise(4, grid, 20, 0))
        assert r[-1] == 0.0

    def test_exponential_rejects_zero_h(self, calibrated_params):
        grid = TimeGrid(1.0, 5)
        with pytest.raises(ValidationError):
            rn_residual(np.array([0.0, 1.0, 1.0]), calibrated_params,
                        "exponential", PdTargets(pd_scenario(1)), grid,
                        draw_noise(4, grid, 5, 0))


class TestCalibrateRiskNeutral:
    def test_case2_exponential_recovery(self, calibrated_params):
        # published h for this scenario: [12.38, 3.07, 0.46]; our noise
        # realization lands within ~40% per component (non-unique minima)
        res = calibrate_risk_neutral(calibrated_params, "exponential",
                                     PdTargets(pd_scenario(2)), m=1000, seed=0)
        assert res.sse <= 1e-4
        assert np.all(np.abs(res.h[:3] / np.array([12.38, 3.07, 0.46]) - 1) <= 0.4)

    def test_runs_the_historical_fits_solver(self, calibrated_params):
        # iterations counts LM iterations, as calibrate_historical's does
        grid, targets = TimeGrid(1.0, 12), PdTargets(pd_scenario(2))
        res = calibrate_risk_neutral(calibrated_params, "exponential", targets,
                                     grid=grid, m=50, seed=0)
        noise = draw_noise(4, grid, 50, 0)
        lo, hi = RN_BOUNDS["exponential"]
        x, sse, iterations, converged = _levenberg_marquardt(
            lambda h: rn_residual(h, calibrated_params, "exponential", targets,
                                  grid, noise),
            np.ones(3), np.full(3, lo), np.full(3, hi))
        assert np.array_equal(res.h, np.append(x, 1.0))
        assert (res.sse, res.iterations, res.converged) == (sse, iterations, converged)

    def test_rejects_historical_kind(self, calibrated_params):
        with pytest.raises(ValidationError):
            calibrate_risk_neutral(calibrated_params, "historical",
                                   PdTargets(pd_scenario(1)))


class TestPropertyReport:
    def test_identity_bundle_has_no_violations(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        checkpoints = [0.25, 0.5, 1.0]
        bundle = simulate_paths_threaded(params, HISTORICAL, TimeGrid(1.0, 12), 5, 0,
                                         keep_times=checkpoints)
        rep = property_report(bundle, checkpoints)
        for stats in rep.all_stats().values():
            for st in stats:
                assert st.violation_fraction == 0.0

    def test_published_matrix_static_properties(self):
        # one trajectory that jumps from I to the published matrix
        bundle = MatrixPathBundle(k=4, grid=TimeGrid(1.0, 1), m=1, kept=(1,),
                                  matrices=annual_example()[None, None])
        rep = property_report(bundle, [1.0])
        for stats in rep.all_stats().values():
            assert all(st.violation_fraction == 0.0 for st in stats)

    def test_calibrated_bundle_small_early_violations(self, calibrated_params):
        checkpoints = [1 / 12, 0.25, 0.5, 1.0]
        bundle = simulate_paths_threaded(calibrated_params, HISTORICAL,
                                         TimeGrid(1.0, 120), 300, 8,
                                         keep_times=checkpoints)
        rep = property_report(bundle, checkpoints)
        late = [st for stats in rep.all_stats().values() for st in stats
                if not isinstance(st.checkpoint, tuple) and st.checkpoint >= 0.25]
        assert all(st.violation_fraction <= 0.01 for st in late)
        early_mono = rep.monotone_default_column[0]
        assert early_mono.violation_fraction <= 0.10

    def test_needs_two_checkpoints_for_decreasing_diagonal(self, calibrated_params):
        bundle = simulate_paths_threaded(calibrated_params, HISTORICAL,
                                         TimeGrid(1.0, 12), 5, 0, keep_times=[1.0])
        rep = property_report(bundle, [1.0])
        assert rep.decreasing_diagonal == []


def test_coordinate_labels_match_table_layout():
    assert coordinate_labels(4) == ["1-2", "1-3", "1-4", "2-1", "2-3",
                                    "2-4", "3-1", "3-2", "3-4"]
