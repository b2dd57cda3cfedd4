"""Portfolio simulation, collateral accounting, CVA/DVA/BVA."""

import numpy as np
import pytest

from ratingsde import (HISTORICAL, CsaTerms, PortfolioSpec, TimeGrid,
                       ValidationError, compute_xva, default_grid,
                       perfect_terms, predefault_distribution,
                       simulate_portfolio, simulate_xva_paths,
                       uncollateralized_terms, xva_by_regime)
from ratingsde import sde, xva
from ratingsde.sde import _counter_normals, _counter_uniforms, _philox_key


GRID = TimeGrid(1.0, 12)


def terms_with(bank, cpty, ppy=12, lgd=0.6):
    return CsaTerms(np.asarray(bank, dtype=float), np.asarray(cpty, dtype=float),
                    lgd_bank=lgd, lgd_cpty=lgd, postings_per_year=ppy)


class TestSimulatePortfolio:
    def test_degenerate_spec_is_constant(self):
        spec = PortfolioSpec(v0=5.0, n=0, sigma_scale=0.0, seed=0)
        v = simulate_portfolio(spec, GRID, 10, 0)
        assert np.array_equal(v, np.full((10, 13), 5.0))

    def test_initial_value_exact(self):
        spec = PortfolioSpec(v0=-3.0, seed=1)
        v = simulate_portfolio(spec, GRID, 5, 2)
        assert np.all(v[:, 0] == -3.0)

    def test_paths_are_keyed_on_the_path_index(self):
        spec = PortfolioSpec(seed=3)
        v12 = simulate_portfolio(spec, GRID, 12, 6)
        assert np.array_equal(simulate_portfolio(spec, GRID, 5, 6), v12[:5])

    def test_components_draw_on_disjoint_words(self):
        # volatility by Box-Muller from words 0 and 1 of counter (i, 0),
        # lifetime from word 2
        spec = PortfolioSpec(n=24, sigma_scale=10.0, horizon=2.0, seed=4)
        sigmas, lifetimes = spec.draw_components()
        key = _philox_key([4, xva._PORTFOLIO_STATIC_TAG])
        u = _counter_uniforms(key, np.arange(25), 0)
        assert np.array_equal(lifetimes, 2.0 * u[2][1:])
        r = np.sqrt(-2.0 * np.log(u[0]))
        assert np.array_equal(sigmas, 10.0 * (r * np.cos(2.0 * np.pi * u[1])))

    def test_terminal_variance_matches_frozen_components(self):
        spec = PortfolioSpec(n=24, sigma_scale=10.0, seed=4)
        sigmas, lifetimes = spec.draw_components()
        target = sigmas[0] ** 2 + (sigmas[1:] ** 2 *
                                   np.minimum(lifetimes, 1.0)).sum()
        m = 100000
        v = simulate_portfolio(spec, GRID, m, 5)
        sample_var = v[:, -1].var(ddof=1)
        # variance of the sample variance for a normal: 2 sigma^4 / (m - 1)
        tol = 3.0 * np.sqrt(2.0 / (m - 1)) * target
        assert abs(sample_var - target) <= tol


    # one block at 1, 12 and 120 steps, then several with a partial last
    # one; at seed 5 a component's s ** 2 and s * s differ in the last bit
    # and the difference reaches the 120-step variance
    @pytest.mark.parametrize("steps, block, seed", [
        (1, 1 << 19, 7), (12, 1 << 19, 7), (120, 1 << 19, 5), (12, 12 * 700, 7)])
    def test_variance_blocks_match_a_loop_over_components_bitwise(
            self, monkeypatch, steps, block, seed):
        monkeypatch.setattr(xva, "_VAR_BLOCK", block)
        spec = PortfolioSpec(v0=1.5, n=3000, sigma_scale=10.0, seed=seed)
        grid = TimeGrid(1.0, steps)
        t0, t1 = grid.times[:-1], grid.times[1:]
        sigmas, lifetimes = spec.draw_components()
        var = np.full(steps, sigmas[0] ** 2 * grid.dt)
        for s, l in zip(sigmas[1:], lifetimes):
            var += s ** 2 * np.maximum(0.0, np.minimum(t1, l) - np.minimum(t0, l))
        z = _counter_normals(_philox_key([9, xva._PORTFOLIO_PATH_TAG]),
                             np.arange(4)[:, None], steps)[:, :, 0]
        want = np.full((4, steps + 1), spec.v0)
        want[:, 1:] += np.cumsum(z * np.sqrt(var), axis=1)
        assert np.array_equal(simulate_portfolio(spec, grid, 4, 9), want)

def _hand_paths():
    """Two deterministic paths: one counterparty default, one bank default."""
    n = GRID.steps
    v = np.vstack([np.full(n + 1, 4.0), np.full(n + 1, -6.0)])
    xb = np.ones((2, n + 1), dtype=np.int8)
    xc = np.ones((2, n + 1), dtype=np.int8)
    xc[0, 7:] = 4
    xb[1, 4:] = 4
    tau_b = np.array([np.nan, 4 / 12 - 0.01])
    tau_c = np.array([7 / 12 - 0.01, np.nan])
    return v, xb, tau_b, xc, tau_c


def _cpty_defaults(v, xc, tau_c, terms):
    """compute_xva on paths whose counterparty alone defaults at tau_c; the
    bank holds rating 1 throughout."""
    xb = np.ones_like(xc)
    return compute_xva(v, xb, np.full(len(tau_c), np.nan), xc, np.asarray(tau_c),
                       terms, GRID)


class TestCollateralPath:
    """The collateral account, read by compute_xva at each defaulted
    path's last posting before default."""

    def test_zero_thresholds_track_value(self):
        # V(t_j) = j; a default in (t_i, t_i+1) is read at t_i+1 against the
        # posting at t_i, which holds V(t_i), so every exposure is 1
        v = np.tile(np.arange(13.0), (11, 1))
        x = np.ones((11, 13), dtype=np.int8)
        tau_c = GRID.times[1:12] + 0.01
        res = _cpty_defaults(v, x, tau_c, terms_with(np.zeros(4), np.zeros(4)))
        assert res.cva == pytest.approx(0.6)
        assert res.cva_se == pytest.approx(0.0, abs=1e-15)
        assert res.defaults_cpty_first == 11

    def test_infinite_thresholds_post_nothing(self):
        v = np.tile(np.arange(13.0), (11, 1))
        x = np.ones((11, 13), dtype=np.int8)
        tau_c = GRID.times[1:12] + 0.01
        res = _cpty_defaults(v, x, tau_c,
                             uncollateralized_terms(4, postings_per_year=12))
        assert res.cva == pytest.approx(0.6 * np.arange(2.0, 13.0).mean())

    def test_closed_form_example(self):
        # V = 7e6, bank at rating 1 (rho_B = 10e6), cpty at rating 2
        # (rho_C = 5e6) at the last posting: C = 2e6; the rating of the
        # default grid point, whose threshold is 0, is not read
        v = np.full((1, 13), 7e6)
        xc = np.full((1, 13), 2, dtype=np.int8)
        xc[0, 7:] = 4
        t = terms_with([10e6, 5e6, 0, 0], [10e6, 5e6, 0, 0])
        res = _cpty_defaults(v, xc, [0.51], t)
        assert res.cva == pytest.approx(0.6 * 5e6)

    def test_frozen_after_default(self):
        # defaults at 0.51 are read at t_7 against the posting at 0.5, which
        # holds V(0.5); the values after t_7 are never read
        v = np.vstack([np.arange(13.0), -np.arange(13.0)])
        v[0, 8:] = 100.0
        v[1, 8:] = -100.0
        x = np.ones((2, 13), dtype=np.int8)
        res = compute_xva(v, x, np.array([np.nan, 0.51]), x,
                          np.array([0.51, np.nan]),
                          terms_with(np.zeros(4), np.zeros(4)), GRID)
        # path 0: cpty, 0.6 * (7 - 6); path 1: bank, -0.6 * (-7 - (-6))
        assert res.cva == pytest.approx(0.6 / 2)
        assert res.dva == pytest.approx(0.6 / 2)
        assert res.defaults_cpty_first == 1 and res.defaults_bank_first == 1

    def test_collateral_is_zero_when_default_falls_in_the_first_interval(self):
        # the account is empty until the first posting after t0
        v = np.full((2, 13), 5.0)
        x = np.ones((2, 13), dtype=np.int8)
        res = _cpty_defaults(v, x, [0.0, 0.5 / 12],
                             terms_with(np.zeros(4), np.zeros(4)))
        assert res.cva == pytest.approx(0.6 * 5.0)

    def test_posting_dates_must_align(self):
        t = terms_with(np.zeros(4), np.zeros(4), ppy=7)
        with pytest.raises(ValidationError, match="not a subset of the grid"):
            compute_xva(*_hand_paths(), t, GRID)

    def test_postings_finer_than_the_grid_are_rejected(self):
        # checked before the dates are built: 10**400 does not fit in a float
        for ppy in (24, 10 ** 400):
            t = terms_with(np.zeros(4), np.zeros(4), ppy=ppy)
            with pytest.raises(ValidationError, match="not a subset of the grid"):
                compute_xva(*_hand_paths(), t, GRID)


class TestComputeXva:
    def test_hand_computed_uncollateralized(self):
        v, xb, tau_b, xc, tau_c = _hand_paths()
        t = uncollateralized_terms(4, postings_per_year=12)
        res = compute_xva(v, xb, tau_b, xc, tau_c, t, GRID)
        # path 0: cpty defaults, V = +4 -> CVA contribution 0.6*4, averaged over 2
        assert res.cva == pytest.approx(0.6 * 4.0 / 2.0)
        # path 1: bank defaults, V = -6 -> DVA contribution -0.6*(-6)
        assert res.dva == pytest.approx(0.6 * 6.0 / 2.0)
        assert res.bva == res.dva - res.cva
        assert res.defaults_cpty_first == 1 and res.defaults_bank_first == 1

    def test_perfect_collateral_kills_exposure(self):
        v, xb, tau_b, xc, tau_c = _hand_paths()
        t = CsaTerms(np.zeros(4), np.zeros(4), postings_per_year=12)
        res = compute_xva(v, xb, tau_b, xc, tau_c, t, GRID)
        # V is flat, so the pre-default posting equals V_tau exactly
        assert res.cva == 0.0 and res.dva == 0.0

    def test_lgd_zero_gives_zero(self):
        v, xb, tau_b, xc, tau_c = _hand_paths()
        t = CsaTerms(np.full(4, np.inf), np.full(4, np.inf),
                     lgd_bank=0.0, lgd_cpty=0.0, postings_per_year=12)
        res = compute_xva(v, xb, tau_b, xc, tau_c, t, GRID)
        assert res.cva == 0.0 and res.dva == 0.0 and res.bva == 0.0

    def test_simultaneous_default_excluded(self):
        v, xb, tau_b, xc, tau_c = _hand_paths()
        tau = 5 / 12 - 0.02
        tau_b[:] = tau
        tau_c[:] = tau
        res = compute_xva(v, xb, tau_b, xc, tau_c,
                          uncollateralized_terms(4, postings_per_year=12), GRID)
        assert res.cva == 0.0 and res.dva == 0.0
        assert res.defaults_simultaneous == 2

    def test_default_postings_fit_the_default_grid(self):
        # the library's CSA defaults post on every step of default_grid();
        # both parties share one path, so its mid-year default is simultaneous
        grid = default_grid()
        v = np.full((2, grid.steps + 1), 4.0)
        x = np.ones((2, grid.steps + 1), dtype=np.int8)
        x[0, 61:] = 4
        tau = np.array([0.5 - 0.001, np.nan])
        res = compute_xva(v, x, tau, x, tau, perfect_terms(4), grid)
        assert res.cva == 0.0 and res.dva == 0.0 and res.defaults_simultaneous == 1

    def test_bva_identity_holds(self):
        v, xb, tau_b, xc, tau_c = _hand_paths()
        t = terms_with([5.0, 2.0, 0.0, 0.0], [5.0, 2.0, 0.0, 0.0])
        res = compute_xva(v, xb, tau_b, xc, tau_c, t, GRID)
        assert res.bva == res.dva - res.cva


@pytest.fixture(scope="module")
def paths(calibrated_params):
    portfolio = PortfolioSpec(n=24, sigma_scale=10.0, seed=3)
    return simulate_xva_paths(calibrated_params, HISTORICAL,
                              TimeGrid(1.0, 120), 300, portfolio, 17)


class TestRegimeOrdering:
    def test_triggers_lie_between_limits(self, paths):
        trig = CsaTerms(np.array([30.0, 10.0, 0.0, 0.0]),
                        np.array([30.0, 10.0, 0.0, 0.0]),
                        postings_per_year=120)
        res = xva_by_regime(paths, {
            "none": uncollateralized_terms(4, postings_per_year=120),
            "perfect": perfect_terms(4, postings_per_year=120),
            "triggers": trig,
        })
        assert (res["perfect"].cva <= res["triggers"].cva + 1e-12
                <= res["none"].cva + 1e-12)
        assert (res["perfect"].dva <= res["triggers"].dva + 1e-12
                <= res["none"].dva + 1e-12)

    def test_threshold_limits_are_bitwise_degenerate(self, paths):
        huge = CsaTerms(np.full(4, np.inf), np.full(4, np.inf),
                        postings_per_year=120)
        none = uncollateralized_terms(4, postings_per_year=120)
        r1 = xva_by_regime(paths, {"a": huge})["a"]
        r2 = xva_by_regime(paths, {"b": none})["b"]
        assert r1 == r2

    def test_multi_chunk_rerun_is_identical(self, calibrated_params):
        # 600 paths span three chunks of the fixed 256-path partition
        portfolio = PortfolioSpec(seed=3)
        a = simulate_xva_paths(calibrated_params, HISTORICAL, GRID, 600,
                               portfolio, 5)
        b = simulate_xva_paths(calibrated_params, HISTORICAL, GRID, 600,
                               portfolio, 5)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.xb, b.xb)
        assert np.array_equal(a.tau_c, b.tau_c, equal_nan=True)

    def test_chunk_size_does_not_change_results(self, calibrated_params,
                                                monkeypatch):
        # every SSA draw is keyed on the global trajectory index; each
        # chunk samples both parties, so 600 paths make 2 * ceil(600 / chunk)
        # _ssa_batch calls
        sample, calls = xva._ssa_batch, []
        monkeypatch.setattr(xva, "_ssa_batch",
                            lambda *a, **kw: calls.append(1) or sample(*a, **kw))
        portfolio = PortfolioSpec(seed=3)
        runs, counts = [], []
        for chunk in (128, 512):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            calls.clear()
            runs.append(simulate_xva_paths(calibrated_params, HISTORICAL,
                                           GRID, 600, portfolio, 5))
            counts.append(len(calls))
        assert counts == [10, 4]
        for name in ("xb", "xc", "tau_b", "tau_c", "predefault_b",
                     "predefault_c"):
            a, b = (getattr(r, name) for r in runs)
            assert np.array_equal(a, b, equal_nan=True), name


class TestPredefaultDistribution:
    def test_k2_all_predefaults_are_state_one(self):
        d = predefault_distribution({1: np.array([1, 1, 0, 1])}, 2)
        assert d.total_defaults == 3
        assert d.matrix[0, 0] == 1.0

    def test_zero_defaults_flagged(self):
        d = predefault_distribution({1: np.zeros(10, dtype=int)}, 4)
        assert d.total_defaults == 0
        assert np.array_equal(d.matrix, np.zeros((4, 4)))

    def test_normalization(self):
        d = predefault_distribution({1: np.array([3, 3, 2]),
                                     2: np.array([3, 0])}, 4)
        assert d.matrix.sum() == pytest.approx(1.0)
        assert d.matrix.sum(0)[2] == pytest.approx(3 / 4)
