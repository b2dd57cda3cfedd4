"""Piecewise generators and Gillespie rating-path sampling."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from ratingsde import (HISTORICAL, SdeParams, TimeGrid, ValidationError,
                       empirical_transition, piecewise_generators,
                       simulate_nested_paths, simulate_paths_threaded,
                       simulation_error)
from ratingsde import ctmc, sde
from ratingsde.ctmc import _ssa_batch, sample_from_bundle
from ratingsde.lie import coeffs_to_matrices, expm_batch
from ratingsde.sde import _philox_key

from conftest import (off_diagonal, recorded_ssa, simulate_with_increments,
                      ssa_both_modes)


def flat_params(k, a, b, sigma):
    nc = (k - 1) ** 2
    return SdeParams(k=k, a=np.full(nc, a), b=np.full(nc, b),
                     sigma=np.full(nc, sigma))


def nested_simulate(params, grid, m1, m2, i0, seed):
    """m2 rating paths from i0 on each of m1 matrix trajectories, as `ssa` runs."""
    return simulate_nested_paths(params, HISTORICAL, grid, m1, m2, [i0], seed)[1][i0]


CONST_GEN = np.array([
    [-0.8, 0.5, 0.2, 0.1],
    [0.3, -0.9, 0.4, 0.2],
    [0.1, 0.2, -0.8, 0.5],
    [0.0, 0.0, 0.0, 0.0],
])


class TestPiecewiseGenerators:
    def test_zero_increments_give_zero_generators(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_with_increments(params, HISTORICAL, TimeGrid(1.0, 5), 2, 0,
                                          keep_times=[])
        gens = piecewise_generators(bundle)
        assert np.array_equal(gens, np.zeros((2, 5, 3, 3)))

    def test_bundle_without_increments_is_rejected(self):
        # the chunk executor drops each chunk's increments
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths_threaded(params, HISTORICAL, TimeGrid(1.0, 5), 3, 0,
                                         keep_times=[1.0])
        with pytest.raises(ValidationError,
                           match="holds no increments; only the part that each_chunk"):
            sample_from_bundle(bundle, 2, [1], 0)

    def test_constant_rate_k2(self):
        lam = 0.6
        params = SdeParams(k=2, a=np.array([1.0]), b=np.array([0.0]),
                           sigma=np.array([0.0]), y0=np.array([lam]))
        bundle = simulate_with_increments(params, HISTORICAL, TimeGrid(1.0, 4), 1, 0,
                                          keep_times=[])
        gens = piecewise_generators(bundle)
        assert np.allclose(gens, np.broadcast_to(
            off_diagonal(np.array([[-lam, lam], [0.0, 0.0]])), (1, 4, 1, 1)),
            atol=1e-12)

    def test_exp_of_generator_reproduces_step_factor(self, calibrated_params):
        grid = TimeGrid(1.0, 10)
        bundle = simulate_with_increments(calibrated_params, HISTORICAL, grid, 3, 4,
                                          keep_times=[], keep_paths=3)
        gens = coeffs_to_matrices(
            piecewise_generators(bundle).reshape(3, 10, 9), 4)
        rp = bundle.rpaths
        factors = expm_batch(gens * grid.dt)
        rebuilt = np.empty_like(rp)
        rebuilt[:, 0] = np.eye(4)
        for s in range(grid.steps):
            rebuilt[:, s + 1] = rebuilt[:, s] @ factors[:, s]
            rebuilt[:, s + 1, -1, :] = np.eye(4)[-1]
        assert np.allclose(rebuilt, rp, atol=1e-13)

    def test_intensities_are_the_generator_off_diagonal(self):
        # entry [g, i, s, d] is the generator's [s, d + (d >= s)], and each
        # row's entries added in order give its negated diagonal bit for bit
        for k in range(2, 8):
            params = SdeParams(k=k, a=np.full((k - 1) ** 2, 1.0),
                               b=np.linspace(0.1, 2.0, (k - 1) ** 2),
                               sigma=np.linspace(0.2, 1.5, (k - 1) ** 2),
                               y0=np.linspace(0.05, 3.0, (k - 1) ** 2))
            bundle = simulate_with_increments(params, HISTORICAL, TimeGrid(1.0, 24), 5, k,
                                              keep_times=[])
            inten = piecewise_generators(bundle)
            gens = coeffs_to_matrices(bundle.increments / bundle.grid.dt, k)
            assert inten.shape == (5, 24, k - 1, k - 1)
            for s in range(k - 1):
                for d in range(k - 1):
                    assert np.array_equal(inten[..., s, d],
                                          gens[..., s, d + (d >= s)])
                row_sum = inten[..., s, 0].copy()
                for d in range(1, k - 1):
                    row_sum += inten[..., s, d]
                assert np.array_equal(row_sum, -gens[..., s, s])


def _ssa_one_gen(gen_path, grid, i0, n, key):
    """_ssa_batch for n paths that all follow one generator sequence."""
    return _ssa_batch(gen_path[None], n, i0, grid, key)


class TestSsaSample:
    def test_absorbing_start_is_constant(self):
        gens = off_diagonal(np.broadcast_to(CONST_GEN, (6, 4, 4)))
        states, dts, _ = _ssa_one_gen(gens, TimeGrid(1.0, 6), 4, 1, _philox_key([0]))
        assert np.all(states == 4)
        assert dts[0] == 0.0

    def test_zero_generator_holds_state(self):
        states, dts, _ = _ssa_one_gen(off_diagonal(np.zeros((6, 4, 4))),
                                      TimeGrid(1.0, 6), 2, 1, _philox_key([0]))
        assert np.all(states == 2)
        assert np.isnan(dts[0])

    def test_survival_probability_matches_exponential(self):
        lam, delta = 1.4, 0.5
        gen = np.array([[[-lam, lam], [0.0, 0.0]]])
        n = 20000
        states, _, _ = _ssa_one_gen(off_diagonal(gen), TimeGrid(delta, 1), 1, n,
                                    _philox_key([5]))
        stay = np.count_nonzero(states[:, -1] == 1)
        p = np.exp(-lam * delta)
        assert abs(stay / n - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_jump_destination_distribution(self):
        # conditional jump distribution from state 1 is row 1 / rate
        grid = TimeGrid(50.0, 1)       # long horizon: a jump is near-certain
        gen = CONST_GEN.copy()
        gen[:, :] = 0.0
        gen[0] = CONST_GEN[0]
        n = 20000
        states, _, _ = _ssa_batch(off_diagonal(gen)[None, None], n, 1, grid,
                                  _philox_key([6]))
        first = states[:, -1]
        jumped = first != 1
        freq = np.bincount(first[jumped] - 1, minlength=4)[1:]
        expect = CONST_GEN[0, 1:] / 0.8 * jumped.sum()
        chi2 = ((freq - expect) ** 2 / expect).sum()
        assert chi2 <= stats.chi2.ppf(0.99, df=2)

    def test_waiting_times_are_exponential(self):
        # with K=2 the first jump is the default
        lam = 0.9
        gen = np.array([[[-lam, lam], [0.0, 0.0]]])
        _, dts, _ = _ssa_one_gen(off_diagonal(gen), TimeGrid(60.0, 1), 1, 4000,
                                 _philox_key([7]))
        ks = stats.kstest(dts[~np.isnan(dts)], "expon", args=(0, 1 / lam))
        assert ks.pvalue > 0.01


class TestSsaBatch:
    def test_matches_matrix_exponential(self):
        grid = TimeGrid(1.0, 1)
        n = 50000
        states, _, _ = _ssa_batch(off_diagonal(CONST_GEN)[None, None], n, 2,
                                  grid, _philox_key([8]))
        freq = np.bincount(states[:, -1] - 1, minlength=4) / n
        target = expm(CONST_GEN)[1]
        se = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 3 * se + 1e-12)

    def test_default_times_recorded_exactly(self):
        grid = TimeGrid(1.0, 4)
        gens = off_diagonal(CONST_GEN)[None, None].repeat(4, axis=1)
        states, dts, pds = _ssa_batch(gens, 2000, 3, grid, _philox_key([9]))
        defaulted = ~np.isnan(dts)
        assert defaulted.any()
        assert np.all(dts[defaulted] >= 0) and np.all(dts[defaulted] < 1.0)
        assert np.all(pds[defaulted] >= 1) and np.all(pds[defaulted] <= 3)
        assert np.all(states[defaulted, -1] == 4)
        assert np.all(pds[~defaulted] == 0)

    def test_time_varying_generator_matches_step_products(self):
        # 12 intervals alternating two generators of different rates and
        # jump directions: the occupancy at T follows the product of the
        # per-interval transition matrices.
        grid = TimeGrid(1.0, 12)
        other = np.array([[-1.8, 0.1, 1.5, 0.2],
                          [1.2, -1.6, 0.1, 0.3],
                          [0.9, 0.1, -1.2, 0.2],
                          [0.0, 0.0, 0.0, 0.0]])
        scale = 0.5 + 0.25 * np.arange(12)
        gens = np.where((np.arange(12) % 2 == 0)[:, None, None],
                        CONST_GEN, other) * scale[:, None, None]
        n = 50000
        states, _, _ = _ssa_batch(off_diagonal(gens)[None], n, 1, grid,
                                  _philox_key([10]))
        target = np.eye(4)
        for g in gens:
            target = target @ expm(g * grid.dt)
        freq = np.bincount(states[:, -1] - 1, minlength=4) / n
        se = np.sqrt(target[0] * (1 - target[0]) / n)
        assert np.all(np.abs(freq - target[0]) <= 3 * se + 1e-12)

    def test_paths_are_independent_of_the_batch(self, calibrated_params):
        # path p draws from counter (path_offset + p, event): a call over
        # sequence 0 and one over sequences 1-3 with path_offset m2 equal
        # one call over all four bit for bit, from every start rating
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 24), 4, 3, keep_times=[])
        gens = piecewise_generators(bundle) * 50.0   # several jumps per path
        p = 2000
        m2 = p // 4
        key = _philox_key([11])
        twice = 0
        for i0 in (1, 2, 3):
            whole = _ssa_batch(gens, m2, i0, bundle.grid, key)
            parts = [_ssa_batch(gens[:1], m2, i0, bundle.grid, key),
                     _ssa_batch(gens[1:], m2, i0, bundle.grid, key,
                                path_offset=m2)]
            jumps = np.count_nonzero(np.diff(whole[0], axis=1), axis=1)
            twice += np.count_nonzero(jumps >= 2)
            for w, a, b in zip(whole, *parts):
                assert np.array_equal(w, np.concatenate([a, b]), equal_nan=True)
        assert twice > 3 * p // 10


class TestOccupancy:
    @staticmethod
    def _bincounts(states, g, k):
        """Per-sequence state counts of blocked paths: g sequences in turn."""
        return np.stack([np.stack([np.bincount(col - 1, minlength=k)
                                   for col in block.T])
                         for block in np.split(states, g)])

    def test_batch_occupancy_counts_the_returned_states(self, calibrated_params):
        # fast and calibrated time-varying generators, one active only in the
        # last interval, one that never moves; every start rating
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 24), 2, 3, keep_times=[])
        gens = piecewise_generators(bundle)
        last_only = np.zeros_like(gens[:1])
        last_only[0, -1] = off_diagonal(CONST_GEN) * 20.0
        gens = np.concatenate([gens * 50.0, gens, last_only,
                               np.zeros_like(gens[:1])])
        p, n = 1200, bundle.grid.steps
        m2 = p // (6 * 4)               # per sequence and start rating
        for seed in (11, 12, 13):
            jumped_last_only = held = False
            for i0 in (1, 2, 3, 4):
                occ = np.empty((6, n + 1, 4), dtype=np.int64)
                states = ssa_both_modes(gens, m2, i0, bundle.grid,
                                        _philox_key([seed]), occ)[0]
                assert np.array_equal(occ, self._bincounts(states, 6, 4))
                jumps = np.diff(states, axis=1) != 0
                only_last = jumps[:, -1] & ~jumps[:, :-1].any(axis=1)
                jumped_last_only |= np.split(only_last, 6)[4].any()
                held |= i0 != 4 and (~jumps.any(axis=1)).any()
            assert jumped_last_only
            assert held

    def test_initial_occupancy_matches_an_add_at_count(self, calibrated_params):
        # every start rating, the absorbing one included, over four
        # sequences plus a fifth that never moves; the array starts out
        # holding garbage, which every column must overwrite
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 12), 4, 5, keep_times=[])
        gens = np.concatenate([piecewise_generators(bundle) * 30.0,
                               np.zeros_like(piecewise_generators(bundle)[:1])])
        p, g, n = 900, 5, bundle.grid.steps
        m2 = p // (g * 4)               # per sequence and start rating
        moved = False
        for i0 in (1, 2, 3, 4):
            ref = np.zeros((g, 4), dtype=np.int64)
            np.add.at(ref, (np.arange(g * m2) // m2, i0 - 1), 1)
            occ = np.full((g, n + 1, 4), -7, dtype=np.int64)
            states = ssa_both_modes(gens, m2, i0, bundle.grid,
                                    _philox_key([21]), occ)[0]
            assert np.array_equal(occ[:, 0], ref)
            assert np.array_equal(occ, self._bincounts(states, g, 4))
            assert np.array_equal(occ[4], np.broadcast_to(ref[4], (n + 1, 4)))
            moved |= (states[:, -1] != i0).any()
        assert moved                                     # later columns moved

    def test_nested_occupancy_counts_the_states(self, calibrated_params):
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 12), 3, 4, keep_times=[])
        for seed in (0, 1):
            by_i0 = sample_from_bundle(bundle, 400, [1, 2, 3, 4], seed)
            for i0, nested in by_i0.items():
                states = recorded_ssa(bundle, 400, i0, seed)[0]
                expect = self._bincounts(states, 3, 4)
                assert np.array_equal(nested.occupancy, expect)

    def test_skipping_states_changes_no_other_output(self, calibrated_params):
        # sample_from_bundle builds no states and shares one generator
        # tensor across the ratings; its outputs equal, bit for bit, those of
        # each rating's own _ssa_batch call with states recorded
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 12), 3, 4, keep_times=[])
        for seed in (0, 1):
            by_i0 = sample_from_bundle(bundle, 400, [1, 2, 3, 4], seed)
            assert list(by_i0) == [1, 2, 3, 4]
            for i0, nested in by_i0.items():
                states, dts, pds, occ = recorded_ssa(bundle, 400, i0, seed)
                assert states.shape == (1200, 13)
                assert np.array_equal(nested.occupancy, occ)
                assert np.array_equal(nested.default_time.ravel(), dts,
                                      equal_nan=True)
                assert np.array_equal(nested.predefault.ravel(), pds)
                assert nested.predefault.dtype == pds.dtype

    def test_generator_tensor_built_once_per_call(self, calibrated_params,
                                                  monkeypatch):
        build, calls = ctmc.piecewise_generators, []
        monkeypatch.setattr(ctmc, "piecewise_generators",
                            lambda bundle: calls.append(1) or build(bundle))
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 12), 3, 4, keep_times=[])
        assert len(sample_from_bundle(bundle, 10, [1, 2, 3], 0)) == 3
        assert len(calls) == 1

    def test_sampling_rejects_an_initial_rating_off_the_scale(self, calibrated_params):
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 12), 3, 4, keep_times=[])
        with pytest.raises(ValidationError, match="initial rating"):
            sample_from_bundle(bundle, 10, [1, 5], 0)

    def test_sampling_holds_no_per_path_states(self, calibrated_params):
        # the (M1*M2, N+1) int8 state matrix alone would take 2.40 MB here
        m1, m2 = 2, 1000
        grid = TimeGrid(1.0, 1200)
        bundle = simulate_with_increments(calibrated_params, HISTORICAL, grid, m1, 0,
                                          keep_times=[])
        tracemalloc.start()
        try:
            nested = sample_from_bundle(bundle, m2, [1], 0)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nested.occupancy[:, -1, 1:].sum() > 0       # paths did move
        assert peak < m1 * m2 * (grid.steps + 1)


class TestNestedSimulate:
    def test_single_frozen_path(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        nested = nested_simulate(params, TimeGrid(1.0, 5),
                                 1, 1, 2, 0)
        expect = np.zeros((1, 6, 4), dtype=np.int64)
        expect[:, :, 1] = 1                   # the one path sits in rating 2
        assert np.array_equal(nested.occupancy, expect)
        assert np.isnan(nested.default_time).all()
        assert np.all(nested.predefault == 0)

    def test_seed_determinism(self, calibrated_params):
        grid = TimeGrid(1.0, 10)
        n1 = nested_simulate(calibrated_params, grid, 3, 5, 1, 21)
        n2 = nested_simulate(calibrated_params, grid, 3, 5, 1, 21)
        # some path leaves rating 1, so the draws are compared, not constants
        assert (n1.occupancy[:, -1, 0] < 5).any()
        assert np.array_equal(n1.occupancy, n2.occupancy)
        assert np.array_equal(n1.default_time, n2.default_time,
                              equal_nan=True)
        assert np.array_equal(n1.predefault, n2.predefault)

    def test_absorption_monotone(self, calibrated_params):
        grid = TimeGrid(1.0, 20)
        nested = nested_simulate(calibrated_params, grid, 5, 50, 3, 2)
        absorbed = nested.occupancy[:, :, 3].sum(axis=0)
        assert absorbed[-1] > 0
        assert np.all(np.diff(absorbed) >= 0)
        # the absorbed count at t_j is the number of defaults by t_j
        by_t = [np.count_nonzero(nested.default_time <= t) for t in grid.times]
        assert np.array_equal(absorbed, by_t)
        defaulted = ~np.isnan(nested.default_time)
        assert np.all((nested.predefault > 0) == defaulted)

    @pytest.mark.parametrize("m1, m2", [(-1, 5), (0, 5), (3, 0)])
    def test_path_counts_must_be_positive(self, calibrated_params, m1, m2):
        with pytest.raises(ValidationError, match="m1 and m2 must be >= 1"):
            nested_simulate(calibrated_params, TimeGrid(1.0, 4), m1, m2, 1, 0)

    def test_chunked_sampling_equals_one_call(self, calibrated_params, monkeypatch):
        # 20 trajectories in chunks of 7: every output equals, bit for bit,
        # sampling the bundle of one chunk of 20
        grid = TimeGrid(1.0, 12)
        monkeypatch.setattr(sde, "_CHUNK", 20)
        whole = simulate_with_increments(calibrated_params, HISTORICAL, grid, 20, 4,
                                         keep_times=[1.0])
        monkeypatch.setattr(sde, "_CHUNK", 7)
        bundle, nested = simulate_nested_paths(calibrated_params, HISTORICAL, grid,
                                               20, 30, [1, 2, 3], 4)
        assert np.array_equal(bundle.matrices, whole.matrices)
        for i0, expect in sample_from_bundle(whole, 30, [1, 2, 3], 4).items():
            for name in ("default_time", "predefault", "occupancy"):
                assert np.array_equal(getattr(nested[i0], name), getattr(expect, name),
                                      equal_nan=True), (i0, name)
        assert (nested[3].predefault > 0).any()          # some paths default


class TestEmpiricalTransition:
    def test_frozen_chain_gives_identity_rows(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_with_increments(params, HISTORICAL, TimeGrid(1.0, 5), 1, 0,
                                          keep_times=[])
        groups = {i0: recorded_ssa(bundle, 20, i0, 0)[0] for i0 in (1, 2, 3)}
        emp, present = empirical_transition(groups, 1.0, bundle.grid, 4)
        assert present == [1, 2, 3]
        assert np.array_equal(emp[:3], np.eye(4)[:3])
        assert np.all(np.isnan(emp[3]))

    def test_k2_analytic_occupancy(self):
        lam = 0.7
        params = SdeParams(k=2, a=np.array([1.0]), b=np.array([0.0]),
                           sigma=np.array([0.0]), y0=np.array([lam]))
        grid = TimeGrid(1.0, 8)
        bundle = simulate_with_increments(params, HISTORICAL, grid, 1, 0, keep_times=[])
        n = 20000
        groups = {1: recorded_ssa(bundle, n, 1, 0)[0]}
        emp, _ = empirical_transition(groups, 1.0, grid, 2)
        p = np.exp(-lam)
        assert abs(emp[0, 0] - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_simulation_error_zero_for_frozen_chain(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_with_increments(params, HISTORICAL, TimeGrid(1.0, 5), 2, 0,
                                          keep_times=[1.0])
        nested = sample_from_bundle(bundle, 10, [1, 2, 3], 0)
        assert simulation_error(bundle, nested, 1.0) <= 1e-12

    def test_simulation_error_over_sampled_rows(self, calibrated_params):
        # one sampled rating: the norm covers its row and the exact absorbing
        # row, divided by rows * K
        bundle = simulate_with_increments(calibrated_params, HISTORICAL,
                                          TimeGrid(1.0, 10), 3, 5, keep_times=[1.0])
        nested = sample_from_bundle(bundle, 200, [2], 5)[2]
        states = recorded_ssa(bundle, 200, 2, 5)[0].reshape(3, 200, -1)
        emp = np.zeros((3, 2, 4))
        emp[:, 0] = [np.bincount(row - 1, minlength=4) / 200
                     for row in states[:, :, -1]]
        emp[:, 1, 3] = 1.0
        model = bundle.matrices_at(1.0)[:, [1, 3]]
        expect = np.linalg.norm(model - emp, axis=(1, 2)).mean() / 8
        assert np.isclose(simulation_error(bundle, {2: nested}, 1.0), expect,
                          rtol=1e-12, atol=0)

    def test_simulation_error_requires_the_bundle_trajectory_count(self,
                                                                   calibrated_params):
        grid = TimeGrid(1.0, 5)
        bundle, nested = simulate_nested_paths(calibrated_params, HISTORICAL, grid,
                                               2, 5, [1, 2], 0)
        other = simulate_paths_threaded(calibrated_params, HISTORICAL, grid, 3, 0,
                                        keep_times=[1.0])
        assert simulation_error(bundle, nested, 1.0) > 0
        with pytest.raises(ValidationError, match="2 trajectories of paths, 3 in"):
            simulation_error(other, nested, 1.0)
