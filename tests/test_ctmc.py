"""Piecewise generators and Gillespie rating-path sampling."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from ratingsde import (HISTORICAL, SdeParams, TimeGrid, ValidationError,
                       empirical_transition, piecewise_generators,
                       simulate_paths, simulation_error)
from ratingsde.ctmc import _ssa_batch, sample_from_bundle
from ratingsde.lie import expm_batch
from ratingsde.sde import _philox_key

from conftest import recorded_ssa


def flat_params(k, a, b, sigma):
    nc = (k - 1) ** 2
    return SdeParams(k=k, a=np.full(nc, a), b=np.full(nc, b),
                     sigma=np.full(nc, sigma))


def nested_simulate(params, grid, m1, m2, i0, seed):
    """m2 rating paths from i0 on each of m1 matrix trajectories, as `ssa` runs."""
    bundle = simulate_paths(params, HISTORICAL, grid, m1, seed)
    return sample_from_bundle(bundle, m2, i0, seed)


CONST_GEN = np.array([
    [-0.8, 0.5, 0.2, 0.1],
    [0.3, -0.9, 0.4, 0.2],
    [0.1, 0.2, -0.8, 0.5],
    [0.0, 0.0, 0.0, 0.0],
])


class TestPiecewiseGenerators:
    def test_zero_increments_give_zero_generators(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 5), 2, 0)
        gens = piecewise_generators(bundle)
        assert np.array_equal(gens, np.zeros((2, 5, 4, 4)))

    def test_constant_rate_k2(self):
        lam = 0.6
        params = SdeParams(k=2, a=np.array([1.0]), b=np.array([0.0]),
                           sigma=np.array([0.0]), y0=np.array([lam]))
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 4), 1, 0)
        gens = piecewise_generators(bundle)
        assert np.allclose(gens, np.broadcast_to(
            np.array([[-lam, lam], [0.0, 0.0]]), (1, 4, 2, 2)), atol=1e-12)

    def test_exp_of_generator_reproduces_step_factor(self, calibrated_params):
        grid = TimeGrid(1.0, 10)
        bundle = simulate_paths(calibrated_params, HISTORICAL, grid, 3, 4)
        gens = piecewise_generators(bundle)
        rp = bundle.require_rpaths()
        factors = expm_batch(gens * grid.dt)
        rebuilt = np.empty_like(rp)
        rebuilt[:, 0] = np.eye(4)
        for s in range(grid.steps):
            rebuilt[:, s + 1] = rebuilt[:, s] @ factors[:, s]
            rebuilt[:, s + 1, -1, :] = np.eye(4)[-1]
        assert np.allclose(rebuilt, rp, atol=1e-13)


def _ssa_one_gen(gen_path, grid, i0, n, key):
    """_ssa_batch for n paths that all follow one generator sequence."""
    return _ssa_batch(gen_path[None], np.zeros(n, dtype=int),
                      np.full(n, i0), grid, key)


class TestSsaSample:
    def test_absorbing_start_is_constant(self):
        states, dts, _ = _ssa_one_gen(np.broadcast_to(CONST_GEN, (6, 4, 4)),
                                      TimeGrid(1.0, 6), 4, 1, _philox_key([0]))
        assert np.all(states == 4)
        assert dts[0] == 0.0

    def test_zero_generator_holds_state(self):
        states, dts, _ = _ssa_one_gen(np.zeros((6, 4, 4)), TimeGrid(1.0, 6),
                                      2, 1, _philox_key([0]))
        assert np.all(states == 2)
        assert np.isnan(dts[0])

    def test_survival_probability_matches_exponential(self):
        lam, delta = 1.4, 0.5
        gen = np.array([[[-lam, lam], [0.0, 0.0]]])
        n = 20000
        states, _, _ = _ssa_one_gen(gen, TimeGrid(delta, 1), 1, n, _philox_key([5]))
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
        states, _, _ = _ssa_batch(gen[None, None], np.zeros(n, dtype=int),
                                  np.ones(n, dtype=int), grid, _philox_key([6]))
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
        _, dts, _ = _ssa_one_gen(gen, TimeGrid(60.0, 1), 1, 4000, _philox_key([7]))
        ks = stats.kstest(dts[~np.isnan(dts)], "expon", args=(0, 1 / lam))
        assert ks.pvalue > 0.01


class TestSsaBatch:
    def test_matches_matrix_exponential(self):
        grid = TimeGrid(1.0, 1)
        n = 50000
        states, _, _ = _ssa_batch(CONST_GEN[None, None],
                                  np.zeros(n, dtype=int),
                                  np.full(n, 2), grid, _philox_key([8]))
        freq = np.bincount(states[:, -1] - 1, minlength=4) / n
        target = expm(CONST_GEN)[1]
        se = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 3 * se + 1e-12)

    def test_default_times_recorded_exactly(self):
        grid = TimeGrid(1.0, 4)
        states, dts, pds = _ssa_batch(CONST_GEN[None, None].repeat(4, axis=1),
                                      np.zeros(2000, dtype=int),
                                      np.full(2000, 3), grid, _philox_key([9]))
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
        states, _, _ = _ssa_batch(gens[None], np.zeros(n, dtype=int),
                                  np.full(n, 1), grid, _philox_key([10]))
        target = np.eye(4)
        for g in gens:
            target = target @ expm(g * grid.dt)
        freq = np.bincount(states[:, -1] - 1, minlength=4) / n
        se = np.sqrt(target[0] * (1 - target[0]) / n)
        assert np.all(np.abs(freq - target[0]) <= 3 * se + 1e-12)

    def test_paths_are_independent_of_the_batch(self, calibrated_params):
        # path p draws from counter (path_offset + p, event): two halves
        # with matching offsets equal one call bit for bit
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 24), 4, 3, store_rpaths=False)
        gens = piecewise_generators(bundle) * 50.0   # several jumps per path
        p = 2000
        gen_index = np.arange(p) % 4
        i0 = 1 + np.arange(p) % 3
        key = _philox_key([11])
        whole = _ssa_batch(gens, gen_index, i0, bundle.grid, key)
        half = p // 2
        parts = [_ssa_batch(gens, gen_index[sl], i0[sl], bundle.grid, key,
                            path_offset=sl.start)
                 for sl in (slice(0, half), slice(half, p))]
        jumps = np.count_nonzero(np.diff(whole[0], axis=1), axis=1)
        assert np.count_nonzero(jumps >= 2) > p // 10
        for w, a, b in zip(whole, *parts):
            assert np.array_equal(w, np.concatenate([a, b]), equal_nan=True)


class TestOccupancy:
    @staticmethod
    def _bincounts(states, gen_index, g, k):
        return np.stack([np.stack([np.bincount(col - 1, minlength=k)
                                   for col in states[gen_index == i].T])
                         for i in range(g)])

    def test_batch_occupancy_counts_the_returned_states(self, calibrated_params):
        # fast and calibrated time-varying generators, one active only in the
        # last interval, one that never moves; every start rating
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 24), 2, 3, store_rpaths=False)
        gens = piecewise_generators(bundle)
        last_only = np.zeros_like(gens[:1])
        last_only[0, -1] = CONST_GEN * 20.0
        gens = np.concatenate([gens * 50.0, gens, last_only,
                               np.zeros_like(gens[:1])])
        p, n = 1200, bundle.grid.steps
        gen_index = np.arange(p) % 6
        i0 = 1 + (np.arange(p) // 6) % 4
        for seed in (11, 12, 13):
            occ = np.empty((6, n + 1, 4), dtype=np.int64)
            states, _, _ = _ssa_batch(gens, gen_index, i0, bundle.grid,
                                      _philox_key([seed]), occupancy=occ)
            assert np.array_equal(occ, self._bincounts(states, gen_index, 6, 4))
            jumps = np.diff(states, axis=1) != 0
            only_last = jumps[:, -1] & ~jumps[:, :-1].any(axis=1)
            assert only_last[gen_index == 4].any()
            assert (~jumps.any(axis=1) & (i0 != 4)).any()

    def test_nested_occupancy_counts_the_states(self, calibrated_params):
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 12), 3, 4)
        for seed in (0, 1):
            for i0 in (1, 2, 3, 4):
                nested = sample_from_bundle(bundle, 400, i0, seed)
                states = recorded_ssa(bundle, 400, i0, seed)[0]
                expect = self._bincounts(states, np.repeat(np.arange(3), 400), 3, 4)
                assert np.array_equal(nested.occupancy, expect)

    def test_skipping_states_changes_no_other_output(self, calibrated_params):
        # sample_from_bundle builds no states; its outputs equal, bit for
        # bit, those of the same _ssa_batch call with states recorded
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 12), 3, 4)
        for seed in (0, 1):
            for i0 in (1, 2, 3, 4):
                nested = sample_from_bundle(bundle, 400, i0, seed)
                states, dts, pds, occ = recorded_ssa(bundle, 400, i0, seed)
                assert states.shape == (1200, 13)
                assert np.array_equal(nested.occupancy, occ)
                assert np.array_equal(nested.default_time.ravel(), dts,
                                      equal_nan=True)
                assert np.array_equal(nested.predefault.ravel(), pds)
                assert nested.predefault.dtype == pds.dtype

    def test_sampling_holds_no_per_path_states(self, calibrated_params):
        # the (M1*M2, N+1) int8 state matrix alone would take 2.40 MB here
        m1, m2 = 2, 1000
        grid = TimeGrid(1.0, 1200)
        bundle = simulate_paths(calibrated_params, HISTORICAL, grid, m1, 0)
        tracemalloc.start()
        try:
            nested = sample_from_bundle(bundle, m2, 1, 0)
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


class TestEmpiricalTransition:
    def test_frozen_chain_gives_identity_rows(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 5), 1, 0)
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
        bundle = simulate_paths(params, HISTORICAL, grid, 1, 0)
        n = 20000
        groups = {1: recorded_ssa(bundle, n, 1, 0)[0]}
        emp, _ = empirical_transition(groups, 1.0, grid, 2)
        p = np.exp(-lam)
        assert abs(emp[0, 0] - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_simulation_error_zero_for_frozen_chain(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 5), 2, 0)
        nested = {i0: sample_from_bundle(bundle, 10, i0, 0) for i0 in (1, 2, 3)}
        assert simulation_error(nested, 1.0) <= 1e-12

    def test_simulation_error_over_sampled_rows(self, calibrated_params):
        # one sampled rating: the norm covers its row and the exact absorbing
        # row, divided by rows * K
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 10), 3, 5)
        nested = sample_from_bundle(bundle, 200, 2, 5)
        states = recorded_ssa(bundle, 200, 2, 5)[0].reshape(3, 200, -1)
        emp = np.zeros((3, 2, 4))
        emp[:, 0] = [np.bincount(row - 1, minlength=4) / 200
                     for row in states[:, :, -1]]
        emp[:, 1, 3] = 1.0
        model = bundle.require_rpaths()[:, -1][:, [1, 3]]
        expect = np.linalg.norm(model - emp, axis=(1, 2)).mean() / 8
        assert np.isclose(simulation_error({2: nested}, 1.0), expect,
                          rtol=1e-12, atol=0)

    def test_simulation_error_requires_shared_bundle(self, calibrated_params):
        grid = TimeGrid(1.0, 5)
        n1 = nested_simulate(calibrated_params, grid, 2, 5, 1, 0)
        n2 = nested_simulate(calibrated_params, grid, 2, 5, 2, 1)
        with pytest.raises(ValidationError):
            simulation_error({1: n1, 2: n2}, 1.0)
