"""Coefficient SDE, measure changes, geometric Euler scheme, densities."""

import itertools
import tracemalloc

import numpy as np
import pytest

from ratingsde import (HISTORICAL, MeasureChange, NumericalError, SdeParams,
                       TimeGrid, ValidationError, default_grid, girsanov_density,
                       kappa_from_h, mean_matrix, simulate_paths,
                       simulate_paths_threaded, var_matrix)
from ratingsde import sde
from ratingsde.lie import coeffs_to_matrices, expm_batch
from ratingsde.sde import (_counter_uniforms, _philox4x32, _products, draw_noise,
                           simulate_terminal)
from ratingsde.svgplot import _FAN_PATHS


def flat_params(k, a, b, sigma):
    nc = (k - 1) ** 2
    return SdeParams(k=k, a=np.full(nc, a), b=np.full(nc, b),
                     sigma=np.full(nc, sigma))


class TestKappaFromH:
    def test_all_ones_collapse_to_ones(self):
        h = np.ones(4)
        for kind in ("jlt", "exponential"):
            kappa = kappa_from_h(MeasureChange(kind=kind, h=h), 4)
            assert np.array_equal(kappa, np.ones(9))

    def test_exponential_ratio(self):
        m = MeasureChange(kind="exponential", h=np.array([2.0, 1.0, 1.0, 1.0]))
        kappa = kappa_from_h(m, 4)
        assert kappa[0] == 2.0       # coordinate (1,2): h_1/h_2
        assert kappa[3] == 0.5       # coordinate (2,1): h_2/h_1

    def test_historical_is_zero(self):
        assert np.array_equal(kappa_from_h(HISTORICAL, 4), np.zeros(9))

    def test_exponential_rejects_zero_h(self):
        with pytest.raises(ValidationError):
            MeasureChange(kind="exponential", h=np.array([0.0, 1.0, 1.0, 1.0]))

    def test_h_last_must_be_one(self):
        with pytest.raises(ValidationError):
            MeasureChange(kind="jlt", h=np.array([1.0, 1.0, 1.0, 2.0]))


class TestSimulatePaths:
    def test_degenerate_params_freeze_at_identity(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 10), 3, 0)
        assert np.allclose(bundle.rpaths,
                           np.broadcast_to(np.eye(4), (3, 11, 4, 4)))

    def test_deterministic_ode_oracle(self):
        # K=2, a=1, b=lambda, sigma=0: cumulative intensity -> lambda T^2/2
        lam = 0.8
        grid = TimeGrid(1.0, 4000)
        params = flat_params(2, 1.0, lam, 0.0)
        bundle = simulate_paths(params, HISTORICAL, grid, 1, 0)
        p12 = bundle.rpaths[0, -1, 0, 1]
        assert p12 == pytest.approx(1.0 - np.exp(-lam / 2.0), abs=2e-4)

    def test_all_steps_row_stochastic(self, calibrated_params):
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 30), 50, 1)
        rp = bundle.rpaths
        assert np.abs(rp.sum(axis=-1) - 1.0).max() <= 1e-9
        assert rp.min() >= 0.0 and rp.max() <= 1.0 + 1e-12
        assert np.allclose(rp[:, :, -1, :], np.broadcast_to(
            np.eye(4)[-1], rp[:, :, -1, :].shape))

    def test_increments_nonnegative(self, calibrated_params):
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 20), 10, 2)
        assert bundle.increments.min() >= 0.0

    def test_measure_change_equals_drift_shift_bitwise(self):
        params = flat_params(4, 1.2, 0.05, 0.08)
        grid = TimeGrid(1.0, 25)
        h = np.array([2.0, 1.5, 0.5, 1.0])
        measure = MeasureChange(kind="exponential", h=h)
        kappa = kappa_from_h(measure, 4)
        shifted = SdeParams(k=4, a=params.a, b=params.b + params.sigma * kappa,
                            sigma=params.sigma)
        b_q = simulate_paths(params, measure, grid, 20, 3)
        b_p = simulate_paths(shifted, HISTORICAL, grid, 20, 3)
        assert np.array_equal(b_q.rpaths, b_p.rpaths)

    def test_seed_determinism(self, calibrated_params):
        g = TimeGrid(1.0, 15)
        b1 = simulate_paths(calibrated_params, HISTORICAL, g, 8, 11)
        b2 = simulate_paths(calibrated_params, HISTORICAL, g, 8, 11)
        assert np.array_equal(b1.rpaths, b2.rpaths)

    def test_chunked_matches_single_call_bitwise(self, calibrated_params):
        g = TimeGrid(1.0, 15)
        single = simulate_paths(calibrated_params, HISTORICAL, g, 600, 5)
        for keep_paths, keep_increments in ((50, False), (300, True), (0, True)):
            chunked = simulate_paths_threaded(     # 3 chunks of <= 256
                calibrated_params, HISTORICAL, g, 600, 5, keep_times=[1.0, 0.2, 1.0],
                keep_paths=keep_paths, keep_increments=keep_increments)
            assert chunked.kept == (3, 15)
            assert np.array_equal(chunked.matrices, single.rpaths[:, [3, 15]])
            for t, idx in ((0.2, 3), (1.0, 15)):
                assert np.array_equal(chunked.matrices_at(t), single.rpaths[:, idx])
            assert np.array_equal(chunked.rpaths, single.rpaths[:keep_paths])
            if keep_increments:
                assert np.array_equal(chunked.increments, single.increments)
            else:
                assert chunked.increments is None

    def test_matrices_at_a_time_not_kept_raises(self, calibrated_params):
        bundle = simulate_paths_threaded(calibrated_params, HISTORICAL,
                                         TimeGrid(1.0, 15), 20, 5, keep_times=[1.0],
                                         keep_paths=0, keep_increments=False)
        assert bundle.matrices_at(1.0).shape == (20, 4, 4)
        for read in (bundle.matrices_at, lambda t: mean_matrix(bundle, t)):
            with pytest.raises(ValidationError, match="not kept"):
                read(0.2)

    def test_executor_holds_less_than_the_full_path_array(self, calibrated_params):
        # simulate's arguments at the paper's size; the (M, N+1, K, K) array
        # of every R_k that the executor no longer holds takes 15.5 MB
        m, grid = 1000, TimeGrid(1.0, 120)
        tracemalloc.start()
        try:
            simulate_paths_threaded(calibrated_params, HISTORICAL, grid, m, 0,
                                    keep_times=[1 / 12, 0.25, 0.5, 1.0, 1.0],
                                    keep_paths=_FAN_PATHS, keep_increments=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * (grid.steps + 1) * 4 * 4 * 8

    def test_skipping_products_keeps_increments_bitwise(self, calibrated_params):
        g = TimeGrid(1.0, 15)
        full = simulate_paths(calibrated_params, HISTORICAL, g, 7, 5)
        lean = simulate_paths(calibrated_params, HISTORICAL, g, 7, 5,
                              store_rpaths=False)
        assert lean.rpaths is None
        assert np.array_equal(lean.increments, full.increments)

    def test_non_finite_increments_raise(self):
        params = flat_params(4, 400.0, 3.0, 3.0)
        with pytest.raises(NumericalError, match="non-finite"):
            simulate_paths(params, HISTORICAL, TimeGrid(1.0, 120), 5, 0,
                           store_rpaths=False)

    def test_terminal_matches_full_simulation(self, calibrated_params):
        g = TimeGrid(1.0, 15)
        bundle = simulate_paths(calibrated_params, HISTORICAL, g, 6, 9)
        rt = simulate_terminal(calibrated_params, HISTORICAL, g, draw_noise(4, g, 6, 9))
        assert np.array_equal(bundle.rpaths[:, -1], rt)

    @pytest.mark.parametrize("shape", [(0, 15, 9), (6, 14, 9), (6, 15, 4), (15, 9)])
    def test_terminal_rejects_misshapen_noise(self, calibrated_params, shape):
        with pytest.raises(ValidationError, match="noise must have shape"):
            simulate_terminal(calibrated_params, HISTORICAL, TimeGrid(1.0, 15),
                              np.zeros(shape))

    def test_strong_convergence_under_halving(self):
        # halving dt changes the terminal matrix at O(dt) on a smoke test
        params = flat_params(4, 1.3, 0.3, 0.0)
        ref = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 512), 1, 0)
        r_ref = ref.rpaths[0, -1]
        errs = []
        for n in (32, 64, 128):
            b = simulate_paths(params, HISTORICAL, TimeGrid(1.0, n), 1, 0)
            errs.append(np.linalg.norm(b.rpaths[0, -1] - r_ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)


def _products_per_step(increments, k, rpaths=None):
    """R_{k+1} = R_k exp(dA_k) with one expm_batch call per step."""
    m, n, _ = increments.shape
    r = np.broadcast_to(np.eye(k), (m, k, k)).copy()
    if rpaths is not None:
        rpaths[:, 0] = r
    for step in range(n):
        r = r @ expm_batch(coeffs_to_matrices(increments[:, step], k))
        r[:, -1, :] = 0.0
        r[:, -1, -1] = 1.0
        if rpaths is not None:
            rpaths[:, step + 1] = r
    return r


class TestProducts:
    # blocks of 4096 // m steps: one block (m=1), full blocks (m=100),
    # a partial last block (m=256, 300) and one step per block (m=4097)
    @pytest.mark.parametrize("m, n", [(1, 120), (100, 120), (256, 13), (256, 120),
                                      (300, 13), (300, 120), (4097, 13)])
    def test_blocked_steps_match_per_step_loop(self, m, n):
        rng = np.random.default_rng(m + n)
        increments = rng.uniform(0.0, 0.01, (m, n, 9))
        increments[:, ::5] *= 300.0          # some factors need squarings
        assert np.array_equal(_products(increments, 4),
                              _products_per_step(increments, 4))
        rpaths, ref = np.empty((2, m, n + 1, 4, 4))
        assert np.array_equal(_products(increments, 4, rpaths),
                              _products_per_step(increments, 4, ref))
        assert np.array_equal(rpaths, ref)

    def test_one_expm_batch_call_per_block(self, monkeypatch):
        shapes = []

        def counting(a):
            shapes.append(a.shape[:-2])
            return expm_batch(a)

        monkeypatch.setattr(sde, "expm_batch", counting)
        _products(np.full((256, 120, 9), 1e-3), 4)
        assert shapes == [(16, 256)] * 7 + [(8, 256)]


class TestGirsanovDensity:
    def test_zero_kernel_is_unit_density(self):
        grid = TimeGrid(1.0, 5)
        w = np.zeros((5, 9))
        assert girsanov_density(np.zeros(9), w, grid) == 1.0

    def test_plug_in_value(self):
        # W_T = 0 and |kappa|^2 T = 2 -> L_T = e^{-1}
        grid = TimeGrid(1.0, 4)
        kappa = np.array([np.sqrt(2.0)])
        w = np.array([[0.5], [-0.5], [0.25], [-0.25]])
        assert girsanov_density(kappa, w, grid) == pytest.approx(np.exp(-1.0))

    def test_martingale_property(self):
        grid = TimeGrid(1.0, 8)
        rng = np.random.default_rng(12)
        kappa = rng.uniform(-0.5, 0.5, 9)
        w = rng.standard_normal((20000, 8, 9)) * np.sqrt(grid.dt)
        l = girsanov_density(kappa, w, grid)
        assert abs(l.mean() - 1.0) <= 3.0 * l.std(ddof=1) / np.sqrt(l.size)

    def test_density_from_bundle_increments(self):
        g = TimeGrid(1.0, 10)
        w = draw_noise(4, g, 4, 13) * np.sqrt(g.dt)   # the W that drives a bundle
        l = girsanov_density(np.zeros(9), w, g)
        assert np.array_equal(l, np.ones(4))


class TestMoments:
    def test_zero_volatility_variance_is_zero(self):
        params = flat_params(4, 1.0, 0.2, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 10), 5, 0)
        assert np.abs(var_matrix(bundle, 1.0)).max() == 0.0

    def test_single_trajectory_variance_rejected(self, calibrated_params):
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 5), 1, 0)
        with pytest.raises(ValidationError):
            var_matrix(bundle, 1.0)

    def test_identity_mean(self):
        params = flat_params(4, 1.0, 0.0, 0.0)
        bundle = simulate_paths(params, HISTORICAL, TimeGrid(1.0, 5), 4, 0)
        assert np.allclose(mean_matrix(bundle, 1.0), np.eye(4), atol=1e-12)

    def test_off_grid_time_rejected(self, calibrated_params):
        bundle = simulate_paths(calibrated_params, HISTORICAL,
                                TimeGrid(1.0, 7), 2, 0)
        with pytest.raises(ValidationError):
            mean_matrix(bundle, 0.5)


class TestRngContract:
    def test_noise_is_per_trajectory_per_coordinate(self):
        g = TimeGrid(1.0, 6)
        z_all = draw_noise(4, g, 3, 42)
        z_tail = draw_noise(4, g, 2, 42, traj_offset=1)
        assert np.array_equal(z_all[1:], z_tail)

    def test_noise_steps_are_prefix_invariant(self):
        z6 = draw_noise(4, TimeGrid(1.0, 6), 3, 42)
        z9 = draw_noise(4, TimeGrid(1.0, 9), 3, 42)
        assert np.array_equal(z6, z9[:, :6])

    def test_noise_law(self):
        # 2.16e6 draws: N(0, 1) mean and variance, and no lag-1 correlation
        # along steps or across coordinates, each within 3 standard errors
        z = draw_noise(4, TimeGrid(1.0, 120), 2000, 7)
        n = z.size
        assert abs(z.mean()) <= 3.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)
        for lead, lag in ((z[:, 1:], z[:, :-1]), (z[..., 1:], z[..., :-1])):
            r = np.corrcoef(lead.ravel(), lag.ravel())[0, 1]
            assert abs(r) <= 3.0 / np.sqrt(lead.size)

    @pytest.mark.parametrize("counter, key, expected", [
        ((0, 0, 0, 0), (0, 0),
         (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
        ((0xffffffff,) * 4, (0xffffffff,) * 2,
         (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
        ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344),
         (0xa4093822, 0x299f31d0),
         (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
    ])
    def test_philox_known_answers(self, counter, key, expected):
        # Random123 known-answer vectors for Philox4x32-10
        out = _philox4x32([np.array([c]) for c in counter], key)
        assert tuple(int(x[0]) for x in out) == expected

    def test_philox_broadcast_counters_match_full_arrays(self):
        # _counter_uniforms passes a scalar 0 word and a column of events
        key = (0xa4093822, 0x299f31d0)
        mask = np.uint64(0xFFFFFFFF)
        c0 = np.arange(480, dtype=np.uint64).reshape(3, 1, 160) * np.uint64(0x9E3779B9)
        counter = (c0 & mask, np.uint64(7), np.arange(40, dtype=np.uint64)[:, None], 0)
        before = [np.copy(c) for c in counter]
        full = [np.array(np.broadcast_to(c, (3, 40, 160))) for c in counter]
        for got, want in zip(_philox4x32(counter, key), _philox4x32(full, key)):
            assert got.shape == (3, 40, 160)
            assert np.array_equal(got, want)
        for c, b in zip(counter, before):
            assert np.array_equal(c, b)

    def test_box_muller_cap_at_extreme_words(self, monkeypatch):
        # the radius uniform is at least 2**-33, so |z| <= sqrt(66 ln 2)
        cap = np.sqrt(66.0 * np.log(2.0))
        top = 2 ** 32 - 1
        largest = 0.0
        for words in itertools.product((0, top), repeat=4):
            def fixed(counter, key, words=words):
                shape = np.broadcast_shapes(*(np.shape(c) for c in counter))
                return tuple(np.full(shape, w, dtype=np.uint64) for w in words)

            monkeypatch.setattr(sde, "_philox4x32", fixed)
            z = sde._counter_normals((0, 0), np.zeros((1, 1), dtype=np.int64), 4)
            assert np.isfinite(z).all()
            assert np.abs(z).max() <= cap * (1.0 + 1e-12), words
            largest = max(largest, np.abs(z).max())
        assert largest >= cap * (1.0 - 1e-9)      # words (0, 0): r at its cap, cos 1

    def test_box_muller_pairs_are_independent(self):
        # steps 4i, 4i+1 and 4i+2, 4i+3 share a counter; within 3 standard
        # errors the normals of a pair are uncorrelated, and so are their
        # squares, which a radius or angle shared wrongly would correlate
        z = draw_noise(4, TimeGrid(1.0, 120), 2000, 7)
        first = np.concatenate([z[:, 0::4], z[:, 2::4]]).ravel()
        second = np.concatenate([z[:, 1::4], z[:, 3::4]]).ravel()
        bound = 3.0 / np.sqrt(first.size)
        assert abs(np.corrcoef(first, second)[0, 1]) <= bound
        assert abs(np.corrcoef(first ** 2, second ** 2)[0, 1]) <= bound



_MASK32 = np.uint64(0xFFFFFFFF)


def _philox4x32_uint64(counter, key):
    """Oracle: Philox4x32-10 with every word held in uint64 and each product
    split by a shift and a mask."""
    mult = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
    weyl = (np.uint64(0x9E3779B9), np.uint64(0xBB67AE85))
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = (np.uint64(w) for w in key)
    shift = np.uint64(32)
    for rnd in range(10):
        if rnd:
            k0 = (k0 + weyl[0]) & _MASK32
            k1 = (k1 + weyl[1]) & _MASK32
        p0 = mult[0] * c0
        p1 = mult[1] * c2
        c0, c1, c2, c3 = ((p1 >> shift) ^ c1 ^ k0, p1 & _MASK32,
                          (p0 >> shift) ^ c3 ^ k1, p0 & _MASK32)
    return c0, c1, c2, c3


class TestPhiloxOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_words_match_the_uint64_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # half of the words at or above 2**31, where a signed or a 31-bit
        # slip would show
        counter = [np.where(rng.random(5000) < 0.5,
                            rng.integers(2 ** 31, 2 ** 32, 5000, dtype=np.uint64),
                            rng.integers(0, 2 ** 32, 5000, dtype=np.uint64))
                   for _ in range(4)]
        key = rng.integers(2 ** 31, 2 ** 32, 2, dtype=np.uint64)
        for got, want in zip(_philox4x32(counter, key), _philox4x32_uint64(counter, key)):
            assert got.dtype == np.uint32
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shapes", [
        ((), (), (), ()),
        ((7,), (), (), ()),
        ((3, 1, 5), (), (4, 1), ()),
        ((1, 5), (3, 1), (), (1, 1)),
        ((), (6,), (), (2, 1)),
    ])
    def test_broadcast_and_scalar_shapes_match_the_oracle(self, shapes):
        rng = np.random.default_rng(len(shapes[0]))
        counter = [rng.integers(0, 2 ** 32, shape, dtype=np.uint64) for shape in shapes]
        key = (0xFFFFFFFF, 0x80000000)
        for got, want in zip(_philox4x32(counter, key), _philox4x32_uint64(counter, key)):
            assert got.shape == want.shape == np.broadcast_shapes(*shapes)
            assert np.array_equal(got, want)

    def test_uniforms_keep_the_high_index_word(self):
        # every index >= 2**32 here, so the high counter word is never 0
        index = np.array([2 ** 32, 2 ** 32 + 5, 2 ** 33 - 1, 2 ** 45 + 3, 2 ** 63 + 11],
                         dtype=np.uint64)
        event = np.arange(3)[:, None]
        key = (0x243F6A88, 0x85A308D3)
        words = _philox4x32_uint64((index & _MASK32, index >> np.uint64(32), event, 0), key)
        for got, x in zip(_counter_uniforms(key, index, event), words):
            assert np.array_equal(got, (x + 0.5) * 2.0 ** -32)
        low = _counter_uniforms(key, index & _MASK32, event)
        assert not np.array_equal(low[0], _counter_uniforms(key, index, event)[0])

    def test_uniforms_mix_low_and_high_indices(self):
        index = np.array([0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 17])
        key = (1, 2)
        words = _philox4x32_uint64((index.astype(np.uint64) & _MASK32,
                                    index.astype(np.uint64) >> np.uint64(32), 4, 0), key)
        for got, x in zip(_counter_uniforms(key, index, 4), words):
            assert np.array_equal(got, (x + 0.5) * 2.0 ** -32)

    def test_two_words_are_the_first_two_of_four(self):
        index = np.arange(1000) + 2 ** 32 - 500
        four = _counter_uniforms((9, 10), index, 3)
        two = _counter_uniforms((9, 10), index, 3, words=2)
        assert len(four) == 4 and len(two) == 2
        for got, want in zip(two, four[:2]):
            assert np.array_equal(got, want)

def test_default_grid_steps():
    assert default_grid().steps == 120
    assert default_grid(0.5).steps == 60
