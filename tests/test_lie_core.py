"""Lie algebra/group core: basis, exponential, derivative operators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratingsde import (ValidationError, ad, basis_index_map, dexp_L, n_coords,
                       validate_stochastic)
from ratingsde import lie
from ratingsde.datasets import annual_example, cohort_1y
from ratingsde.lie import coeffs_to_matrices, expm_batch


def taylor_expm(a: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated-series oracle; the input is scaled below norm 1/2 first
    and squared back, since the raw series cancels catastrophically for
    large intensities."""
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300) / 0.5))))
    x = a / 2 ** s
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class TestBasisIndexMap:
    def test_k4_row_major_order(self):
        m = basis_index_map(4)
        assert m.pairs == ((1, 2), (1, 3), (1, 4), (2, 1), (2, 3),
                           (2, 4), (3, 1), (3, 2), (3, 4))

    def test_first_index_is_one_two(self):
        assert basis_index_map(4).pairs[0] == (1, 2)

    def test_fourth_index_is_two_one(self):
        assert basis_index_map(4).pairs[3] == (2, 1)

    def test_k2_single_coordinate(self):
        assert basis_index_map(2).pairs == ((1, 2),)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValidationError):
            basis_index_map(1)

    def test_labels(self):
        assert basis_index_map(2).labels() == ["1-2"]


class TestAlgebraFromCoeffs:
    def test_zero_coeffs_give_zero_matrix(self):
        a = coeffs_to_matrices(np.zeros(9), 4)
        assert np.array_equal(a, np.zeros((4, 4)))

    def test_k2_single_rate(self):
        a = coeffs_to_matrices(np.array([0.7]), 2)
        assert np.allclose(a, [[-0.7, 0.7], [0.0, 0.0]])

    def test_first_basis_element(self):
        a = coeffs_to_matrices(np.eye(9)[0], 4)
        expect = np.zeros((4, 4))
        expect[0, 0], expect[0, 1] = -1.0, 1.0
        assert np.array_equal(a, expect)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_sums_zero_and_last_row_zero(self, seed):
        rng = np.random.default_rng(seed)
        a = coeffs_to_matrices(rng.uniform(0, 5, 9), 4)
        assert np.abs(a.sum(axis=1)).max() <= 1e-14
        assert np.array_equal(a[-1], np.zeros(4))


class TestMatExp:
    def test_exp_zero_is_identity(self):
        out = expm_batch(np.zeros((1, 4, 4)))[0]
        assert np.array_equal(out, np.eye(4))

    def test_k2_closed_form(self):
        out = expm_batch(np.array([[[-1.0, 1.0], [0.0, 0.0]]]))[0]
        assert np.allclose(out, [[np.exp(-1), 1 - np.exp(-1)], [0.0, 1.0]],
                           atol=1e-14)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = coeffs_to_matrices(rng.uniform(0, 5, 9), 4)
            assert np.allclose(expm_batch(a[None])[0], taylor_expm(a), atol=1e-12)

    def test_group_closure(self):
        rng = np.random.default_rng(3)
        ca = coeffs_to_matrices(rng.uniform(0, 3, 9), 4)
        cb = coeffs_to_matrices(rng.uniform(0, 3, 9), 4)
        ea, eb = expm_batch(np.stack([ca, cb]))
        assert validate_stochastic(ea @ eb, 1e-10) is None

    def test_expm_batch_per_matrix_scaling_is_partition_independent(self):
        rng = np.random.default_rng(11)
        # one tiny and one large generator in the same batch
        mats = coeffs_to_matrices(np.stack([rng.uniform(0, 0.01, 9),
                                            rng.uniform(20, 40, 9)]), 4)
        both = expm_batch(mats)
        solo = np.stack([expm_batch(mats[i:i + 1])[0] for i in range(2)])
        assert np.array_equal(both, solo)


def _sparse_generators(scale: float) -> np.ndarray:
    """2000 K=4 generators with coefficients in [0, scale], 60% set to zero."""
    rng = np.random.default_rng(13)
    c = rng.uniform(0, scale, (2000, 9))
    c[rng.uniform(size=c.shape) < 0.6] = 0.0
    return coeffs_to_matrices(c, 4)


def _generators_at(lam: float, n: int = 200, seed: int = 5) -> np.ndarray:
    """n K=4 generators whose largest exit rate max_i(-A_ii) is lam."""
    c = np.random.default_rng(seed).uniform(0, 1, (n, 9))
    exit_rate = -np.diagonal(coeffs_to_matrices(c, 4), axis1=1, axis2=2).min(axis=1)
    return coeffs_to_matrices(c * (lam / exit_rate)[:, None], 4)


class TestExpmBatch:
    @pytest.mark.parametrize("scale", [0.01, 5.0, 50.0])
    def test_no_negative_entries(self, scale):
        assert expm_batch(_sparse_generators(scale)).min() >= 0.0

    @pytest.mark.parametrize("lam, degree, squarings", [
        (7e-3, 6, 0),                       # the largest exit rate at paper sizes
        (lie._THETA6 * (1 - 1e-6), 6, 0),
        (lie._THETA6 * (1 + 1e-6), 8, 0),
        (lie._THETA8 * (1 - 1e-6), 8, 0),
        (lie._THETA8 * (1 + 1e-6), 8, 1)])
    def test_degree_boundaries_match_scipy(self, monkeypatch, lam, degree, squarings):
        from scipy.linalg import expm

        series, taylor = [], lie._taylor
        monkeypatch.setattr(lie, "_taylor", lambda x, d: (
            series.append((d, x.sum(axis=-1).max())) or taylor(x, d)))
        a = _generators_at(lam)
        out = expm_batch(a)
        # one series over the whole batch, of ||X||_inf = lam / 2^squarings
        assert series == [(degree, pytest.approx(lam / 2 ** squarings, rel=1e-12))]
        assert np.abs(out - np.stack([expm(g) for g in a])).max() <= 1e-15
        assert out.min() >= 0.0

    def test_mixed_batch_equals_each_solo_call_bitwise(self):
        lams = (7e-3, lie._THETA6 * (1 - 1e-6), lie._THETA6 * (1 + 1e-6),
                lie._THETA8 * (1 + 1e-6), 30.0)
        a = np.concatenate([_generators_at(lam, 20, seed)
                            for seed, lam in enumerate(lams)])
        a = a[np.random.default_rng(3).permutation(len(a))]
        solo = np.stack([expm_batch(g[None])[0] for g in a])
        assert np.array_equal(expm_batch(a), solo)

    def test_non_finite_generators_spoil_only_themselves(self):
        c = np.random.default_rng(2).uniform(0, 1e-3, (2, 9))
        c[0, 1], c[1, 4] = np.nan, np.inf
        a = np.concatenate([_generators_at(7e-3, 3), coeffs_to_matrices(c, 4),
                            _generators_at(5.0, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):   # as in sde._products
                out = expm_batch(a)
                solo = [expm_batch(g[None])[0] for g in a]
        assert not np.isfinite(out[3]).all() and not np.isfinite(out[4]).all()
        for i in (0, 1, 2, 5, 6, 7):
            assert np.isfinite(out[i]).all() and np.array_equal(out[i], solo[i])

    @pytest.mark.parametrize("scale, tol", [(0.01, 1e-15), (5.0, 1e-12),
                                            (50.0, 1e-12)])
    def test_matches_scipy(self, scale, tol):
        from scipy.linalg import expm

        a = _sparse_generators(scale)
        ref = np.stack([expm(g) for g in a])
        assert np.abs(expm_batch(a) - ref).max() <= tol


class TestAd:
    def test_self_commutator_vanishes(self):
        a = np.random.default_rng(0).standard_normal((3, 3))
        assert np.array_equal(ad(a, a), np.zeros((3, 3)))

    def test_identity_commutes(self):
        h = np.random.default_rng(1).standard_normal((3, 3))
        assert np.allclose(ad(np.eye(3), h), 0.0)

    def test_hand_computed_2x2(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(ad(a, h), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            ad(np.eye(2), np.eye(3))


class TestDexpL:
    def test_zero_a_is_identity_map(self):
        h = np.random.default_rng(2).standard_normal((3, 3))
        assert np.allclose(dexp_L(np.zeros((3, 3)), h, 10), h)

    def test_commuting_pair(self):
        a = np.diag([1.0, 2.0])
        h = np.diag([3.0, -1.0])
        assert np.allclose(dexp_L(a, h, 20), h)

    def test_matches_finite_difference(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            h = rng.standard_normal((4, 4))
            a /= max(np.linalg.norm(a), 1.0)
            h /= max(np.linalg.norm(h), 1.0)
            eps = 1e-6
            fd = (expm(a + eps * h) - expm(a)) / eps
            lhs = expm(a) @ dexp_L(a, h, 25)
            assert np.allclose(lhs, fd, atol=1e-5, rtol=1e-5)


class TestValidateStochastic:
    def test_published_matrix_passes_at_print_tolerance(self):
        assert validate_stochastic(annual_example(), 1e-3) is None

    def test_identity_passes(self):
        assert validate_stochastic(np.eye(4), 1e-12) is None

    def test_cohort_matrix_fails(self):
        # its rows lose mass to withdrawals
        assert validate_stochastic(cohort_1y(), 1e-3) == (
            0, "stochastic matrix row sums must be 1")
        assert validate_stochastic(cohort_1y(), 1e-3, sub=True) is None

    def test_reports_negative_entries(self):
        m = np.eye(3)
        m[0, 0], m[0, 1] = 1.5, -0.5
        assert validate_stochastic(m, 1e-10) == (
            0, "stochastic matrix entries must lie in [0, 1]")
        m[0] = np.nan
        assert validate_stochastic(m, 1e-10) == (
            0, "stochastic matrix entries must lie in [0, 1]")


def test_n_coords():
    assert n_coords(4) == 9
    assert n_coords(2) == 1
