"""Lie algebra/group core: basis, exponential, derivative operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratingsde import (ValidationError, ad, basis_index_map, dexp_L, mat_exp,
                       n_coords, validate_stochastic)
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
        out = mat_exp(np.zeros((4, 4)))
        assert np.array_equal(out.entries, np.eye(4))

    def test_k2_closed_form(self):
        out = mat_exp(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out.entries,
                           [[np.exp(-1), 1 - np.exp(-1)], [0.0, 1.0]], atol=1e-14)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = coeffs_to_matrices(rng.uniform(0, 5, 9), 4)
            assert np.allclose(mat_exp(a).entries, taylor_expm(a), atol=1e-12)

    def test_group_closure(self):
        rng = np.random.default_rng(3)
        ca = coeffs_to_matrices(rng.uniform(0, 3, 9), 4)
        cb = coeffs_to_matrices(rng.uniform(0, 3, 9), 4)
        prod = mat_exp(ca).entries @ mat_exp(cb).entries
        assert validate_stochastic(prod, 1e-10).passed

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(ValidationError):
            mat_exp(np.array([[-1.0, 1.0], [0.5, 0.0]]))

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


class TestExpmBatch:
    @pytest.mark.parametrize("scale", [0.01, 5.0, 50.0])
    def test_no_negative_entries(self, scale):
        assert expm_batch(_sparse_generators(scale)).min() >= 0.0

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
        assert validate_stochastic(annual_example(), 1e-3).passed

    def test_identity_passes(self):
        assert validate_stochastic(np.eye(4), 1e-12).passed

    def test_cohort_matrix_fails(self):
        assert not validate_stochastic(cohort_1y(), 1e-3).passed

    def test_reports_negative_entries(self):
        m = np.eye(3)
        m[0, 0], m[0, 1] = 1.5, -0.5
        report = validate_stochastic(m, 1e-10)
        assert not report.passed and report.min_entry < 0


def test_n_coords():
    assert n_coords(4) == 9
    assert n_coords(2) == 1
