"""Kernel-level checks: exponentials, integrals, spectra, rank decisions."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec
from scipy.optimize import linear_sum_assignment

from mrilqr import numkernel
from mrilqr.numkernel import (
    eigenvalues,
    expm_block_integrals,
    expm_gram_integral,
    null_space_dim,
)

from conftest import relerr


def expm(M, T: float = 1.0) -> np.ndarray:
    """e^{MT}, read off the A_d block of ``expm_block_integrals``."""
    M = np.asarray(M, dtype=float)
    return expm_block_integrals(M, np.zeros((M.shape[0], 1)), T)[0]


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_souza_matrix_at_base_period_is_scaled_minus_identity(self):
        # closed form: at T = 2*pi/sqrt(23) the transition matrix is
        # -e^(pi/sqrt(23)) * I
        A = np.array([[0.0, 1.0], [-6.0, 1.0]])
        T = 2.0 * np.pi / np.sqrt(23.0)
        expected = -np.exp(np.pi / np.sqrt(23.0)) * np.eye(2)
        assert relerr(expm(A, T), expected) < 1e-12

    def test_diagonal(self):
        got = expm(np.diag([1.0, -2.0]))
        assert relerr(got, np.diag([np.e, np.exp(-2.0)])) < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm_block_integrals(np.zeros((2, 3)), np.zeros((2, 1)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm([[np.nan, 0.0], [0.0, 1.0]])

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(1, 5)
            A = rng.normal(size=(n, n))
            A *= min(1.0, 5.0 / np.linalg.norm(A))
            s, t = rng.uniform(0.0, 2.0, size=2) + 1e-3
            assert relerr(expm(A, s + t), expm(A, s) @ expm(A, t)) < 1e-10

    def test_inverse_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = rng.integers(1, 5)
            A = rng.normal(size=(n, n))
            assert relerr(expm(A) @ expm(-A), np.eye(n)) < 1e-10


class TestBlockIntegrals:
    def test_scalar_integrator(self):
        A_d, Atilde, B_d = expm_block_integrals([[0.0]], [[1.0]], 0.5)
        assert abs(A_d[0, 0] - 1.0) < 1e-15
        assert abs(Atilde[0, 0] - 0.5) < 1e-15
        assert abs(B_d[0, 0] - 0.5) < 1e-15

    def test_rotation_full_turn_has_zero_integral(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        _, Atilde, B_d = expm_block_integrals(A, [[0.0], [1.0]], 2.0 * np.pi)
        assert np.abs(Atilde).max() < 1e-12
        assert np.abs(B_d).max() < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3)) - 1.5 * np.eye(3)
        B = rng.normal(size=(3, 2))
        A_d, Atilde, B_d = expm_block_integrals(A, B, 1.0)
        oracle, _ = quad_vec(lambda s: scipy.linalg.expm(A * s), 0.0, 1.0,
                             epsabs=1e-13, epsrel=1e-13)
        assert relerr(Atilde, oracle) < 1e-10
        assert relerr(B_d, oracle @ B) < 1e-10
        assert relerr(A_d, scipy.linalg.expm(A)) < 1e-12

    def test_algebraic_identity_a_atilde(self):
        # A @ Atilde == A_d - I for any A, T
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = rng.integers(1, 6)
            A = rng.normal(size=(n, n))
            T = rng.uniform(0.05, 2.5)
            A_d, Atilde, _ = expm_block_integrals(A, np.eye(n), T)
            assert relerr(A @ Atilde, A_d - np.eye(n)) < 1e-10

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            expm_block_integrals(np.eye(2), np.eye(2), 0.0)


class TestGramIntegral:
    def test_scalar_closed_form(self):
        # int_0^T e^{2as} ds = (e^{2aT} - 1) / (2a)
        a, T = 0.7, 1.3
        got = expm_gram_integral([[a]], [[1.0]], T)
        assert abs(got[0, 0] - (np.exp(2 * a * T) - 1.0) / (2 * a)) < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3)) - 1.0 * np.eye(3)
        W = rng.normal(size=(3, 3))
        W = W.T @ W
        got = expm_gram_integral(A, W, 0.9)
        oracle, _ = quad_vec(
            lambda s: scipy.linalg.expm(A * s).T @ W @ scipy.linalg.expm(A * s),
            0.0, 0.9, epsabs=1e-13, epsrel=1e-13)
        assert relerr(got, oracle) < 1e-10


class TestEigenvalues:
    def test_insulin_diagonal(self):
        d = [-0.0167, -0.01, -0.0083, -0.0143, -0.0091, -0.008]
        got = eigenvalues(np.diag(d))
        assert np.allclose(np.sort(got.real), np.sort(d))
        assert np.all(got.imag == 0.0)

    def test_rotation_matrix(self):
        got = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert sorted(got, key=lambda z: z.imag) == [complex(0, -1), complex(0, 1)]

    def test_souza_matrix_vs_characteristic_polynomial(self):
        # roots of z^2 - z + 6 computed independently
        got = sorted(eigenvalues([[0.0, 1.0], [-6.0, 1.0]]), key=lambda z: z.imag)
        expected = sorted(np.roots([1.0, -1.0, 6.0]), key=lambda z: z.imag)
        assert np.allclose(got, expected, atol=1e-12)

    def test_conjugate_pairs_are_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = rng.integers(2, 7)
            vals = eigenvalues(rng.normal(size=(n, n)))
            assert len(vals) == n
            complexes = vals[vals.imag != 0.0]
            key = lambda z: (z.real, z.imag)
            assert sorted(map(complex, complexes), key=key) == sorted(map(complex, complexes.conj()), key=key)

    def test_exponential_spectral_mapping(self):
        # eigenvalues of e^{TA} are exactly {e^{lambda T}} after matching
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = rng.integers(2, 6)
            A = rng.normal(size=(n, n))
            T = rng.uniform(0.1, 2.0)
            lhs = eigenvalues(scipy.linalg.expm(A * T))
            rhs = np.exp(eigenvalues(A) * T)
            costm = np.abs(lhs[:, None] - rhs[None, :])
            r, c = linear_sum_assignment(costm)
            assert costm[r, c].max() < 1e-8 * (1.0 + np.abs(rhs).max())


class TestNullSpace:
    def test_identity_has_trivial_kernel(self):
        assert null_space_dim(np.eye(3)) == 0

    def test_zero_matrix_has_full_kernel(self):
        assert null_space_dim(np.zeros((2, 3))) == 3

    def test_rank_one(self):
        u = np.arange(1.0, 5.0)
        assert null_space_dim(np.outer(u, u)) == 3

    def test_invariance_under_row_permutation_and_left_multiply(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rows, cols = rng.integers(2, 7, size=2)
            rank = int(rng.integers(1, min(rows, cols) + 1))
            M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
            base = null_space_dim(M)
            assert base == cols - rank
            perm = rng.permutation(rows)
            assert null_space_dim(M[perm]) == base
            W = np.eye(rows) + 0.3 * rng.normal(size=(rows, rows))
            assert np.linalg.cond(W) < 1e3
            assert null_space_dim(W @ M) == base


def test_spectral_radius():
    assert abs(numkernel.spectral_radius(np.diag([0.5, -0.9])) - 0.9) < 1e-14
