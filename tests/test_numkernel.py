"""Kernel-level checks: exponentials, integrals, spectra, rank decisions."""

import warnings
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec
from scipy.optimize import linear_sum_assignment

from mrilqr import discretize, numkernel, riccati
from mrilqr.errors import NumericalError
from mrilqr.numkernel import (
    _svd_kernel,
    eigenvalues,
    expm_block_integrals,
    expm_gram_integral,
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

    @pytest.mark.parametrize("call, message", [
        (lambda: numkernel.as_matrix(np.zeros((2, 2, 2)), "M"), r"M must be 2-D, got shape \(2, 2, 2\)"),
        (lambda: numkernel.as_matrix([[]], "M"), "M must have at least one row and column"),
        (lambda: numkernel.as_matrix([], "M"), "M must have at least one row and column"),
    ], ids=["3-D", "empty-row", "empty"])
    def test_malformed_arguments_are_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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
        A_d, Atilde, B_d = expm_block_integrals(np.array([[0.0]]), np.array([[1.0]]), 0.5)
        assert abs(A_d[0, 0] - 1.0) < 1e-15
        assert abs(Atilde[0, 0] - 0.5) < 1e-15
        assert abs(B_d[0, 0] - 0.5) < 1e-15

    def test_rotation_full_turn_has_zero_integral(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        _, Atilde, B_d = expm_block_integrals(A, np.array([[0.0], [1.0]]), 2.0 * np.pi)
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


class TestGramIntegral:
    def test_scalar_closed_form(self):
        # int_0^T e^{2as} ds = (e^{2aT} - 1) / (2a)
        a, T = 0.7, 1.3
        got = expm_gram_integral(np.array([[a]]), np.array([[1.0]]), T)
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

    @pytest.mark.parametrize("lam, rotated, tol", [
        (-np.logspace(-3, 4, 5), True, 1e-9),
        (-np.logspace(-3, 4, 5), False, 1e-14),
        *(([-k, -1.0], False, 1e-14) for k in (1e6, 1e12, 1e17, 1e22)),
    ], ids=["rotated", "eigenbasis", "1e6", "1e12", "1e17", "1e22"])
    def test_stiff_normal_matrix_against_the_closed_form(self, lam, rotated, tol):
        # A = V diag(lam) V' with lam from -1e-3 to -1e4, or a pair -k, -1: the
        # integral is V [W~_ij (e^{(lam_i + lam_j) T} - 1) / (lam_i + lam_j)] V',
        # W~ = V' W V; at T = 1e12 the sub-interval is halved 53 times for the
        # first spectrum and 112 times for k = 1e22. A rotated A holds its
        # spectrum only to eps ||A||, which bounds the rotated case at 1e-9;
        # in the eigenbasis every case holds to 1e-14
        lam = np.asarray(lam)
        n = len(lam)
        rng = np.random.default_rng(15)
        V = np.linalg.qr(rng.normal(size=(n, n)))[0] if rotated else np.eye(n)
        W = rng.normal(size=(n, n))
        W = W @ W.T
        rate = lam[:, None] + lam[None, :]
        T = np.logspace(-3, 12, 31)
        for t, H in zip(T, expm_gram_integral(V @ np.diag(lam) @ V.T, W, T)):
            exact = V @ (V.T @ W @ V * np.expm1(rate * t) / rate) @ V.T
            assert np.abs(H - exact).max() <= tol * np.abs(exact).max(), t

    @pytest.mark.parametrize("k", [1e6, 1e12, 1e17, 1e22, 1e100])
    def test_slow_decay_next_to_a_fast_one(self, k):
        # A = diag(-k, -1), B = [1, 1]', Q = [[2, 1], [1, 2]], T = 1: every
        # entry of Q_d = Q_ij (1 - e^{-(k_i + k_j)}) / (k_i + k_j) to 1e-14,
        # with no warning; a squaring of e^{Ah} itself rounds the slow
        # e^{-h} to 1 once k nears 1 / eps
        A, Q = np.diag([-k, -1.0]), np.array([[2.0, 1.0], [1.0, 2.0]])
        rate = np.diag(A)[:, None] + np.diag(A)[None, :]
        exact = Q * np.expm1(rate) / rate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plant = discretize.ContinuousPlant(A, [[1.0], [1.0]])
            Q_d = discretize.cost_matrices(plant, discretize.CostWeights(Q, [[1.0]], [[1.0]]), 1.0).Q_d
            H = expm_gram_integral(A, Q, 1.0)
        for got in (Q_d, H):
            assert np.all(np.abs(got - exact) <= 1e-14 * exact)

    def test_no_early_stop_while_phi_grows(self):
        # W barely weighs the unstable mode, so ||F Phi|| falls below
        # sqrt(eps) ||F|| after a few squarings, yet that mode's terms grow
        # to the whole integral: the sum may stop early only on a small Phi
        got = expm_gram_integral(np.diag([-1e6, 1.0]), np.diag([1.0, 1e-40]), 100.0)
        assert relerr(got[1, 1], 1e-40 * np.expm1(200.0) / 2.0) < 1e-13

    @pytest.mark.parametrize("T", [5.0, 20.0, 60.0])
    def test_non_normal_matrix_against_quadrature(self, T):
        # ||A|| T reaches 3000: the doubled sub-intervals carry the transient of the 50 coupling
        A = np.array([[0.5, 50.0], [0.0, -0.3]])
        got = expm_gram_integral(A, np.eye(2), T)
        oracle, _ = quad_vec(lambda s: scipy.linalg.expm(A.T * s) @ scipy.linalg.expm(A * s),
                             0.0, T, epsabs=0.0, epsrel=1e-14, limit=2000)
        assert np.abs(got - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize("A, T", [([[-1e300, 0.0], [0.0, -1.0]], 1.0), ([[-1e200, 0.0], [0.0, -1.0]], 1e200)],
                             ids=["norm", "product"])
    def test_an_overflowing_norm_times_duration_is_a_numerical_error(self, A, T):
        with pytest.raises(NumericalError, match=r"\|\|A\|\| T overflowed in the Gram integral"):
            expm_gram_integral(np.array(A), np.eye(2), T)

    def test_stacked_durations_equal_single_calls(self):
        # ||A||_F = 1, so ||A||_F T straddles 2, 4 and 8: the durations take
        # 0, 0, 1, 1, 2, 2, 3 and 4 doublings of their sub-interval
        rng = np.random.default_rng(14)
        A = rng.normal(size=(3, 3))
        A /= np.linalg.norm(A, "fro")
        W = rng.normal(size=(3, 3))
        W = W.T @ W
        T = np.array([0.5, 1.99, 2.01, 3.99, 4.01, 7.99, 8.01, 20.0])
        stack = expm_gram_integral(A, W, T)
        assert stack.shape == (len(T), 3, 3)
        for t, H in zip(T, stack):
            assert H.tobytes() == expm_gram_integral(A, W, float(t)).tobytes(), t
        # an array of one duration is a stack of one
        assert expm_gram_integral(A, W, T[:1]).shape == (1, 3, 3)


class TestSquaringSum:
    """The one squaring kernel behind the Gram integral and the policy polish."""

    @staticmethod
    def lyapunov_sum(A, F) -> np.ndarray:
        """X = A' X A + F'F as the polish solves it."""
        n = A.shape[0]
        return numkernel._squaring_sum(F[None], (A - np.eye(n))[None], [riccati._MAX_DOUBLINGS])[0]

    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.999])
    @pytest.mark.parametrize("normal", [True, False], ids=["normal", "non-normal"])
    def test_lyapunov_sum_against_scipy(self, rho, normal):
        # spectral radius rho; the non-normal A has ||A||_2 = 32 and a sum
        # up to 1e10 times F'F from its transient
        rng = np.random.default_rng(31)
        D = np.diag(rho * np.array([1.0, -0.7, 0.4, 0.1]))
        if normal:
            V = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            A = V @ D @ V.T
        else:
            A = D + np.triu(20.0 * rng.normal(size=(4, 4)), 1)
        F = rng.normal(size=(5, 4))
        X = self.lyapunov_sum(A, F)
        oracle = scipy.linalg.solve_discrete_lyapunov(A.T, F.T @ F, method="bilinear")
        assert np.abs(X - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_lyapunov_sum_is_positive_semidefinite(self):
        # F sees only an invariant subspace of A, hidden by a rotation, so X has
        # a kernel: its computed eigenvalues stay above -n eps ||X||, the
        # roundoff of eigvalsh itself
        rng = np.random.default_rng(32)
        eps = np.finfo(float).eps
        for _ in range(50):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            blocks = [rng.normal(size=(d, d)) for d in (r, n - r)]
            blocks = [M * rng.uniform(0.3, 0.999) / numkernel.spectral_radius(M) for M in blocks]
            A = np.block([[blocks[0], np.zeros((r, n - r))], [rng.normal(size=(n - r, r)), blocks[1]]])
            F = np.hstack([rng.normal(size=(r, r)), np.zeros((r, n - r))])
            U = np.linalg.qr(rng.normal(size=(n, n)))[0]
            w = np.linalg.eigvalsh(self.lyapunov_sum(U @ A @ U.T, F @ U.T))
            assert w[0] >= -n * eps * w[-1], (n, r)

    def test_a_cell_stops_once_phi_is_below_the_square_root_of_eps(self, monkeypatch):
        # Phi = A with rho = 0.5: ||A^(2^5)||_F <= sqrt(eps), so the sum stops
        # after adding that term, at 6 of the 64 squarings allowed, each but
        # the last one QR
        qr = np.linalg.qr
        calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda M, mode: calls.append(M.shape) or qr(M, mode=mode))
        A = np.diag([0.5, -0.25])
        X = self.lyapunov_sum(A, np.eye(2))
        assert np.abs(X - np.diag([4.0 / 3.0, 16.0 / 15.0])).max() <= 1e-15
        assert calls == [(1, 4, 2)] * 5


def hand_paired_eigenvalues(M) -> np.ndarray:
    """Reference spectrum that pairs conjugates by hand: each upper-half
    eigenvalue is matched to the nearest lower-half conjugate and the pair
    averaged, near-real values are made real, then sorted like
    ``eigenvalues``."""
    raw = np.linalg.eigvals(np.asarray(M, dtype=float))
    tol = 1e-9 * (1.0 + float(np.max(np.abs(raw), initial=0.0)))
    reals = [complex(z.real, 0.0) for z in raw if abs(z.imag) <= tol]
    upper = [complex(z) for z in raw if z.imag > tol]
    lower = [complex(z) for z in raw if z.imag < -tol]
    paired = []
    for u in upper:
        j = min(range(len(lower)), key=lambda i: abs(u - lower[i].conjugate()))
        avg = 0.5 * (u + lower.pop(j).conjugate())
        paired.extend([avg, avg.conjugate()])
    out = np.array(reals + paired, dtype=complex)
    return out[np.lexsort((out.imag, out.real))]


def spectrum_probe_matrices(rng, count):
    """Gaussian, rotation-block similarities with shared real parts (some
    with imaginary parts around the 1e-9 clamp), perturbed Jordan blocks
    and integer matrices, n from 1 to 24."""
    for i in range(count):
        n = int(rng.integers(1, 25))
        kind = i % 4
        if kind == 0:
            yield rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        elif kind == 1:
            a, D = rng.choice([0.0, 0.5, -1.0]), np.zeros((n, n))
            for j in range(0, n - 1, 2):
                b = rng.choice([1.0, np.sqrt(23.0) / 2.0, rng.uniform(0.1, 5.0),
                                10.0 ** rng.uniform(-12.0, -6.0)])
                D[j:j + 2, j:j + 2] = [[a, -b], [b, a]]
            if n % 2:
                D[-1, -1] = a
            S = rng.normal(size=(n, n))
            yield S @ D @ np.linalg.inv(S)
        elif kind == 2:
            J = rng.normal() * np.eye(n) + np.diag(np.ones(n - 1), 1)
            J += rng.choice([0.0, 1e-14, 1e-10, 1e-6]) * rng.normal(size=(n, n))
            S = rng.normal(size=(n, n))
            yield S @ J @ np.linalg.inv(S)
        else:
            yield rng.integers(-3, 4, size=(n, n)).astype(float)


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

    @staticmethod
    def near_defective(rng, n):
        # a Jordan block perturbed at 1e-14..1e-6 splits into clustered,
        # often complex eigenvalues with tiny imaginary parts
        J = rng.normal() * np.eye(n) + np.diag(np.ones(n - 1), 1)
        J += 10.0 ** rng.integers(-14, -5) * rng.normal(size=(n, n))
        S = rng.normal(size=(n, n))
        return S @ J @ np.linalg.inv(S)

    @staticmethod
    def near_real(rng, n):
        # rotation blocks a +- i b, b around the 1e-9 clamp, under a similarity
        D = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            b = 10.0 ** rng.uniform(-12, -6)
            D[i:i + 2, i:i + 2] = [[0.5, -b], [b, 0.5]]
        if n % 2:
            D[-1, -1] = 0.5
        S = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return S @ D @ S.T

    def test_conjugate_pairs_are_exact(self):
        rng = np.random.default_rng(14)
        gaussian = lambda rng, n: rng.normal(size=(n, n))
        key = lambda z: (z.real, z.imag)
        for _, draw in product(range(25), (gaussian, self.near_defective, self.near_real)):
            n = int(rng.integers(2, 9))
            vals = eigenvalues(draw(rng, n))
            assert len(vals) == n
            # sorted by (real, imag), and every exactly-real value carries +0.0
            assert list(vals) == sorted(vals, key=key)
            assert not np.any(np.signbit(vals.imag[vals.imag == 0.0]))
            complexes = vals[vals.imag != 0.0]
            assert np.all(np.abs(complexes.imag) > 1e-9 * (1.0 + np.abs(vals).max()))
            assert sorted(map(complex, complexes), key=key) == sorted(map(complex, complexes.conj()), key=key)

    def test_bitwise_equal_to_hand_paired_reference(self):
        # LAPACK's conjugate pairs are exact, so pairing them by hand
        # changes no bit, sign of zero included
        for M in spectrum_probe_matrices(np.random.default_rng(16), 2000):
            got, ref = eigenvalues(M).view(float), hand_paired_eigenvalues(M).view(float)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

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
        assert _svd_kernel(np.eye(3))[1] == 0

    def test_zero_matrix_has_full_kernel(self):
        assert _svd_kernel(np.zeros((2, 3)))[1] == 3

    def test_rank_one(self):
        u = np.arange(1.0, 5.0)
        assert _svd_kernel(np.outer(u, u))[1] == 3

    def test_invariance_under_row_permutation_and_left_multiply(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rows, cols = rng.integers(2, 7, size=2)
            rank = int(rng.integers(1, min(rows, cols) + 1))
            M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
            base = _svd_kernel(M)[1]
            assert base == cols - rank
            perm = rng.permutation(rows)
            assert _svd_kernel(M[perm])[1] == base
            W = np.eye(rows) + 0.3 * rng.normal(size=(rows, rows))
            assert np.linalg.cond(W) < 1e3
            assert _svd_kernel(W @ M)[1] == base


def test_spectral_radius():
    assert abs(numkernel.spectral_radius(np.diag([0.5, -0.9])) - 0.9) < 1e-14


def test_a_stack_of_spectral_radii_has_the_bits_of_each_matrix():
    # a real spectrum beside complex ones: numpy returns the stack's
    # eigenvalues as complex, the symmetric matrix's alone as real
    rng = np.random.default_rng(30)
    M = rng.normal(size=(5, 4, 4))
    M[2] += M[2].T
    rho = numkernel.spectral_radius(M)
    solo = [numkernel.spectral_radius(m) for m in M]
    assert rho.shape == (5,) and all(isinstance(r, float) for r in solo)
    assert rho.tobytes() == np.array(solo).tobytes()
    assert numkernel.spectral_radius(np.zeros((0, 3, 3))).shape == (0,)


def cho_reference(M, rhs) -> np.ndarray:
    """The symmetric solve through scipy's cho_factor/cho_solve."""
    c = scipy.linalg.cho_factor(0.5 * (np.asarray(M) + np.asarray(M).T))
    return scipy.linalg.cho_solve(c, rhs)


def solve_pd(M, rhs, what: str = "system") -> np.ndarray:
    """``solve_pd_stack`` on a stack of one; a failed cell's error is raised."""
    return numkernel._single(*numkernel.solve_pd_stack(np.asarray(M, dtype=float)[None], np.asarray(rhs)[None], what))


class TestSolvePd:
    def test_bitwise_equal_to_scipy_cholesky_solve(self):
        rng = np.random.default_rng(9)
        for n, cond in product(range(1, 25), (1.0, 1e4, 1e8, 1e12)):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            # roundoff leaves M asymmetric; both solves symmetrize it
            M = (Q * np.geomspace(1.0, cond, n)) @ Q.T
            for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(3, n)).T):
                kept = rhs.copy()
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    x = solve_pd(layout(M), rhs)
                    ref = cho_reference(layout(M), rhs)
                    assert x.shape == ref.shape
                    assert np.array_equal(x.view(np.uint64), ref.view(np.uint64)), (n, cond)
                assert np.array_equal(rhs, kept)

    @pytest.mark.parametrize("M", [[[1.0, 2.0], [2.0, 1.0]], [[0.0]], [[2.0, 0.0], [0.0, -1e-300]]])
    def test_indefinite_matrix_is_a_singular_system(self, M):
        rhs = np.ones(len(M))
        with pytest.raises(np.linalg.LinAlgError):
            cho_reference(M, rhs)
        with pytest.raises(NumericalError, match=r"^singular R \+ B'PB$"):
            solve_pd(M, rhs, "R + B'PB")

    @pytest.mark.parametrize("where", ["M", "rhs"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_is_a_numerical_error(self, where, value):
        M, rhs = np.eye(2), np.ones((2, 1))
        (M if where == "M" else rhs)[1, 0] = value
        with pytest.raises(NumericalError, match="^overflow: non-finite entries in R_d"):
            solve_pd(M, rhs, "R_d")


class TestSymmetryTest:
    """``_symmetric`` and ``check_pd`` accept exactly what np.allclose(A, A', rtol=0,
    atol=1e-12 (1 + max|A|)) accepts."""

    @staticmethod
    def allclose(A) -> bool:
        return bool(np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())))

    @staticmethod
    def accepted(A) -> bool:
        try:
            numkernel.check_pd(A, "A")
        except ValueError as exc:
            assert str(exc) == "A is not symmetric"
            return False
        S = numkernel._symmetric(A, "A")
        assert np.array_equal(S, 0.5 * (A + A.T))
        return True

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 3e5])
    def test_asymmetry_at_just_under_and_just_over_the_bound(self, scale):
        A = scale * np.array([[2.0, 0.0, 0.5], [0.0, 3.0, -1.0], [0.5, -1.0, 4.0]])
        bound = 1e-12 * (1.0 + float(np.abs(A).max()))
        verdicts = []
        for d in (0.0, 0.5 * bound, np.nextafter(bound, 0.0), bound,
                  np.nextafter(bound, np.inf), 2.0 * bound):
            B = A.copy()
            B[0, 1] = d  # the asymmetry is exactly d, and max|B| is that of A
            assert self.accepted(B) == self.allclose(B) == (d <= bound), d
            verdicts.append(self.accepted(B))
        assert verdicts == [True, True, True, True, False, False]

    def test_random_asymmetry_around_the_bound(self):
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 6))
            X = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
            A = X @ X.T + np.eye(n)
            bound = 1e-12 * (1.0 + float(np.abs(A).max()))
            E = rng.normal(size=(n, n))
            A = A + (rng.uniform(0.5, 1.5) * bound / np.abs(E).max()) * E
            verdict = self.accepted(A)
            assert verdict == self.allclose(A)
            verdicts.add(verdict)
        assert verdicts == {True, False}
