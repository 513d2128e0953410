"""Dense numerical kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects in row-major order. All
functions are pure: they never mutate their arguments and return freshly
allocated arrays, so results are safe to share across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = [
    "as_matrix",
    "expm_block_integrals",
    "expm_gram_integral",
    "eigenvalues",
    "null_space_dim",
]

#: Relative threshold separating numerically zero singular values from
#: roundoff at double precision.
RANK_RTOL = 1e-9


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a 2-D float array with finite entries."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def _square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def expm_block_integrals(A, B, T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly compute (e^{AT}, int_0^T e^{As} ds, int_0^T e^{As} ds B).

    One exponential of the block-upper-triangular augmentation
    [[A, I], [0, 0]] yields both the state transition matrix and its
    running integral; the input map is the integral times B. For
    invertible A the integral equals A^{-1}(e^{AT} - I).
    """
    A = _square(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    if not (T > 0.0):
        raise ValueError(f"duration T must be positive, got {T}")
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(M * T)
    A_d = E[:n, :n]
    Atilde = E[:n, n:]
    return A_d, Atilde, Atilde @ B


def expm_gram_integral(A, W, T: float) -> np.ndarray:
    """Exact Gram integral int_0^T e^{A's} W e^{As} ds.

    Computed from one exponential of the block matrix [[-A', W], [0, A]]:
    if its exponential is [[F1, G2], [0, F3]] then the integral equals
    F3' G2. The -A' block makes that exponential badly scaled for large
    ||A||*T, so the integral is evaluated on a sub-interval with
    ||A||*h <= 2 and doubled through the exact composition
    H(2t) = H(t) + Phi(t)' H(t) Phi(t). W must be symmetric; the result
    is symmetrized to remove roundoff asymmetry.
    """
    A = _square(A, "A")
    W = _square(W, "W")
    n = A.shape[0]
    if W.shape[0] != n:
        raise ValueError(f"W has shape {W.shape}, expected {A.shape}")
    if not (T > 0.0):
        raise ValueError(f"duration T must be positive, got {T}")

    scale = float(np.linalg.norm(A, "fro")) * T
    doublings = max(0, min(60, int(np.ceil(np.log2(max(scale, 1e-300) / 2.0)))))
    h = T / (1 << doublings)

    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n] = -A.T
    Z[:n, n:] = W
    Z[n:, n:] = A
    E = scipy.linalg.expm(Z * h)
    H = E[n:, n:].T @ E[:n, n:]
    H = 0.5 * (H + H.T)
    Phi = E[n:, n:]
    for _ in range(doublings):
        H = H + Phi.T @ H @ Phi
        H = 0.5 * (H + H.T)
        Phi = Phi @ Phi
    return H


def eigenvalues(M) -> np.ndarray:
    """Full spectrum of a real square matrix, conjugate-pair exact.

    The raw backward-stable eigensolver output is post-processed so that
    complex eigenvalues of a real matrix come in exact conjugate pairs
    (each pair is matched and averaged) and near-real eigenvalues are
    made exactly real, both within 1e-9 relative to the spectrum's
    scale. Downstream resonance tests rely on the exact symmetry.
    Returned sorted by (real part, imaginary part).
    """
    A = _square(M)
    raw = np.linalg.eigvals(A)
    scale = 1.0 + float(np.max(np.abs(raw), initial=0.0))
    tol = 1e-9 * scale

    reals: list[complex] = []
    upper: list[complex] = []
    lower: list[complex] = []
    for z in raw:
        if abs(z.imag) <= tol:
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            upper.append(complex(z))
        else:
            lower.append(complex(z))

    paired: list[complex] = []
    lower_left = list(lower)
    for u in upper:
        if lower_left:
            j = min(range(len(lower_left)), key=lambda i: abs(u - lower_left[i].conjugate()))
            w = lower_left.pop(j)
            avg = 0.5 * (u + w.conjugate())
            paired.extend([avg, avg.conjugate()])
        else:
            # Unmatched complex value: keep as computed (cannot happen for
            # real input matrices with a backward-stable solver).
            paired.append(u)
    paired.extend(lower_left)

    out = np.array(reals + paired, dtype=complex)
    order = np.lexsort((out.imag, out.real))
    return out[order]


def _svd_kernel(M) -> tuple[np.ndarray, int]:
    """Singular values of M (descending) and the dimension of its numerical kernel.

    Singular values at or below ``RANK_RTOL`` times the largest count as
    zero. An all-zero matrix has a full kernel.
    """
    A = as_matrix(M)
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return s, A.shape[1]
    return s, A.shape[1] - int(np.count_nonzero(s > RANK_RTOL * s[0]))


def null_space_dim(M) -> int:
    """Dimension of the numerical kernel of a rectangular matrix; see ``_svd_kernel``."""
    return _svd_kernel(M)[1]


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(_square(M)))))


def _symmetric(M, name: str) -> np.ndarray:
    """M as a square array, symmetrized; ValueError unless symmetric to 1e-12 relative."""
    A = _square(M, name)
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (A + A.T)


def check_psd(M, name: str = "matrix") -> None:
    """Raise ValueError unless M is symmetric positive semidefinite (to -1e-12)."""
    w = np.linalg.eigvalsh(_symmetric(M, name))
    if w.size and w[0] < -1e-12:
        raise ValueError(f"{name} is not positive semidefinite (min eig {w[0]:.3e})")


def check_pd(M, name: str = "matrix") -> None:
    """Raise ValueError unless M is symmetric positive definite."""
    try:
        np.linalg.cholesky(_symmetric(M, name))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc


def solve_pd(M, rhs, what: str = "system") -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M via Cholesky."""
    try:
        c = scipy.linalg.cho_factor(0.5 * (np.asarray(M) + np.asarray(M).T))
        return scipy.linalg.cho_solve(c, rhs)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"singular {what}") from exc
