"""Dense numerical kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects in row-major order. All
functions are pure: they never mutate their arguments and return freshly
allocated arrays, so results are safe to share across threads.

``as_matrix``, ``_square``, ``check_psd`` and ``check_pd`` check data where
it enters the package; the kernels trust their arguments.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError

__all__ = [
    "as_matrix",
    "expm_block_integrals",
    "expm_gram_integral",
    "eigenvalues",
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
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def _square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def expm_block_integrals(A, B, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly compute (e^{AT}, int_0^T e^{As} ds, int_0^T e^{As} ds B).

    One exponential of the block-upper-triangular augmentation
    [[A, I], [0, 0]] yields both the state transition matrix and its
    running integral; the input map is the integral times B. For
    invertible A the integral equals A^{-1}(e^{AT} - I).

    T is one duration or a 1-D array of them; for an array each result
    is a stack with one matrix per duration, each bit for bit the one a
    single duration gives (scipy's ``expm`` works slice by slice).
    """
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(M * np.asarray(T, dtype=float)[..., None, None])
    A_d = E[..., :n, :n]
    Atilde = E[..., :n, n:]
    return A_d, Atilde, Atilde @ B


def expm_gram_integral(A, W, T) -> np.ndarray:
    """Exact Gram integral int_0^T e^{A's} W e^{As} ds.

    The -A' block of the Van Loan matrix Z = [[-A', W], [0, A]] makes
    e^{ZT} badly scaled for large ||A|| T, so e^{Zh} = [[F1, G2], [0, F3]]
    gives the integral F3' G2 only on h = T / 2^d, ||A||_F h <= 2 (an
    overflowing ||A||_F T is a NumericalError); ``_squaring_sum`` doubles
    it d times from its factor and from e^{Ah} - I = A Atilde(h)
    (``expm_block_integrals``), which keeps a slow decay next to a fast
    one. W must be symmetric; an overflowing integral is non-finite, with
    no numpy warning. T is one duration or a 1-D array of them; each takes
    its own number of doublings and gives the bits of a single duration.
    """
    n = A.shape[0]
    Ts = np.asarray(T, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        spans = float(np.linalg.norm(A, "fro")) * Ts
        if not np.isfinite(spans).all():
            raise NumericalError("||A|| T overflowed in the Gram integral")
        doublings = np.maximum(0, np.ceil(np.log2(np.maximum(spans, 1e-300) / 2.0))).astype(int)
        h = Ts / np.ldexp(1.0, doublings)
        Z = np.zeros((2 * n, 2 * n))
        Z[:n, :n], Z[:n, n:], Z[n:, n:] = -A.T, W, A
        V = scipy.linalg.expm(Z * h[:, None, None])
        F, failed = _cellwise(_psd_factor, _sym(_T(V[:, n:, n:]) @ V[:, :n, n:]))
        F[list(failed)] = np.inf  # a sub-interval integral that overflowed stays non-finite
        H = _squaring_sum(F, A @ expm_block_integrals(A, np.eye(n), h)[1], doublings)
    return H if np.ndim(T) else H[0]


def _squaring_sum(F, E, doublings) -> np.ndarray:
    """X = sum_{i < 2^d} Phi^i' F'F Phi^i of each cell of stacks, Phi = I + E,
    by the cell's d = ``doublings`` squarings X <- X + Phi'X Phi, Phi <- Phi^2.

    X is carried as a factor, X = F'F, re-triangularized from [F; F Phi]
    by one stacked QR per squaring but the last, so the sum stays positive
    semidefinite and roundoff enters its small eigenvalues only squared.
    Phi is squared as E <- 2E + E^2, so a Phi within roundoff of I keeps
    its distance from I (Al-Mohy and Higham's squaring of e^A - I); each
    term rounds Phi = I + E once, which does not compound over squarings.
    A cell stops early, after its next term, once ||Phi||_F <= sqrt(eps):
    the rest is then below eps^2 ||X||. An overflowing cell is non-finite,
    for the caller to check. Each cell has the bits of a stack of one.
    """
    doublings = np.asarray(doublings)
    with np.errstate(over="ignore", invalid="ignore"):
        X = _T(F) @ F  # the sums of the cells without a squaring
        live, I = np.flatnonzero(doublings > 0), np.eye(F.shape[-1])
        F, E = F[live], E[live]
        for k in range(1, int(doublings.max(initial=0)) + 1):
            Phi = E + I
            F = np.concatenate([F, F @ Phi], axis=-2)  # X after k squarings is F'F
            done = (doublings[live] == k) | (_fro(Phi) <= np.finfo(float).eps ** 0.5)
            if done.any():
                X[live[done]] = _T(F[done]) @ F[done]
                if done.all():
                    break
                live, F, E = live[~done], F[~done], E[~done]
            F = np.linalg.qr(F, mode="r")
            E = 2.0 * E + E @ E
        return _sym(X)


def _psd_factor(M) -> np.ndarray:
    """F with F'F = M for a symmetric M (or each of a stack), negative eigenvalues clipped to zero.

    ``eigh`` reads one triangle, so M must be symmetric to the bit.
    """
    w, V = np.linalg.eigh(M)
    return np.sqrt(np.maximum(w, 0.0))[..., :, None] * _T(V)


def eigenvalues(M) -> np.ndarray:
    """Full spectrum of a real square matrix, conjugate-pair exact.

    LAPACK's real eigensolver (dgeev) returns the complex eigenvalues of
    a real matrix as exact conjugate pairs, both taken from one 2x2
    block of the real Schur form, so no pairing is done here. Near-real
    eigenvalues, with an imaginary part within 1e-9 relative to the
    spectrum's scale, are made exactly real (imaginary part +0.0).
    Downstream resonance tests rely on the exact symmetry. Returned
    sorted by (real part, imaginary part).
    """
    # numpy returns a real array when every eigenvalue is real
    out = np.linalg.eigvals(M).astype(complex)
    scale = 1.0 + float(np.max(np.abs(out), initial=0.0))
    out.imag[np.abs(out.imag) <= 1e-9 * scale] = 0.0
    return out[np.lexsort((out.imag, out.real))]


def _svd_kernel(M) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) of M, or of each matrix of a stack M, and
    the dimension of each numerical kernel, by the package's one rank rule:
    singular values at or below ``RANK_RTOL`` max(1, the largest) count as
    zero. An all-zero matrix has a full kernel, a matrix of at most unit size
    is read against 1, and one with an entry of at least 1 against its
    largest singular value. numpy's SVD works slice by slice, so a stack
    gives each matrix's own bits.
    """
    s = np.linalg.svd(M, compute_uv=False)
    return s, M.shape[-1] - np.count_nonzero(s > RANK_RTOL * np.maximum(1.0, s[..., :1]), axis=-1)


def spectral_radius(M):
    """Largest eigenvalue modulus of a square matrix, as a float, or of each
    matrix of a stack, as an array. numpy's ``eigvals`` works slice by slice,
    so each matrix of a stack gives its own bits."""
    rho = np.abs(np.linalg.eigvals(M)).max(axis=-1)
    return rho if rho.ndim else float(rho)


def _symmetric(M, name: str) -> np.ndarray:
    """M as a square array, symmetrized; ValueError unless symmetric to 1e-12 relative."""
    A = _square(M, name)
    # for finite A this is np.allclose(A, A.T, rtol=0, atol=...) at a fraction of its cost
    if not float(np.abs(A - A.T).max()) <= 1e-12 * (1.0 + float(np.abs(A).max())):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * A + 0.5 * A.T  # halves first, so an entry near the float maximum does not overflow


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


def _T(M) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return M.swapaxes(-1, -2)


def _sym(M) -> np.ndarray:
    return 0.5 * M + 0.5 * _T(M)  # halves first, so an entry near the float maximum does not overflow


def _fro(X) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    Each equals ``np.linalg.norm(X[i], "fro")`` bit for bit, because both
    take the dot product of the flattened matrix with itself;
    ``np.linalg.norm(X, axis=(-2, -1))`` sums in another order.
    """
    flat = X.reshape(len(X), 1, X.shape[-2] * X.shape[-1])
    return np.sqrt((flat @ _T(flat))[:, 0, 0])


def _cellwise(fn, M, *rest) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """``fn(M, *rest)`` on stacks, and the error of each cell where it failed.

    A stacked LAPACK call raises for the whole stack when one cell fails.
    The cells are then tried one at a time, each as a stack of one, and
    the stack is computed again with the identity in place of each failed
    cell's M, so that it stays finite. The failed cells' results mean
    nothing; the caller drops those cells.
    """
    try:
        return fn(M, *rest), {}
    except np.linalg.LinAlgError:
        pass
    failed = {}
    for i in range(len(M)):
        try:
            fn(M[i : i + 1], *(r[i : i + 1] for r in rest))
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
    M = M.copy()
    M[list(failed)] = np.eye(M.shape[-1])
    return fn(M, *rest), failed


def _single(X, failed: dict):
    """The only cell of a stack of one, or its error raised."""
    if failed:
        raise failed[0]
    return X[0]


def _cho_solve(A, rhs, what: str) -> np.ndarray:
    """A^{-1} rhs for a finite symmetric A by the LAPACK calls scipy's
    ``cho_factor``/``cho_solve`` make (potrf on the upper triangle, then
    potrs), without their per-call wrapping, so with their bits and their
    memory order (Fortran for a matrix right-hand side); NumericalError
    for an A that is not numerically positive definite."""
    c, info = dpotrf(A, lower=0, clean=0)
    if info > 0:
        raise NumericalError(f"singular {what}")
    return dpotrs(c, rhs, lower=0)[0]


def solve_pd_stack(M, rhs, what: str = "system") -> tuple[np.ndarray, dict[int, NumericalError]]:
    """Solve M x = rhs via Cholesky for each cell of stacks M (k, n, n),
    symmetrized first, and rhs (k, n) or (k, n, p).

    The symmetrization and the finiteness test run on the stacks, the
    Cholesky solve once per cell (``_cho_solve``), so each solution has the
    bits and the memory order of a stack of one; numpy's stacked Cholesky
    solve sums in another order. Returns the solutions and the
    NumericalError of each cell whose M or rhs is not finite (only an
    overflow upstream makes one) or whose M is not numerically positive
    definite, by index; a failed cell's solution is zero.
    """
    M, rhs = np.asarray(M, dtype=float), np.asarray(rhs, dtype=float)
    A = _sym(M)
    finite = np.isfinite(A).all() and np.isfinite(rhs).all()
    X = np.zeros((len(A), *rhs.shape[:0:-1])).swapaxes(1, -1)
    failed = {}
    for i in range(len(A)):
        try:
            # only a stack with a non-finite entry is tested cell by cell
            if not (finite or np.isfinite(A[i]).all() and np.isfinite(rhs[i]).all()):
                raise NumericalError(f"overflow: non-finite entries in {what} or its right-hand side")
            X[i] = _cho_solve(A[i], rhs[i], what)
        except NumericalError as exc:
            failed[i] = exc
    return X, failed
