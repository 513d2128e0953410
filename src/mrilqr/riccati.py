"""Infinite-horizon discrete LQR with a state-input cross term.

Solves the discrete algebraic Riccati equation

    P = A_d' P A_d + Q_d
        - (A_d' P B + S)(B' P B + R)^{-1}(A_d' P B + S)'

by structure-preserving doubling on the cross-term-eliminated form
(Ahat = A_d - B R^{-1} S', Qhat = Q_d - S R^{-1} S', G = B R^{-1} B'),
whose k-th iterate is the 2^k-step value-iteration cost, polishes the
result by policy iteration, and returns the stationary feedback gain

    K = -(R + B' P B)^{-1} (B' P A_d + S').

With the mixed hold+impulse input selection the gain rows split as the
hold gain (first m rows) followed by the impulse gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numkernel
from .discretize import ContinuousPlant, CostWeights, SampledCost, SampledModel, cost_matrices, restrict_input_mode, sample_plant
from .errors import DareDivergenceError, NumericalError

__all__ = [
    "RiccatiSolution",
    "MriLqrDesign",
    "solve_dare",
    "dare_residual",
    "design",
    "design_sampled",
]

STEP_RTOL = 1e-13
DIVERGENCE_FACTOR = 1e12
RESIDUAL_RTOL = 1e-9
_MAX_DOUBLINGS = 64
_X0 = 1e-12


@dataclass(frozen=True)
class RiccatiSolution:
    """Stationary solution P with its gain and convergence diagnostics.

    residual is the Frobenius norm of the Riccati defect evaluated on
    the original (cross-term) equation. qhat_kernel_dim > 0 signals that
    the effective state weight Qhat is singular, in which case positive
    definiteness of P is not guaranteed by controllability alone.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int
    converged: bool
    qhat_kernel_dim: int


def _gain(P, A_d, B, S, R) -> np.ndarray:
    M = R + B.T @ P @ B
    return -numkernel.solve_pd(M, B.T @ P @ A_d + S.T, "R + B'PB")


def dare_residual(P, A_d, B, Q_d, S, R) -> float:
    """Frobenius norm of P - (A_d'PA_d + Q_d - (A_d'PB + S)(B'PB + R)^{-1}(...)')."""
    W = A_d.T @ P @ B + S
    M = B.T @ P @ B + R
    rhs = A_d.T @ P @ A_d + Q_d - W @ numkernel.solve_pd(M, W.T, "R + B'PB")
    return float(np.linalg.norm(P - rhs, "fro"))


def _smith_lyapunov(A_cl, F) -> np.ndarray:
    """X = A_cl' X A_cl + F'F by squaring; requires rho(A_cl) < 1.

    X is carried as a triangular factor, X_k = F_k'F_k, so the sum stays
    positive semidefinite and roundoff enters its small eigenvalues only
    squared. The sum after k squarings misses A_k' X A_k, at most
    ||A_k||^2 ||X||, so it stops once the entries of A_k fall below 1e-20.
    A strongly non-normal A_cl can overflow on the way; the result is then
    non-finite, which the caller checks.
    """
    Ak = A_cl.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            F = np.linalg.qr(np.vstack([F, F @ Ak]), mode="r")
            Ak = Ak @ Ak
            if float(np.abs(Ak).max()) < 1e-20:
                break
        X = F.T @ F
    return 0.5 * (X + X.T)


def _psd_factor(M) -> np.ndarray:
    """F with F'F = M for a symmetric M, negative eigenvalues clipped to zero."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T


def _policy_polish(P, A_d, B, Q_d, S, R):
    """Policy-iteration refinement of a near-converged iterate.

    The doubling iterate stalls at a roundoff floor proportional to the
    magnitude of the cost blocks; re-evaluating the current gain through
    an exact closed-loop Lyapunov solve removes that floor. The Lyapunov
    right-hand side is F'F with F = J [I; K], J'J the joint cost
    [[Q_d, S], [S', R]], so every evaluated P is positive semidefinite.
    Each round needs a stabilizing gain, so the polish stops (keeping
    the best iterate so far) when the closed loop is not contractive or
    its Lyapunov sum overflows, and after at most 12 rounds.
    """
    n = A_d.shape[0]
    J = _psd_factor(np.block([[Q_d, S], [S.T, R]]))
    best_P = P
    best_res = dare_residual(P, A_d, B, Q_d, S, R)
    for _ in range(12):
        K = _gain(best_P, A_d, B, S, R)
        A_cl = A_d + B @ K
        if numkernel.spectral_radius(A_cl) >= 1.0 - 1e-12:
            break
        Pn = _smith_lyapunov(A_cl, J[:, :n] + J[:, n:] @ K)
        if not np.all(np.isfinite(Pn)):
            break
        res = dare_residual(Pn, A_d, B, Q_d, S, R)
        if not np.isfinite(res) or res >= best_res:
            break
        best_P, best_res = Pn, res
    return best_P, best_res


def _solve(M, rhs) -> np.ndarray:
    """``np.linalg.solve`` with a singular M reported as a NumericalError."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular system in the Riccati doubling: {exc}") from exc


def _doubling_step(A, G, H):
    """(A_k, G_k, H_k) -> (A_{k+1}, G_{k+1}, H_{k+1}); see ``solve_dare``."""
    n = A.shape[0]
    H_half = _psd_factor(H)
    WinvAG = _solve(np.eye(n) + G @ H, np.hstack([A, G]))
    try:
        L = np.linalg.cholesky(np.eye(n) + H_half @ G @ H_half.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("indefinite I + H^{1/2} G H^{1/2} in the Riccati doubling") from exc
    Y = scipy.linalg.solve_triangular(L, H_half @ A, lower=True)
    G_next = G + A @ WinvAG[:, n:] @ A.T
    return A @ WinvAG[:, :n], 0.5 * (G_next + G_next.T), H + Y.T @ Y


def _value_iterate(A, G, H) -> np.ndarray:
    """H + A' X0 (I + G X0)^{-1} A with X0 = 1e-12 I.

    After k doublings this is the value iterate 2^k Riccati steps from X0.
    """
    P = H + _X0 * A.T @ _solve(np.eye(A.shape[0]) + _X0 * G, A)
    return 0.5 * (P + P.T)


def solve_dare(A_d, B_sel, Q_d, S_sel, R_sel) -> RiccatiSolution:
    """Structure-preserving doubling (SDA) for the cross-term DARE.

    Preconditions: R_sel symmetric positive definite and
    Qhat = Q_d - S R^{-1} S' positive semidefinite (it is a Gram-matrix
    Schur complement for costs coming from ``cost_matrices``). A Qhat
    whose negative eigenvalue lies within 1e-10 of the size of Q_d and
    S R^{-1} S' lost definiteness to roundoff in their cancellation and
    raises NumericalError; a more negative one raises ValueError. A
    singular solve inside the doubling raises NumericalError.

    Starting from (A_0, G_0, H_0) = (Ahat, B R^{-1} B', Qhat), each
    doubling forms, with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k
        G_{k+1} = G_k + A_k W^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k,

    the last as H_k + Z'(I + H^{1/2} G_k H^{1/2})^{-1} Z with
    Z = H^{1/2} A_k, which is positive semidefinite by construction.
    The iterate P_k = H_k + A_k' X0 (I + G_k X0)^{-1} A_k, X0 = 1e-12 I,
    is exactly the value iterate after 2^k Riccati steps from X0, and
    ``iterations`` counts doublings. The loop stops when the Frobenius
    change of P_k falls below 1e-13 relative (with an absolute floor for
    P -> 0), or after 64 doublings, a horizon of 2^64 steps. An iterate
    growing past 1e12 times the scale of Qhat raises
    DareDivergenceError carrying that finite-horizon cost. The result is
    polished by policy iteration. The returned residual is evaluated on
    the original cross-term equation, and ``converged`` is true exactly
    when it is at most 1e-9 relative to 1 + ||P||_F.
    """
    A_d = numkernel.as_matrix(A_d, "A_d")
    B = numkernel.as_matrix(B_sel, "B_sel")
    Q_d = numkernel.as_matrix(Q_d, "Q_d")
    S = numkernel.as_matrix(S_sel, "S_sel")
    R = numkernel.as_matrix(R_sel, "R_sel")
    n = A_d.shape[0]
    numkernel.check_pd(R, "R_sel")

    RinvBSt = numkernel.solve_pd(R, np.hstack([B.T, S.T]), "R_sel")
    RinvSt = RinvBSt[:, n:]
    Ahat = A_d - B @ RinvSt
    SRinvSt = S @ RinvSt
    Qhat = Q_d - SRinvSt
    Qhat = 0.5 * (Qhat + Qhat.T)
    qhat_eigs = np.linalg.eigvalsh(Qhat)
    qscale = 1.0 + float(np.abs(qhat_eigs).max(initial=0.0))
    if qhat_eigs[0] < -1e-10 * qscale:
        # Q_d and S R^{-1} S' can cancel to a Qhat far below their own
        # size (long periods on unstable plants); a negative eigenvalue at
        # their roundoff level is a numerical failure, not a bad input
        cancelling = max(float(np.abs(Q_d).max()), float(np.abs(SRinvSt).max()))
        if qhat_eigs[0] >= -1e-10 * cancelling:
            raise NumericalError(
                f"Q_d - S R^{{-1}} S' lost positive semidefiniteness to roundoff "
                f"(min eig {qhat_eigs[0]:.3e} against cost blocks of size {cancelling:.3e})"
            )
        raise ValueError(
            f"Q_d - S R^{{-1}} S' is not positive semidefinite (min eig {qhat_eigs[0]:.3e})"
        )
    qhat_kernel_dim = int(np.count_nonzero(np.abs(qhat_eigs) <= 1e-10 * qscale))

    blow_up = DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(Qhat, "fro")))
    G = B @ RinvBSt[:, :n]
    A, G, H = Ahat, 0.5 * (G + G.T), Qhat
    P = _value_iterate(A, G, H)
    iterations = 0
    for iterations in range(1, _MAX_DOUBLINGS + 1):
        A, G, H = _doubling_step(A, G, H)
        Pn = _value_iterate(A, G, H)
        norm_Pn = float(np.linalg.norm(Pn, "fro"))
        if norm_Pn > blow_up or not np.isfinite(norm_Pn):
            finite = np.isfinite(norm_Pn)
            raise DareDivergenceError(
                f"Riccati doubling diverged: the 2^{iterations}-step cost passed {blow_up:.1e} "
                "(pair not stabilizable or period pathological)",
                last_iterate=Pn if finite else P,
                iterations=iterations if finite else iterations - 1,
            )
        step = float(np.linalg.norm(Pn - P, "fro"))
        P = Pn
        if step <= STEP_RTOL * max(1.0, norm_Pn):
            break

    P, residual = _policy_polish(P, A_d, B, Q_d, S, R)
    K = _gain(P, A_d, B, S, R)
    converged = residual <= RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(P, "fro")))
    return RiccatiSolution(
        P=P,
        K=K,
        residual=residual,
        iterations=iterations,
        converged=converged,
        qhat_kernel_dim=qhat_kernel_dim,
    )


@dataclass(frozen=True)
class MriLqrDesign:
    """One synthesis pipeline result: model, cost, input selection, solution."""

    mode: str
    model: SampledModel
    cost: SampledCost
    B_sel: np.ndarray
    S_sel: np.ndarray
    R_sel: np.ndarray
    solution: RiccatiSolution


def design_sampled(model: SampledModel, cost: SampledCost, mode: str) -> MriLqrDesign:
    """Restrict a sampled model and cost to one input mode and solve.

    The model and cost serve all three modes, so callers designing
    several modes at one period sample and build the cost once.
    """
    B_sel, S_sel, R_sel = restrict_input_mode(model, cost, mode)
    sol = solve_dare(model.A_d, B_sel, cost.Q_d, S_sel, R_sel)
    return MriLqrDesign(mode=mode, model=model, cost=cost,
                        B_sel=B_sel, S_sel=S_sel, R_sel=R_sel, solution=sol)


def design(plant: ContinuousPlant, weights: CostWeights, T: float, mode: str = "mri") -> MriLqrDesign:
    """Sample, build the equivalent cost, restrict the input mode, solve."""
    return design_sampled(sample_plant(plant, T), cost_matrices(plant, weights, T), mode)
