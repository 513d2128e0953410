"""Infinite-horizon discrete LQR with a state-input cross term.

Solves the discrete algebraic Riccati equation

    P = A_d' P A_d + Q_d
        - (A_d' P B + S)(B' P B + R)^{-1}(A_d' P B + S)'

by value iteration on the cross-term-eliminated form (Ahat = A_d - B
R^{-1} S', Qhat = Q_d - S R^{-1} S'), and returns the stationary
feedback gain

    K = -(R + B' P B)^{-1} (B' P A_d + S').

With the mixed hold+impulse input selection the gain rows split as the
hold gain (first m rows) followed by the impulse gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .discretize import ContinuousPlant, CostWeights, SampledCost, SampledModel, cost_matrices, restrict_input_mode, sample_plant
from .errors import DareDivergenceError

__all__ = [
    "RiccatiSolution",
    "MriLqrDesign",
    "solve_dare",
    "infinite_horizon_cost",
    "dare_residual",
    "design",
    "design_sampled",
]

MAX_ITERATIONS = 10**6
STEP_RTOL = 1e-13
DIVERGENCE_FACTOR = 1e12
STAGNATION_WINDOW = 200
RESIDUAL_RTOL = 1e-9


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


def _smith_lyapunov(A_cl, L) -> np.ndarray:
    """X = A_cl' X A_cl + L by squaring; requires rho(A_cl) < 1."""
    X = L.copy()
    Ak = A_cl.copy()
    for _ in range(80):
        X = X + Ak.T @ X @ Ak
        Ak = Ak @ Ak
        if float(np.abs(Ak).max()) < 1e-150:
            break
    return 0.5 * (X + X.T)


def _policy_polish(P, A_d, B, Q_d, S, R, max_rounds: int = 12):
    """Policy-iteration refinement of a near-converged value iterate.

    Value iteration stalls at a roundoff floor proportional to the
    magnitude of the cost blocks; re-evaluating the current gain through
    an exact closed-loop Lyapunov solve removes that floor. Each round
    needs a stabilizing gain, so the polish is skipped (returning the
    input) whenever the closed loop is not contractive.
    """
    best_P = P
    best_res = dare_residual(P, A_d, B, Q_d, S, R)
    for _ in range(max_rounds):
        K = _gain(best_P, A_d, B, S, R)
        A_cl = A_d + B @ K
        if numkernel.spectral_radius(A_cl) >= 1.0 - 1e-12:
            break
        L = Q_d + S @ K + K.T @ S.T + K.T @ R @ K
        Pn = _smith_lyapunov(A_cl, 0.5 * (L + L.T))
        res = dare_residual(Pn, A_d, B, Q_d, S, R)
        if not np.isfinite(res) or res >= best_res:
            break
        best_P, best_res = Pn, res
    return best_P, best_res


def solve_dare(A_d, B_sel, Q_d, S_sel, R_sel) -> RiccatiSolution:
    """Value iteration for the cross-term DARE.

    Preconditions: R_sel symmetric positive definite and
    Qhat = Q_d - S R^{-1} S' positive semidefinite (it is a Gram-matrix
    Schur complement for costs coming from ``cost_matrices``).

    Iterates P <- Qhat + Ahat'PAhat - Ahat'PB (R + B'PB)^{-1} B'PAhat
    from P0 = Qhat + 1e-12 I until the Frobenius change falls below
    1e-13 relative (with an absolute floor for P -> 0), the step size
    stops improving for 200 consecutive iterations (roundoff floor), or
    the iteration budget of 10^6 is exhausted. Iterates blowing past
    1e12 times the scale of Qhat raise DareDivergenceError carrying the
    last iterate. The result is polished by policy iteration and the
    returned residual is always evaluated on the original cross-term
    equation.
    """
    A_d = numkernel.as_matrix(A_d, "A_d")
    B = numkernel.as_matrix(B_sel, "B_sel")
    Q_d = numkernel.as_matrix(Q_d, "Q_d")
    S = numkernel.as_matrix(S_sel, "S_sel")
    R = numkernel.as_matrix(R_sel, "R_sel")
    n = A_d.shape[0]
    numkernel.check_pd(R, "R_sel")

    RinvSt = numkernel.solve_pd(R, S.T, "R_sel")
    Ahat = A_d - B @ RinvSt
    Qhat = Q_d - S @ RinvSt
    Qhat = 0.5 * (Qhat + Qhat.T)
    qhat_eigs = np.linalg.eigvalsh(Qhat)
    qscale = 1.0 + float(np.abs(qhat_eigs).max(initial=0.0))
    if qhat_eigs[0] < -1e-10 * qscale:
        raise ValueError(
            f"Q_d - S R^{{-1}} S' is not positive semidefinite (min eig {qhat_eigs[0]:.3e})"
        )
    qhat_kernel_dim = int(np.count_nonzero(np.abs(qhat_eigs) <= 1e-10 * qscale))

    blow_up = DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(Qhat, "fro")))
    P = Qhat + 1e-12 * np.eye(n)
    iterations = 0
    step_met = False
    best_step = np.inf
    best_step_iter = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        PB = P @ B
        M = R + B.T @ PB
        PAhat = P @ Ahat
        W = B.T @ PAhat
        Pn = Qhat + Ahat.T @ PAhat - W.T @ numkernel.solve_pd(M, W, "R + B'PB")
        Pn = 0.5 * (Pn + Pn.T)
        norm_Pn = float(np.linalg.norm(Pn, "fro"))
        if norm_Pn > blow_up or not np.isfinite(norm_Pn):
            raise DareDivergenceError(
                f"value iteration diverged after {iterations} iterations "
                "(pair not stabilizable or period pathological)",
                last_iterate=Pn if np.isfinite(norm_Pn) else P,
                iterations=iterations,
            )
        step = float(np.linalg.norm(Pn - P, "fro"))
        P = Pn
        if step <= STEP_RTOL * max(1.0, norm_Pn):
            step_met = True
            break
        if step < best_step:
            best_step = step
            best_step_iter = iterations
        elif iterations - best_step_iter >= STAGNATION_WINDOW:
            break

    P, residual = _policy_polish(P, A_d, B, Q_d, S, R)
    K = _gain(P, A_d, B, S, R)
    converged = step_met or residual <= RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(P, "fro")))
    return RiccatiSolution(
        P=P,
        K=K,
        residual=residual,
        iterations=iterations,
        converged=converged,
        qhat_kernel_dim=qhat_kernel_dim,
    )


def infinite_horizon_cost(sol: RiccatiSolution, x0) -> float:
    """Optimal cost-to-go x0' P x0 from the initial state x0."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    return float(x @ sol.P @ x)


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
