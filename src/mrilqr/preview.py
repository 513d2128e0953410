"""Preview LQR against an impulsive disturbance known N periods ahead.

The disturbance enters as a state jump of Btilde at sampling instant N.
When the controller knows this in advance, the optimal inputs over the
first N steps add a feedforward term to the stationary feedback:

    v_k = K x_k - (R + B'PB)^{-1} B' (G')^{N-k-1} P Btilde,  k < N
    v_k = K x_k,                                             k >= N

with G the optimal closed loop. The achievable cost has the closed form

    Jstar = Btilde' P Btilde - Btilde' P Gamma P Btilde
    Gamma = sum_{i=0}^{N-1} G^i M (G')^i,
    M = B R^{-1} B' (I + P B R^{-1} B')^{-1}

so preview strictly helps whenever P Btilde is not in the kernel of M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel, riccati
from .errors import NumericalError

__all__ = [
    "PreviewPlan",
    "closed_loop_G",
    "feedforward_sequence",
    "gamma_and_cost",
    "preview_plan",
]


@dataclass(frozen=True)
class PreviewPlan:
    """Feedback gain, feedforward sequence and closed-form optimal cost.

    For N = 0 the feedforward is empty, Gamma = 0 and Jstar reduces to
    Btilde' P Btilde (no advance knowledge, pure feedback).
    """

    N: int
    K: np.ndarray
    feedforward: tuple[np.ndarray, ...]
    G: np.ndarray
    Gamma: np.ndarray
    Jstar: float


def closed_loop_G(A_d, B_di, S_d, R_d, P) -> np.ndarray:
    """Optimal closed-loop matrix (I + B R^{-1} B' P)^{-1} (A_d - B R^{-1} S').

    By the matrix inversion lemma this equals A_d + B_di K with the
    stationary gain. Both forms are evaluated and must agree, which
    guards against ill-conditioned solves. The agreement tolerance is
    1e-9 relative, widened with the conditioning of R_d because the
    literal form routes through R_d^{-1} and cannot do better than
    eps * cond(R_d). The better-conditioned gain form is returned.
    """
    A_d = numkernel.as_matrix(A_d, "A_d")
    B = numkernel.as_matrix(B_di, "B_di")
    S = numkernel.as_matrix(S_d, "S_d")
    R = numkernel.as_matrix(R_d, "R_d")
    P = numkernel.as_matrix(P, "P")
    n = A_d.shape[0]

    BRinvBt = B @ numkernel.solve_pd(R, B.T, "R_d")
    M = np.eye(n) + BRinvBt @ P
    G_literal = np.linalg.solve(M, A_d - B @ numkernel.solve_pd(R, S.T, "R_d"))

    K = riccati._gain(P, A_d, B, S, R)
    G = A_d + B @ K
    err = float(np.linalg.norm(G - G_literal, "fro"))
    # the literal route cannot beat eps * cond(I + B R^{-1} B' P); the
    # extra factor absorbs the error of forming that product entrywise
    tol = max(1e-9, 1e4 * np.finfo(float).eps * float(np.linalg.cond(M)))
    if err > tol * (1.0 + float(np.linalg.norm(G, "fro"))):
        raise NumericalError(
            f"closed-loop forms disagree by {err:.3e} (tolerance {tol:.3e})"
        )
    return G


def feedforward_sequence(P, G, B_di, R_d, Btilde, N: int) -> tuple[np.ndarray, ...]:
    """Feedforward inputs f_0..f_{N-1} driving the pre-disturbance steps.

    f_k = -(R + B'PB)^{-1} B' (G')^{N-k-1} P Btilde. Powers of G' are
    built by repeated multiplication; N is small in practice.
    """
    if N < 0:
        raise ValueError(f"preview horizon must be >= 0, got {N}")
    if N == 0:
        return ()
    B = numkernel.as_matrix(B_di, "B_di")
    P = numkernel.as_matrix(P, "P")
    R = numkernel.as_matrix(R_d, "R_d")
    b = np.asarray(Btilde, dtype=float).reshape(-1)
    M = R + B.T @ P @ B

    # w_e = (G')^e P Btilde for e = 0..N-1; f_k uses exponent N-k-1.
    w = P @ b
    ws = [w]
    for _ in range(N - 1):
        ws.append(G.T @ ws[-1])
    return tuple(-numkernel.solve_pd(M, B.T @ ws[N - 1 - k], "R + B'PB") for k in range(N))


def gamma_and_cost(P, G, B_di, R_d, Btilde, N: int) -> tuple[np.ndarray, float]:
    """Preview benefit matrix Gamma and the closed-form optimal cost.

    Gamma accumulates sum_{i=0}^{N-1} G^i M (G')^i with the symmetric
    psd core M = B R^{-1} B' (I + P B R^{-1} B')^{-1}; every term is
    symmetrized to kill roundoff asymmetry. The cost is
    Btilde'P Btilde - Btilde'P Gamma P Btilde.
    """
    if N < 0:
        raise ValueError(f"preview horizon must be >= 0, got {N}")
    B = numkernel.as_matrix(B_di, "B_di")
    P = numkernel.as_matrix(P, "P")
    R = numkernel.as_matrix(R_d, "R_d")
    b = np.asarray(Btilde, dtype=float).reshape(-1)
    n = P.shape[0]

    Gamma = np.zeros((n, n))
    if N > 0:
        X = B @ numkernel.solve_pd(R, B.T, "R_d")
        # M = X (I + P X)^{-1}, symmetric by the push-through identity.
        M = np.linalg.solve((np.eye(n) + P @ X).T, X).T
        M = 0.5 * (M + M.T)
        Gk = np.eye(n)
        for i in range(N):
            term = Gk @ M @ Gk.T
            Gamma += 0.5 * (term + term.T)
            if i < N - 1:
                Gk = G @ Gk
        Gamma = 0.5 * (Gamma + Gamma.T)

    Pb = P @ b
    Jstar = float(b @ Pb - Pb @ Gamma @ Pb)
    return Gamma, Jstar


def preview_plan(des: riccati.MriLqrDesign, Btilde, N: int) -> PreviewPlan:
    """Preview quantities on top of a finished design (usually mode mri)."""
    P = des.solution.P
    G = closed_loop_G(des.model.A_d, des.B_sel, des.S_sel, des.R_sel, P)
    ff = feedforward_sequence(P, G, des.B_sel, des.R_sel, Btilde, N)
    Gamma, Jstar = gamma_and_cost(P, G, des.B_sel, des.R_sel, Btilde, N)
    return PreviewPlan(N=N, K=des.solution.K, feedforward=ff, G=G, Gamma=Gamma, Jstar=Jstar)
