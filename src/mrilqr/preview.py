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
from .numkernel import _T, _cellwise, _fro, _sym
from .errors import NumericalError

__all__ = [
    "PreviewPlan",
    "closed_loop_G",
    "feedforward_sequence",
    "gamma_and_cost",
    "preview_costs",
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


def _closed_loop(A_d, B, S, R, P, K):
    """``closed_loop_G`` on stacks, given each cell's gain K (a nan K measures
    no disagreement); and the NumericalError of each failed cell, by index."""
    n = A_d.shape[-1]
    RinvBSt, failed = numkernel.solve_pd_stack(R, np.concatenate([_T(B), _T(S)], axis=-1), "R_d")
    M = np.eye(n) + B @ RinvBSt[..., :n] @ P
    G_literal, singular = _cellwise(np.linalg.solve, M, A_d - B @ RinvBSt[..., n:])
    G = A_d + B @ K
    err = _fro(G - G_literal)
    # the literal route cannot beat eps * cond(I + B R^{-1} B' P); the
    # extra factor absorbs the error of forming that product entrywise
    tol = np.fmax(1e-9, 1e4 * np.finfo(float).eps * np.linalg.cond(M))
    # a cell reports its first failure
    disagree = {j: NumericalError(f"closed-loop forms disagree by {err[j]:.3e} (tolerance {tol[j]:.3e})")
                for j in np.flatnonzero(err > tol * (1.0 + _fro(G)))}
    singular = {j: NumericalError(f"singular I + B R^{{-1}} B' P: {exc}") for j, exc in singular.items()}
    return G, {**disagree, **singular, **failed}


def closed_loop_G(A_d, B_di, S_d, R_d, P) -> np.ndarray:
    """Optimal closed-loop matrix (I + B R^{-1} B' P)^{-1} (A_d - B R^{-1} S').

    By the matrix inversion lemma this equals A_d + B_di K with the
    stationary gain. Both forms are evaluated and must agree, which
    guards against ill-conditioned solves; a singular I + B R^{-1} B' P
    raises NumericalError like a disagreement. The agreement tolerance is
    1e-9 relative, widened with the conditioning of R_d because the
    literal form routes through R_d^{-1} and cannot do better than
    eps * cond(R_d). The better-conditioned gain form is returned.
    This is ``sweep``'s stacked closed loop on a stack of one.
    """
    A_d, B, S, R, P = (numkernel.as_matrix(X, name)[None] for X, name in
                       ((A_d, "A_d"), (B_di, "B_di"), (S_d, "S_d"), (R_d, "R_d"), (P, "P")))
    K, gain_failed = riccati._gain(P, A_d, B, S, R)
    if gain_failed:  # no disagreement is measured without a gain
        K[0] = np.nan
    G, failed = _closed_loop(A_d, B, S, R, P, K)
    return numkernel._single(G, {**gain_failed, **failed})


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


def _gamma_and_cost(P, G, B, R, b, N: int):
    """``gamma_and_cost`` on stacks, for one Btilde b or one per cell and
    N >= 0; and the NumericalError of each cell that fails, by index."""
    n = P.shape[-1]
    Gamma = np.zeros(P.shape)
    failed = {}
    if N > 0:
        RinvBt, failed = numkernel.solve_pd_stack(R, _T(B), "R_d")
        X = B @ RinvBt
        # M = X (I + P X)^{-1}, symmetric by the push-through identity.
        M, singular = _cellwise(np.linalg.solve, _T(np.eye(n) + P @ X), X)
        failed = {**{j: NumericalError(f"singular (I + P B R^{{-1}} B')': {exc}") for j, exc in singular.items()},
                  **failed}
        M = _sym(_T(M))
        Gk = np.eye(n)
        for i in range(N):
            Gamma += _sym(Gk @ M @ _T(Gk))
            if i < N - 1:
                Gk = G @ Gk
        Gamma = _sym(Gamma)
    b = b[..., None]
    Pb = P @ b
    return Gamma, (_T(b) @ Pb - _T(Pb) @ Gamma @ Pb)[:, 0, 0], failed


def gamma_and_cost(P, G, B_di, R_d, Btilde, N: int) -> tuple[np.ndarray, float]:
    """Preview benefit matrix Gamma and the closed-form optimal cost.

    Gamma accumulates sum_{i=0}^{N-1} G^i M (G')^i with the symmetric
    psd core M = B R^{-1} B' (I + P B R^{-1} B')^{-1}; every term is
    symmetrized to kill roundoff asymmetry. The cost is
    Btilde'P Btilde - Btilde'P Gamma P Btilde. A singular
    I + P B R^{-1} B' raises NumericalError. This is ``sweep``'s stacked
    preview cost on a stack of one.
    """
    if N < 0:
        raise ValueError(f"preview horizon must be >= 0, got {N}")
    B, P, R = (numkernel.as_matrix(X, name)[None] for X, name in ((B_di, "B_di"), (P, "P"), (R_d, "R_d")))
    Gamma, Jstar, failed = _gamma_and_cost(P, np.asarray(G, dtype=float)[None], B, R,
                                           np.asarray(Btilde, dtype=float).reshape(-1), N)
    return numkernel._single(Gamma, failed), float(Jstar[0])


def preview_costs(designs, Btilde, horizons) -> tuple[np.ndarray, np.ndarray, dict[int, NumericalError]]:
    """The closed loop G of equally shaped designs and their Jstar (rows) at
    each horizon (columns), as one stack, and the NumericalError of each
    failed design, by index.

    The closed loop takes each solution's K, which ``closed_loop_G``
    derives again, so each cost has the bits of ``closed_loop_G`` followed
    by ``gamma_and_cost``.
    """
    A_d, B, S, R, P, K = (np.stack(X) for X in zip(*(
        (d.model.A_d, d.B_sel, d.S_sel, d.R_sel, d.solution.P, d.solution.K) for d in designs)))
    G, failed = _closed_loop(A_d, B, S, R, P, K)
    costs = []
    for N in horizons:
        _, Jstar, failed_N = _gamma_and_cost(P, G, B, R, np.asarray(Btilde, dtype=float), N)
        failed = {**failed_N, **failed}
        costs.append(Jstar)
    return G, np.stack(costs, axis=-1), failed


def preview_plan(des: riccati.MriLqrDesign, Btilde, N: int) -> PreviewPlan:
    """Preview quantities on top of a finished design (usually mode mri)."""
    P = des.solution.P
    G = closed_loop_G(des.model.A_d, des.B_sel, des.S_sel, des.R_sel, P)
    ff = feedforward_sequence(P, G, des.B_sel, des.R_sel, Btilde, N)
    Gamma, Jstar = gamma_and_cost(P, G, des.B_sel, des.R_sel, Btilde, N)
    return PreviewPlan(N=N, K=des.solution.K, feedforward=ff, G=G, Gamma=Gamma, Jstar=Jstar)
