"""Preview LQR against an impulsive disturbance known N periods ahead.

The disturbance enters as a state jump of Btilde at sampling instant N.
When the controller knows this in advance, the optimal inputs over the
first N steps add a feedforward term to the stationary feedback:

    v_k = K x_k - (R + B'PB)^{-1} B' w_{N-k-1},  w_e = (G')^e P Btilde,  k < N
    v_k = K x_k,                                                      k >= N

with G the optimal closed loop. The solve of exponent e lowers the cost
by d_e = (B'w_e)' (R + B'PB)^{-1} B'w_e, so one recursion gives every horizon:

    Jstar(N) = Btilde'P Btilde - (d_0 + ... + d_{N-1})
             = Btilde'P Btilde - Btilde'P Gamma P Btilde,
    Gamma = sum_{i=0}^{N-1} G^i M (G')^i,  M = B (R + B'PB)^{-1} B',

the paper's closed form, which is evaluated only where Gamma is reported.
Preview strictly helps whenever B'P Btilde is nonzero.

``preview_plan`` checks Btilde and N; the kernels behind it trust the
arrays of a finished design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel, riccati
from .discretize import _check_count
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
    scale = 1.0 + _fro(G)
    # the literal route cannot beat eps * cond(I + B R^{-1} B' P); the
    # extra factor absorbs the error of forming that product entrywise.
    # The tolerance is at least 1e-9, so only a cell past 1e-9 needs cond
    tol = np.full(len(err), 1e-9)
    wide = np.flatnonzero(err > tol * scale)
    if wide.size:
        tol[wide] = np.fmax(1e-9, 1e4 * np.finfo(float).eps * np.linalg.cond(M[wide]))
    # a cell reports its first failure
    disagree = {j: NumericalError(f"closed-loop forms disagree by {err[j]:.3e} (tolerance {tol[j]:.3e})")
                for j in np.flatnonzero(err > tol * scale)}
    singular = {j: NumericalError(f"singular I + B R^{{-1}} B' P: {exc}") for j, exc in singular.items()}
    return G, {**disagree, **singular, **failed}


def closed_loop_G(A_d, B_di, S_d, R_d, P) -> np.ndarray:
    """Optimal closed-loop matrix (I + B R^{-1} B' P)^{-1} (A_d - B R^{-1} S').

    By the matrix inversion lemma this equals A_d + B_di K with the
    stationary gain. Both forms are evaluated and must agree, which
    guards against ill-conditioned solves; a singular I + B R^{-1} B' P
    raises NumericalError like a disagreement. The agreement tolerance is
    1e-9 relative, widened with the conditioning of I + B R^{-1} B' P
    because the literal form solves with it and cannot do better than
    eps times its condition number. The better-conditioned gain form is
    returned.
    This is ``sweep``'s stacked closed loop on a stack of one.
    """
    A_d, B, S, R, P = (X[None] for X in (A_d, B_di, S_d, R_d, P))
    K, gain_failed = riccati._gain(P, A_d, B, S, R)
    if gain_failed:  # no disagreement is measured without a gain
        K[0] = np.nan
    G, failed = _closed_loop(A_d, B, S, R, P, K)
    return numkernel._single(G, {**gain_failed, **failed})


def _preview(P, G, B, R, b, N: int):
    """The feedforward f_0..f_{N-1} (k, N, p) of stacks of k designs, their
    Jstar at each horizon 0..N (k, N + 1) for one Btilde b, (R + B'PB)^{-1} B'
    (k, p, n; zero for N = 0, which makes no solve) and the NumericalError of
    each failed cell, by index. Each cell factors R + B'PB once and solves
    for its N exponents and B' as the N + n columns of one right-hand side;
    a column of that solve has the bits of its own vector solve, so
    x_e = (R + B'PB)^{-1} B'w_e and its drop (B'w_e)'x_e have the same bits
    whatever N."""
    k, (n, p) = len(P), B.shape[-2:]
    Pb = w = P @ b[..., None]
    if N == 0:
        return np.empty((k, 0, p)), (_T(b[..., None]) @ Pb)[:, 0], np.zeros((k, p, n)), {}
    Bw = np.empty((k, N, p))
    for e in range(N):
        if e:
            w = _T(G) @ w
        Bw[:, e] = (_T(B) @ w)[..., 0]
    X, failed = numkernel.solve_pd_stack(R + _T(B) @ P @ B, np.concatenate([_T(Bw), _T(B)], axis=-1), "R + B'PB")
    x = np.ascontiguousarray(_T(X[..., :N]))
    drops = np.zeros((k, N + 1))
    drops[:, 1:] = (Bw * x).sum(axis=-1)
    Jstar = (_T(b[..., None]) @ Pb)[:, 0] - np.cumsum(drops, axis=1)
    return -x[:, ::-1], Jstar, X[..., N:], failed


def _gamma(G, M, N: int) -> np.ndarray:
    """Gamma = sum_{i=0}^{N-1} G^i M (G')^i for the core M = B (R + B'PB)^{-1} B'
    of ``_preview``'s one factorization; symmetrized to kill roundoff asymmetry."""
    Gamma, Gk = np.zeros(G.shape), np.eye(len(G))
    for i in range(N):
        if i:
            Gk = G @ Gk
        Gamma += Gk @ M @ Gk.T
    return _sym(Gamma)


def feedforward_sequence(P, G, B_di, R_d, Btilde, N: int) -> tuple[np.ndarray, ...]:
    """Feedforward inputs f_0..f_{N-1} driving the pre-disturbance steps,
    f_k = -(R + B'PB)^{-1} B' (G')^{N-k-1} P Btilde; R + B'PB is factored
    once, for the N right-hand sides together.
    """
    ff, _, _, failed = _preview(P[None], G[None], B_di[None], R_d[None], np.asarray(Btilde, dtype=float).reshape(-1), N)
    return tuple(numkernel._single(ff, failed))


def gamma_and_cost(P, G, B_di, R_d, Btilde, N: int) -> tuple[np.ndarray, float]:
    """Preview benefit matrix Gamma and the optimal cost Jstar(N) of the
    feedforward recursion, which is ``preview_costs``'s on a stack of one,
    from one factorization of R + B'PB, whose failure raises NumericalError.
    """
    _, Jstar, RinvBt, failed = _preview(P[None], G[None], B_di[None], R_d[None],
                                        np.asarray(Btilde, dtype=float).reshape(-1), N)
    Jstar = float(numkernel._single(Jstar, failed)[N])
    return _gamma(G, B_di @ RinvBt[0], N), Jstar


def _preview_costs(A_d, B, S, R, P, K, b, horizons) -> tuple[np.ndarray, np.ndarray, dict[int, NumericalError]]:
    """``preview_costs`` on the stacks of the designs (as ``sweep`` has them), for a Btilde b of n floats."""
    G, failed = _closed_loop(A_d, B, S, R, P, K)
    _, Jstar, _, failed_N = _preview(P, G, B, R, b, max(horizons))
    return G, Jstar[:, list(horizons)], {**failed_N, **failed}


def preview_costs(designs, Btilde, horizons) -> tuple[np.ndarray, np.ndarray, dict[int, NumericalError]]:
    """The closed loop G of equally shaped designs and their Jstar (rows) at
    each horizon (columns), as one stack, and the NumericalError of each
    failed design, by index.

    The closed loop takes each solution's K, which ``closed_loop_G``
    derives again, and one feedforward recursion to the longest horizon
    gives every horizon's cost, so each cost has the bits of
    ``closed_loop_G`` followed by ``gamma_and_cost``.
    """
    return _preview_costs(*map(np.stack, zip(*((d.model.A_d, d.B_sel, d.S_sel, d.R_sel, d.solution.P, d.solution.K)
                                               for d in designs))), np.asarray(Btilde, dtype=float), horizons)


def preview_plan(des: riccati.MriLqrDesign, Btilde, N: int) -> PreviewPlan:
    """Preview quantities on top of a converged design (usually mode mri), for
    a disturbance Btilde of n finite entries and an integer N >= 0. The closed
    loop takes the design's gain and one factorization of R + B'PB gives the
    rest; an unconverged design raises NumericalError."""
    P = des.solution.P
    b = np.asarray(Btilde, dtype=float).reshape(-1)
    if b.size != len(P) or not np.isfinite(b).all():
        raise ValueError(f"Btilde must be a vector of {len(P)} finite entries, got {b.tolist()}")
    _check_count(N, "preview horizon N", 0)
    if not des.solution.converged:
        raise NumericalError("no preview on a design that did not converge")
    B, R, K = des.B_sel, des.R_sel, des.solution.K
    G = numkernel._single(*_closed_loop(*(X[None] for X in (des.model.A_d, B, des.S_sel, R, P, K))))
    ff, Jstar, RinvBt, failed = _preview(P[None], G[None], B[None], R[None], b, N)
    return PreviewPlan(N=N, K=K, feedforward=tuple(numkernel._single(ff, failed)), G=G,
                       Gamma=_gamma(G, B @ RinvBt[0], N), Jstar=float(Jstar[0, N]))
