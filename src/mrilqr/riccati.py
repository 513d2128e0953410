"""Infinite-horizon discrete LQR with a state-input cross term.

Solves the discrete algebraic Riccati equation

    P = A_d' P A_d + Q_d
        - (A_d' P B + S)(B' P B + R)^{-1}(A_d' P B + S)'

by structure-preserving doubling on the cross-term-eliminated form
(Ahat = A_d - B R^{-1} S', Qhat = Q_d - S R^{-1} S', G = B R^{-1} B'),
whose k-th iterate is the 2^k-step value-iteration cost, polishes the
result by policy iteration only when it misses the residual test, and
returns the stationary feedback gain

    K = -(R + B' P B)^{-1} (B' P A_d + S').

``design_batch`` is the synthesis pipeline, on period stacks from sampler
to solver, and ``design`` its one-cell call; ``solve_dare`` solves checked
hand-made matrices as a stack of one. The doubling (each problem with its
own stop rule) runs once on all cells, the other stages once per mode, the
policy polish only on the iterates that need it; each problem keeps its
own failure status, whatever its stack.

With the mixed hold+impulse input selection the gain rows split as the
hold gain (first m rows) followed by the impulse gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from . import discretize, numkernel
from .numkernel import _T, _cellwise, _fro, _sym
from .discretize import ContinuousPlant, CostWeights, SampledCost, SampledModel
from .errors import DareDivergenceError, NumericalError

__all__ = [
    "RiccatiSolution",
    "MriLqrDesign",
    "solve_dare",
    "dare_residual",
    "design",
    "design_batch",
]

STEP_RTOL = 1e-13
DIVERGENCE_FACTOR = 1e12
RESIDUAL_RTOL = 1e-9
_MAX_DOUBLINGS = 64
_X0 = 1e-12


@dataclass(frozen=True)
class RiccatiSolution:
    """Stationary solution P with its gain and convergence diagnostics.

    residual is the Frobenius norm of the Riccati defect evaluated on the
    original (cross-term) equation; for converged see ``solve_dare``.
    qhat_kernel_dim > 0 signals that the effective state weight Qhat is
    singular, so controllability alone does not make P positive definite.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int
    converged: bool
    qhat_kernel_dim: int


def _gain(P, A_d, B, S, R):
    """K = -(R + B'PB)^{-1}(B'PA_d + S') of each cell of stacks, and each failed cell's NumericalError."""
    X, failed = numkernel.solve_pd_stack(R + _T(B) @ P @ B, _T(B) @ P @ A_d + _T(S), "R + B'PB")
    return -X, failed


def _residuals(P, A_d, B, Q_d, S, R):
    """``dare_residual`` of each cell of stacks, and each failed cell's NumericalError.

    A residual that overflows double precision is not finite, without a
    numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = _T(A_d) @ P @ B + S
        X, failed = numkernel.solve_pd_stack(_T(B) @ P @ B + R, _T(W), "R + B'PB")
        return _fro(P - (_T(A_d) @ P @ A_d + Q_d - W @ X)), failed


def dare_residual(P, A_d, B, Q_d, S, R) -> float:
    """Frobenius norm of P - (A_d'PA_d + Q_d - (A_d'PB + S)(B'PB + R)^{-1}(...)').

    Not finite, without a numpy warning, when it overflows double precision.
    """
    return float(numkernel._single(*_residuals(*(np.asarray(X, dtype=float)[None]
                                                  for X in (P, A_d, B, Q_d, S, R)))))


def _converged(P, residual) -> np.ndarray:
    """The residual test of each cell: at most 1e-9 relative to 1 + ||P||_F."""
    return residual <= RESIDUAL_RTOL * (1.0 + _fro(P))


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
    """F with F'F = M for a symmetric M (or each of a stack), negative eigenvalues clipped to zero.

    ``eigh`` reads one triangle, so M must be symmetric to the bit.
    """
    w, V = np.linalg.eigh(M)
    return np.sqrt(np.maximum(w, 0.0))[..., :, None] * _T(V)


def _policy_polish(P, residual: float, A_d, B, Q_d, S, R):
    """Policy-iteration refinement of an iterate that misses the residual test.

    The doubling stalled at a roundoff floor proportional to the magnitude
    of the cost blocks; re-evaluating the current gain through an exact
    closed-loop Lyapunov solve removes that floor. The Lyapunov right-hand
    side is F'F with F = J [I; K], J'J the joint cost [[Q_d, S], [S', R]],
    so every evaluated P is positive semidefinite. Each round needs a
    stabilizing gain, so the polish stops (keeping the best iterate so far)
    when the closed loop is not contractive or its Lyapunov sum overflows,
    when the residual stops falling, and after at most 12 rounds.
    """
    best_P, best_res = P, residual
    n = A_d.shape[0]
    J = _psd_factor(_sym(np.block([[Q_d, S], [S.T, R]])))
    for _ in range(12):
        K = numkernel._single(*_gain(best_P[None], A_d[None], B[None], S[None], R[None]))
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


def _singular(exc: np.linalg.LinAlgError) -> NumericalError:
    return NumericalError(f"singular system in the Riccati doubling: {exc}")


def _solve_lower(L, Z) -> np.ndarray:
    """L^{-1} Z for each pair of stacks of lower-triangular L and of Z.

    Each cell makes the LAPACK call that ``scipy.linalg.solve_triangular(
    L[i], Z[i], lower=True)`` makes for a C-ordered L (trtrs on the
    Fortran-ordered transpose), and so gives its bits; scipy's own
    stacked form loops over the cells at several times the cost. A
    Cholesky factor has a positive diagonal, so the solve cannot fail.
    """
    X = np.empty(Z.shape)
    for i in range(len(L)):
        X[i] = dtrtrs(L[i].T, Z[i], lower=0, trans=1)[0]
    return X


def _doubling_step(A, G, H, I):
    """(A_k, G_k, H_k) -> (A_{k+1}, G_{k+1}, H_{k+1}) on stacks; see ``solve_dare``.

    I is the n x n identity. Also returns the NumericalError of each cell
    whose solve or Cholesky factorization failed, by its index in the stack.
    H stays symmetric to the bit: Qhat is symmetrized, and numpy forms Y'Y
    symmetric.
    """
    n = A.shape[-1]
    H_half = _psd_factor(H)
    WinvAG, singular = _cellwise(np.linalg.solve, I + G @ H, np.concatenate([A, G], axis=-1))
    L, indefinite = _cellwise(np.linalg.cholesky, I + H_half @ G @ _T(H_half))
    failed = {}
    if singular or indefinite:
        # the solve comes first, so a cell where both fail reports the solve
        failed = {i: NumericalError("indefinite I + H^{1/2} G H^{1/2} in the Riccati doubling")
                  for i in indefinite}
        failed.update((i, _singular(exc)) for i, exc in singular.items())
    Y = _solve_lower(L, H_half @ A)
    G_next = G + A @ WinvAG[..., n:] @ _T(A)
    return A @ WinvAG[..., :n], _sym(G_next), H + _T(Y) @ Y, failed


def _value_iterate(A, G, H, I):
    """H + A' X0 (I + G X0)^{-1} A with X0 = 1e-12 I, on stacks, I the identity.

    After k doublings this is the value iterate 2^k Riccati steps from X0.
    Also returns the NumericalError of each cell whose solve failed.
    """
    X, singular = _cellwise(np.linalg.solve, I + _X0 * G, A)
    return _sym(H + _X0 * _T(A) @ X), {i: _singular(exc) for i, exc in singular.items()}


def _iterate(A, G, H, seeded, I):
    """The iterate P_k of each cell of stacks, and the NumericalError of each
    failed seed solve, by index: the value iterate from X0 where ``seeded``,
    H_k itself, the value iterate from 0, elsewhere."""
    if not seeded.any():
        return H, {}
    cells = np.flatnonzero(seeded)
    P = H.copy()
    P[cells], failed = _value_iterate(A[cells], G[cells], H[cells], I)
    return P, {int(cells[j]): exc for j, exc in failed.items()}


def _doubling(A, G, H, blow_up, seeded):
    """The doubling on stacks (k, n, n) of (Ahat, G, Qhat), until every cell stops.

    ``seeded`` marks the cells whose iterate starts from X0 = 1e-12 I (those
    whose Qhat has a kernel); the others start from 0. Returns each cell's
    iterate, its number of doublings and its failure: None, a
    NumericalError, or a DareDivergenceError once the iterate passes the
    cell's ``blow_up`` bound. A cell leaves the stack when it meets the
    step rule, passes its bound or fails, so its result and doubling count
    are those of a stack of one.
    """
    k = len(A)
    I = np.eye(A.shape[-1])
    P_out = np.zeros_like(H)
    iterations = np.zeros(k, dtype=int)
    failures: list[NumericalError | None] = [None] * k
    live, bound = np.arange(k), blow_up
    # a cell that overflows shows as a non-finite norm, which the divergence
    # test reads, and a failed cell runs on with placeholder values until it
    # is dropped, so numpy's overflow warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        P, failed = _iterate(A, G, H, seeded, I)
        stop = np.zeros(k, dtype=bool)
        for it in range(1, _MAX_DOUBLINGS + 2):
            # drop the cells that failed or stopped in the last doubling
            for j, exc in failed.items():
                failures[live[j]] = exc
                stop[j] = True
            if stop.any():
                keep = ~stop
                live, A, G, H, P = live[keep], A[keep], G[keep], H[keep], P[keep]
                bound, seeded = bound[keep], seeded[keep]
            if not live.size or it > _MAX_DOUBLINGS:
                break
            A, G, H, failed = _doubling_step(A, G, H, I)
            Pn, seed_failed = _iterate(A, G, H, seeded, I)
            if seed_failed:
                # a cell's first failure is the one it reports
                failed = {**seed_failed, **failed}
            norm = _fro(Pn)
            diverged = (norm > bound) | ~np.isfinite(norm)
            stop = diverged | (_fro(Pn - P) <= STEP_RTOL * np.maximum(1.0, norm))
            for j in np.flatnonzero(stop):
                if j in failed:
                    continue
                cell = live[j]
                finite = np.isfinite(norm[j])
                P_out[cell] = Pn[j] if finite else P[j]
                iterations[cell] = it if finite else it - 1
                if diverged[j]:
                    failures[cell] = DareDivergenceError(
                        f"Riccati doubling diverged: the 2^{it}-step cost passed {blow_up[cell]:.1e} "
                        "(pair not stabilizable or period pathological)",
                        last_iterate=P_out[cell],
                        iterations=int(iterations[cell]),
                    )
            P = Pn
    P_out[live] = P
    iterations[live] = _MAX_DOUBLINGS
    return P_out, iterations, failures


def _check_problem(A_d, B_sel, Q_d, S_sel, R_sel) -> list[np.ndarray]:
    """The five matrices of ``solve_dare`` as float arrays, or its ValueError."""
    R = numkernel.as_matrix(R_sel, "R_sel")
    numkernel.check_pd(R, "R_sel")
    names = ("A_d", "B_sel", "Q_d", "S_sel", "R_sel")
    A, B, Q, S = (numkernel.as_matrix(M, name) for M, name in zip((A_d, B_sel, Q_d, S_sel), names))
    n, p = A.shape[0], B.shape[1]
    for M, name, shape in zip((A, B, Q, S, R), names, ((n, n), (n, p), (n, n), (n, p), (p, p))):
        if M.shape != shape:
            raise ValueError(f"{name} has shape {M.shape}, expected {shape}")
    return [A, B, Q, S, R]


def _eliminate_cross_term(A_d, B, Q_d, S, R):
    """(Ahat, G, Qhat, blow-up bound, Qhat kernel dimension) of each cell of
    trusted stacks, and the error of each cell that fails.

    A cell fails with ValueError for an indefinite Qhat and NumericalError
    for one that lost definiteness to roundoff or whose norm overflows;
    see ``solve_dare``.
    """
    n = A_d.shape[-1]
    RinvBSt, failed = numkernel.solve_pd_stack(R, np.concatenate([_T(B), _T(S)], axis=-1), "R_sel")
    RinvSt = RinvBSt[..., n:]
    Ahat = A_d - B @ RinvSt
    SRinvSt = S @ RinvSt
    Qhat = _sym(Q_d - SRinvSt)
    qhat_eigs, bad_eigs = _cellwise(np.linalg.eigvalsh, Qhat)
    failed = {**bad_eigs, **failed}
    low = qhat_eigs[:, 0]
    qscale = 1.0 + np.abs(qhat_eigs).max(axis=-1, initial=0.0)
    for j in np.flatnonzero(low < -1e-10 * qscale):
        # Q_d and S R^{-1} S' can cancel to a Qhat far below their own
        # size (long periods on unstable plants); a negative eigenvalue at
        # their roundoff level is a numerical failure, not a bad input
        cancelling = max(float(np.abs(Q_d[j]).max()), float(np.abs(SRinvSt[j]).max()))
        failed.setdefault(j, NumericalError(
            f"Q_d - S R^{{-1}} S' lost positive semidefiniteness to roundoff "
            f"(min eig {low[j]:.3e} against cost blocks of size {cancelling:.3e})"
        ) if low[j] >= -1e-10 * cancelling else ValueError(
            f"Q_d - S R^{{-1}} S' is not positive semidefinite (min eig {low[j]:.3e})"))
    kernel_dims = np.count_nonzero(np.abs(qhat_eigs) <= 1e-10 * qscale[:, None], axis=-1)
    with np.errstate(over="ignore"):
        qhat_norm = _fro(Qhat)
    for j in np.flatnonzero(~np.isfinite(qhat_norm)):
        failed.setdefault(j, NumericalError("overflow: the Frobenius norm of Q_d - S R^{-1} S' is not finite"))
    G = _sym(B @ RinvBSt[..., :n])
    return (Ahat, G, Qhat, DIVERGENCE_FACTOR * np.maximum(1.0, qhat_norm), kernel_dims), failed


def _solve_stack(groups) -> list[list[RiccatiSolution | ValueError | NumericalError]]:
    """Solve groups of (A_d, B_sel, Q_d, S_sel, R_sel) stacks of one state dimension.

    The problems are trusted: float arrays of agreeing shapes, R_sel
    positive definite. One list per group holds each problem's solution or
    the first error ``solve_dare`` raises for it. The doubling runs once on
    all groups together, the other stages once per group. A problem that
    fails stays in its stack, as zeros where its data means nothing, and
    its results are dropped.
    """
    if not groups:
        return []
    eliminated = [_eliminate_cross_term(*group) for group in groups]
    for (Ahat, G, Qhat, _, _), failed in eliminated:
        for j in failed:
            Ahat[j] = G[j] = Qhat[j] = 0.0
    # only a Qhat with a kernel needs the seed X0 to reach the stabilizing solution
    Ahat, G, Qhat, blow_up, kernel_dims = map(np.concatenate, zip(*(e[0] for e in eliminated)))
    P_all, iterations_all, failures = _doubling(Ahat, G, Qhat, blow_up, kernel_dims > 0)
    results, first = [], 0
    for (A_d, B, Q_d, S, R), ((*_, kernel_dims), failed) in zip(groups, eliminated):
        cells = slice(first, first + len(A_d))
        first += len(A_d)
        P, iterations = P_all[cells], iterations_all[cells]
        failed = {**{j: exc for j, exc in enumerate(failures[cells]) if exc is not None}, **failed}
        residual, more = _residuals(P, A_d, B, Q_d, S, R)
        overflow = {j: NumericalError("overflow: the Riccati residual of the doubling iterate is not finite")
                    for j in np.flatnonzero(~np.isfinite(residual))}
        failed = {**overflow, **more, **failed}
        for j in np.flatnonzero(~_converged(P, residual)):
            if j not in failed:
                try:
                    P[j], residual[j] = _policy_polish(P[j], residual[j], A_d[j], B[j], Q_d[j], S[j], R[j])
                except NumericalError as exc:
                    failed[j] = exc
        with np.errstate(over="ignore", invalid="ignore"):  # a failed problem's gain may overflow
            K, more = _gain(P, A_d, B, S, R)
            A_cl = A_d + B @ K
        failed = {**more, **failed}
        # a converged gain stabilizes; the closed loops of failed cells are left out
        stable = np.isfinite(A_cl).all(axis=(-2, -1))
        stable[list(failed)] = False
        stable[stable] = np.abs(np.linalg.eigvals(A_cl[stable])).max(axis=-1) < 1.0
        converged = _converged(P, residual) & stable
        results.append([failed.get(j) or RiccatiSolution(
            P=P[j], K=K[j], residual=float(residual[j]), iterations=int(iterations[j]),
            converged=bool(converged[j]), qhat_kernel_dim=int(kernel_dims[j])) for j in range(len(A_d))])
    return results


def solve_dare(A_d, B_sel, Q_d, S_sel, R_sel) -> RiccatiSolution:
    """Structure-preserving doubling (SDA) for the cross-term DARE.

    The one entry for hand-made matrices: ValueError unless the five are
    finite, non-empty 2-D arrays, A_d and Q_d n x n, B_sel and S_sel n x p,
    and R_sel p x p symmetric positive definite (checked first). Qhat =
    Q_d - S R^{-1} S' must be positive semidefinite (it is a Gram-matrix
    Schur complement for costs coming from ``cost_matrices``). A Qhat
    whose negative eigenvalue lies within 1e-10 of the size of Q_d and
    S R^{-1} S' lost definiteness to roundoff in their cancellation and
    raises NumericalError; a more negative one raises ValueError. A
    singular solve or a failed Cholesky factorization inside the doubling
    raises NumericalError, and so does an overflow: a Qhat whose norm or
    an iterate whose residual is not finite in double precision.

    Starting from (A_0, G_0, H_0) = (Ahat, B R^{-1} B', Qhat), each
    doubling forms, with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k
        G_{k+1} = G_k + A_k W^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k,

    the last as H_k + Y'Y with Y = L^{-1} H^{1/2} A_k and L the Cholesky
    factor of I + H^{1/2} G_k H^{1/2}, which is positive semidefinite by
    construction. The iterate P_k is exactly the value iterate after 2^k
    Riccati steps, and ``iterations`` counts doublings. Where Qhat is
    positive definite the cost sees every mode, the steps start from 0
    and P_k = H_k. Where Qhat has a numerical kernel (``qhat_kernel_dim``
    > 0) they start from X0 = 1e-12 I, so that the iterate can find an
    unstable mode the cost does not see, and
    P_k = H_k + A_k' X0 (I + G_k X0)^{-1} A_k. The loop stops when the
    Frobenius change of P_k falls below 1e-13 relative (with an absolute
    floor for P -> 0), or after 64 doublings, a horizon of 2^64 steps. An
    iterate growing past 1e12 times the scale of Qhat raises
    DareDivergenceError carrying that finite-horizon cost.

    The residual is evaluated on the original cross-term equation. Only an
    iterate whose residual exceeds 1e-9 relative to 1 + ||P||_F is polished
    by policy iteration, which keeps its result only where it lowers the
    residual. ``converged`` is true exactly when the residual passes that
    test and the gain stabilizes: rho(A_d + B_sel K) < 1.

    The checked problem runs through ``design_batch``'s stacked solve as a
    stack of one, so both give the same bits for the same problem.
    """
    ((result,),) = _solve_stack([[X[None].copy() for X in _check_problem(A_d, B_sel, Q_d, S_sel, R_sel)]])
    if isinstance(result, Exception):
        raise result
    return result


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


def design_batch(plant: ContinuousPlant, weights: CostWeights, periods,
                 modes) -> list[list[MriLqrDesign | ValueError | NumericalError]]:
    """The synthesis pipeline of one plant at each period in each mode, on
    stacks from sampler to solver: one stacked exponential samples the
    periods, one stacked Gram integral builds their costs, each mode
    selects its inputs once on the stacks, and one stacked solve takes
    every (mode, period) cell.

    One list per mode, with one entry per period: that cell's design, or
    the ValueError or NumericalError its solve raises. A bad period or
    mode, or a model or cost that overflows, raises for the whole grid.
    """
    Ts, A_d, Atilde, B_d, B_i = discretize._sample_stack(plant, periods)
    Q_d, S_d, R_d = discretize._cost_stack(plant, weights, periods)
    selected = [discretize._select_inputs(mode, B_d, B_i, S_d, R_d) for mode in modes]
    results = _solve_stack([(A_d, B, Q_d, S, R) for B, S, R in selected])
    sampled = [(SampledModel(T, A_d[i], Atilde[i], B_d[i], B_i[i]), SampledCost(Q_d[i], S_d[i], R_d[i]))
               for i, T in enumerate(Ts)]
    return [[sol if isinstance(sol, Exception) else MriLqrDesign(mode, *sampled[i], B[i], S[i], R[i], sol)
             for i, sol in enumerate(cells)] for mode, (B, S, R), cells in zip(modes, selected, results)]


def design(plant: ContinuousPlant, weights: CostWeights, T: float, mode: str = "mri") -> MriLqrDesign:
    """``design_batch`` at the single period T in one mode: sample, build the
    equivalent cost, restrict the input mode, solve; the cell's error is raised."""
    ((cell,),) = design_batch(plant, weights, [T], [mode])
    if isinstance(cell, Exception):
        raise cell
    return cell
