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

``_solve_grid`` is the synthesis pipeline, on period stacks from sampler
to solver; ``design`` is its one-cell call, and ``solve_dare`` solves
checked hand-made matrices as a stack of one. The doubling (each problem
with its own stop rule) runs once on all cells, the other stages once per
input width, the policy polish only on the iterates that need it; each
problem keeps its own failure status, whatever its stack.

With the mixed hold+impulse input selection the gain rows split as the
hold gain (first m rows) followed by the impulse gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from . import discretize, numkernel
from .numkernel import _T, _cellwise, _fro, _psd_factor, _sym
from .discretize import ContinuousPlant, CostWeights, SampledCost, SampledModel
from .errors import DareDivergenceError, NumericalError

__all__ = [
    "RiccatiSolution",
    "MriLqrDesign",
    "solve_dare",
    "design",
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


def _evaluate(P, A_d, B, Q_d, S, R):
    """The gain K, the residual ||P - (A_d'PA_d + Q_d + (A_d'PB + S) K)||_F and
    the closed loop A_d + B K of each cell of stacks, and each failed cell's
    NumericalError, from the one factorization of R + B'PB in ``_gain``:
    (A_d'PB + S)(R + B'PB)^{-1}(...)' is -(A_d'PB + S) K. Overflow is
    non-finite, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        K, failed = _gain(P, A_d, B, S, R)
        residual = _fro(P - (_T(A_d) @ P @ A_d + Q_d + (_T(A_d) @ P @ B + S) @ K))
        return K, residual, A_d + B @ K, failed


def _converged(P, residual) -> np.ndarray:
    """The residual test of each cell: at most 1e-9 relative to 1 + ||P||_F."""
    return residual <= RESIDUAL_RTOL * (1.0 + _fro(P))


def _policy_polish(P, K, residual: float, A_cl, A_d, B, Q_d, S, R):
    """Policy-iteration refinement of an iterate P that misses the residual
    test, given its gain K, residual and closed loop A_cl (``_evaluate``).

    The doubling stalled at a roundoff floor proportional to the magnitude
    of the cost blocks; re-evaluating the current gain through the exact
    Lyapunov sum P = sum_{i < 2^64} A_cl^i' F'F A_cl^i (``_squaring_sum``),
    F = J [I; K] with J'J the joint cost [[Q_d, S], [S', R]], removes that
    floor; every P it forms is positive semidefinite and evaluated once.
    Each round needs a stabilizing gain, so the polish stops (returning the
    best (P, K, residual, A_cl) so far) when the closed loop is not
    contractive or its Lyapunov sum overflows, or when the residual stops
    falling; quadratic convergence meets roundoff within a few rounds.
    """
    n = A_d.shape[0]
    J = _psd_factor(_sym(np.block([[Q_d, S], [S.T, R]])))
    while True:
        if numkernel.spectral_radius(A_cl) >= 1.0 - 1e-12:
            break
        Pn = numkernel._squaring_sum((J[:, :n] + J[:, n:] @ K)[None], (A_cl - np.eye(n))[None], [_MAX_DOUBLINGS])[0]
        if not np.all(np.isfinite(Pn)):
            break
        Kn, res, A_cl_n, failed = _evaluate(*(X[None] for X in (Pn, A_d, B, Q_d, S, R)))
        res = float(numkernel._single(res, failed))
        if not np.isfinite(res) or res >= residual:
            break
        P, K, residual, A_cl = Pn, Kn[0], res, A_cl_n[0]
    return P, K, residual, A_cl


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


def _upper_cholesky(H) -> np.ndarray:
    return np.linalg.cholesky(H, upper=True)


def _cost_factor(H, kernel, I) -> np.ndarray:
    """F with F'F = H_k for each cell of a stack, I the identity: the clipped
    eigh factor (``_psd_factor``) where ``kernel`` (Qhat has a numerical
    kernel) or the Cholesky factorization fails to roundoff, and the upper
    Cholesky factor elsewhere (Qhat, and so every H_k, positive definite).
    Each cell has the bits of a stack of one.
    """
    if kernel.all():
        return _psd_factor(H)
    # the kernel cells' Cholesky factors are computed on I and discarded
    F, failed = _cellwise(_upper_cholesky, np.where(kernel[:, None, None], I, H) if kernel.any() else H)
    kernel = kernel.copy()  # the caller's mask stays as it is
    kernel[list(failed)] = True
    if kernel.any():
        F[kernel] = _psd_factor(H[kernel])
    return F


def _doubling_step(A, G, H, I, kernel):
    """(A_k, G_k, H_k) -> (A_{k+1}, G_{k+1}, H_{k+1}) on stacks; see ``solve_dare``.

    I is the n x n identity, and H^{1/2} the factor ``_cost_factor`` takes
    by ``kernel``, the cells whose Qhat has a numerical kernel. Also
    returns the NumericalError of each cell whose solve or Cholesky
    factorization of I + H^{1/2} G H^{1/2}' failed, by its index in the
    stack. H stays symmetric to the bit: Qhat is symmetrized, and numpy
    forms Y'Y symmetric.
    """
    n = A.shape[-1]
    H_half = _cost_factor(H, kernel, I)
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


def _iterate(A, G, H, kernel, I):
    """The iterate P_k of each cell of stacks, I the identity, and the
    NumericalError of each failed seed solve, by index: where ``kernel`` the
    value iterate H + A' X0 (I + G X0)^{-1} A, 2^k Riccati steps from
    X0 = 1e-12 I after k doublings; elsewhere H_k, the value iterate from 0."""
    if not kernel.any():
        return H, {}
    cells = np.flatnonzero(kernel)
    A = A[cells]
    X, singular = _cellwise(np.linalg.solve, I + _X0 * G[cells], A)
    P = H.copy()
    P[cells] = _sym(H[cells] + _X0 * _T(A) @ X)
    return P, {int(cells[j]): _singular(exc) for j, exc in singular.items()}


def _doubling(A, G, H, kernel):
    """The doubling on stacks (k, n, n) of (Ahat, G, Qhat), until every cell stops.

    ``kernel`` marks the cells whose Qhat has a numerical kernel: their
    iterate starts from X0 = 1e-12 I and their H_k takes the eigh factor
    (see ``_cost_factor``); the others start from 0 and factor H_k by
    Cholesky. Returns each cell's iterate, its number of doublings and its
    failure: None, a NumericalError, or a DareDivergenceError once the
    iterate passes 1e12 max(1, ||Qhat||_F). A cell leaves the stack when it
    meets the step rule, passes its bound or fails, so its result and
    doubling count are those of a stack of one.
    """
    k = len(A)
    I = np.eye(A.shape[-1])
    P_out = np.zeros_like(H)
    iterations = np.zeros(k, dtype=int)
    failures: list[NumericalError | None] = [None] * k
    live = np.arange(k)
    # a cell that overflows shows as a non-finite norm, which the divergence
    # test reads, and a failed cell runs on with placeholder values until it
    # is dropped, so numpy's overflow warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        bound = blow_up = DIVERGENCE_FACTOR * np.maximum(1.0, _fro(H))
        P, failed = _iterate(A, G, H, kernel, I)
        stop = np.zeros(k, dtype=bool)
        for it in range(1, _MAX_DOUBLINGS + 2):
            # drop the cells that failed or stopped in the last doubling
            for j, exc in failed.items():
                failures[live[j]] = exc
                stop[j] = True
            if stop.any():
                keep = ~stop
                live, A, G, H, P = live[keep], A[keep], G[keep], H[keep], P[keep]
                bound, kernel = bound[keep], kernel[keep]
            if not live.size or it > _MAX_DOUBLINGS:
                break
            A, G, H, failed = _doubling_step(A, G, H, I, kernel)
            Pn, seed_failed = _iterate(A, G, H, kernel, I)
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
                        f"Riccati doubling diverged: the 2^{it}-step cost passed {DIVERGENCE_FACTOR:g} "
                        f"max(1, ||Qhat||_F) = {blow_up[cell]:.1e} (the pair is not stabilizable, the "
                        "period is pathological, or a stabilizing P lies beyond that bound)",
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
    # scaled to unit diagonal, so that a large R cannot hide an indefinite Q_d
    M = _sym(np.block([[Q, S], [S.T, R]]))
    d = np.sqrt(np.abs(np.diag(M)))
    d[d == 0.0] = 1.0
    w = np.linalg.eigvalsh(M / d[:, None] / d)
    if w[0] < -1e-10 * (1.0 + np.abs(w).max()):
        raise ValueError("the joint cost [[Q_d, S], [S', R]] is not positive semidefinite "
                         f"(min eig {w[0]:.3e} of it scaled to unit diagonal)")
    return [A, B, Q, S, R]


def _eliminate_cross_term(A_d, B, Q_d, S, R):
    """(Ahat, G, Qhat, Qhat kernel dimension) of each cell of trusted stacks,
    and the NumericalError of each cell that fails, by index.

    A trusted joint cost [[Q_d, S], [S', R]] is positive semidefinite, and
    so is its Schur complement Qhat. A computed Qhat with an eigenvalue
    below -1e-10 (1 + its largest magnitude) lost definiteness to roundoff
    where Q_d and S R^{-1} S' cancel (long periods on unstable plants);
    that cell fails, and so does one whose eigenvalue solve fails or whose
    Qhat norm overflows (see ``solve_dare``). A failed cell's Ahat, G and
    Qhat are zeros, and the kernel of that Qhat is the whole space.
    """
    n = A_d.shape[-1]
    RinvBSt, failed = numkernel.solve_pd_stack(R, np.concatenate([_T(B), _T(S)], axis=-1), "R_sel")
    RinvSt = RinvBSt[..., n:]
    Ahat = A_d - B @ RinvSt
    Qhat = _sym(Q_d - S @ RinvSt)
    qhat_eigs, bad_eigs = _cellwise(np.linalg.eigvalsh, Qhat)
    for j, exc in bad_eigs.items():
        failed.setdefault(j, NumericalError(f"the eigenvalues of Q_d - S R^{{-1}} S' failed: {exc}"))
    low = qhat_eigs[:, 0]
    qscale = 1.0 + np.abs(qhat_eigs).max(axis=-1, initial=0.0)
    for j in np.flatnonzero(low < -1e-10 * qscale):
        failed.setdefault(j, NumericalError(
            f"Q_d - S R^{{-1}} S' lost positive semidefiniteness to roundoff (min eig {low[j]:.3e})"))
    kernel_dims = np.count_nonzero(np.abs(qhat_eigs) <= 1e-10 * qscale[:, None], axis=-1)
    with np.errstate(over="ignore"):
        qhat_norm = _fro(Qhat)
    for j in np.flatnonzero(~np.isfinite(qhat_norm)):
        failed.setdefault(j, NumericalError("overflow: the Frobenius norm of Q_d - S R^{-1} S' is not finite"))
    G = _sym(B @ RinvBSt[..., :n])
    Ahat[list(failed)] = G[list(failed)] = Qhat[list(failed)] = 0.0
    kernel_dims[list(failed)] = n
    return (Ahat, G, Qhat, kernel_dims), failed


def _cell(stacks, j: int) -> RiccatiSolution | NumericalError:
    """Cell j of a group's ``_solve_stack`` stacks: its error, or its solution."""
    P, K, res, its, ok, dims, errors = stacks
    return errors.get(j) or RiccatiSolution(P[j], K[j], float(res[j]), int(its[j]), bool(ok[j]), int(dims[j]))


def _solve_stack(groups) -> list[tuple]:
    """Solve groups of (A_d, B_sel, Q_d, S_sel, R_sel) stacks of one state dimension.

    The problems are trusted: float arrays of agreeing shapes, R_sel
    positive definite and the joint cost positive semidefinite. The doubling
    runs once on all groups together, the other stages once per group (one
    per input width). Each group gives the stacks (P, K, residual,
    doublings, converged, Qhat kernel dimension) and the first
    NumericalError ``solve_dare`` raises for each failed problem, by index;
    a failed problem is unconverged, and a diverged one keeps its last iterate.
    """
    if not groups:
        return []
    eliminated = [_eliminate_cross_term(*group) for group in groups]
    Ahat, G, Qhat, kernel_dims = map(np.concatenate, zip(*(e[0] for e in eliminated)))
    # only a Qhat with a kernel needs the seed X0 to reach the stabilizing solution
    P_all, iterations_all, failures = _doubling(Ahat, G, Qhat, kernel_dims > 0)
    results, first = [], 0
    for (A_d, B, Q_d, S, R), ((*_, kernel_dims), failed) in zip(groups, eliminated):
        cells = slice(first, first + len(A_d))
        first += len(A_d)
        P, iterations = P_all[cells], iterations_all[cells]
        failed = {**{j: exc for j, exc in enumerate(failures[cells]) if exc is not None}, **failed}
        K, residual, A_cl, more = _evaluate(P, A_d, B, Q_d, S, R)
        overflow = {j: NumericalError("overflow: the Riccati residual of the doubling iterate is not finite")
                    for j in np.flatnonzero(~np.isfinite(residual))}
        failed = {**overflow, **more, **failed}
        for j in np.flatnonzero(~_converged(P, residual)):
            if j not in failed:
                try:
                    P[j], K[j], residual[j], A_cl[j] = _policy_polish(
                        P[j], K[j], residual[j], A_cl[j], A_d[j], B[j], Q_d[j], S[j], R[j])
                except NumericalError as exc:
                    failed[j] = exc
        # a converged gain stabilizes; the closed loops of failed cells are left out
        stable = np.isfinite(A_cl).all(axis=(-2, -1))
        stable[list(failed)] = False
        stable[stable] = numkernel.spectral_radius(A_cl[stable]) < 1.0
        results.append((P, K, residual, iterations, _converged(P, residual) & stable, kernel_dims, failed))
    return results


def solve_dare(A_d, B_sel, Q_d, S_sel, R_sel) -> RiccatiSolution:
    """Structure-preserving doubling (SDA) for the cross-term DARE.

    The one entry for hand-made matrices: ValueError unless the five are
    finite, non-empty 2-D arrays, A_d and Q_d n x n, B_sel and S_sel n x p,
    and R_sel p x p symmetric positive definite (checked first), and unless
    the joint cost M = [[Q_d, S_sel], [S_sel', R_sel]] is positive
    semidefinite, as a cost from ``cost_matrices`` is (a Gram matrix):
    scaled to unit diagonal, D^{-1} M D^{-1} with D = sqrt|diag M| (1
    where the diagonal is 0), its smallest eigenvalue at least -1e-10 (1 +
    its largest magnitude), so a negative diagonal entry is indefinite. Past
    this check every failure is a NumericalError: a computed Qhat =
    Q_d - S R^{-1} S' that lost definiteness to roundoff in the
    cancellation of its terms (an eigenvalue below -1e-10 (1 + its
    largest magnitude)) or whose eigenvalue solve fails, a singular solve
    or a failed Cholesky factorization inside the doubling, and an
    overflow: a Qhat whose norm or an iterate whose residual is not
    finite in double precision.

    Starting from (A_0, G_0, H_0) = (Ahat, B R^{-1} B', Qhat), each
    doubling forms, with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k
        G_{k+1} = G_k + A_k W^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k,

    the last as H_k + Y'Y with Y = L^{-1} H^{1/2} A_k and L the Cholesky
    factor of I + H^{1/2} G_k H^{1/2}', which is positive semidefinite by
    construction. H^{1/2} is the upper Cholesky factor of H_k where Qhat
    is positive definite (then every H_k is), and the eigh factor with
    negative eigenvalues clipped to zero where Qhat has a numerical
    kernel or that Cholesky fails to roundoff. The iterate P_k is exactly
    the value iterate after 2^k Riccati steps, and ``iterations`` counts
    doublings. Where Qhat is positive definite the cost sees every mode,
    the steps start from 0 and P_k = H_k. Where Qhat has a numerical
    kernel (``qhat_kernel_dim`` > 0) they start from X0 = 1e-12 I, so that
    the iterate can find an unstable mode the cost does not see, and
    P_k = H_k + A_k' X0 (I + G_k X0)^{-1} A_k. The loop stops when the
    Frobenius change of P_k falls below 1e-13 relative (with an absolute
    floor for P -> 0), or after 64 doublings, a horizon of 2^64 steps. An
    iterate growing past 1e12 max(1, ||Qhat||_F) raises
    DareDivergenceError carrying that finite-horizon cost.

    The residual on the original cross-term equation, the gain and the
    closed loop come from one factorization of R + B'PB per iterate
    (``_evaluate``). An iterate whose residual exceeds 1e-9 relative to
    1 + ||P||_F is polished by policy iteration while that lowers the
    residual, with no round cap. ``converged`` is true exactly when the
    residual passes that test and the gain stabilizes: rho(A_d + B_sel K) < 1.

    The checked problem runs through the stacked solve of ``_solve_grid`` as
    a stack of one, so both give the same bits for the same problem.
    """
    result = _cell(_solve_stack([[X[None].copy() for X in _check_problem(A_d, B_sel, Q_d, S_sel, R_sel)]])[0], 0)
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


def _solve_grid(plant: ContinuousPlant, weights: CostWeights, periods, modes):
    """The synthesis pipeline of one plant at each period in each mode, on
    stacks from sampler to solver: one stacked exponential samples the
    periods, one stacked Gram integral builds their costs, each mode selects
    its inputs once, and one stacked solve takes every (mode, period) cell.
    Returns the stacks (periods, A_d, Atilde, B_d, B_i, Q_d, S_d, R_d) and,
    per input width, the indices in ``modes`` of its modes, its problem and
    ``_solve_stack`` stacks, where its k-th mode has the cells from k * len(periods)."""
    Ts, A_d, Atilde, B_d, B_i = discretize._sample_stack(plant, periods)
    Q_d, S_d, R_d = discretize._cost_stack(plant, weights, periods)
    problems = [(A_d, B, Q_d, S, R) for B, S, R in (discretize._select_inputs(m, B_d, B_i, S_d, R_d) for m in modes)]
    sizes = [B.shape[-1] for _, B, *_ in problems]
    widths = [[q for q, size in enumerate(sizes) if size == width] for width in dict.fromkeys(sizes)]
    groups = [[np.concatenate(X) if len(qs) > 1 else X[0] for X in zip(*(problems[q] for q in qs))] for qs in widths]
    return (Ts, A_d, Atilde, B_d, B_i, Q_d, S_d, R_d), list(zip(widths, groups, _solve_stack(groups)))


def design(plant: ContinuousPlant, weights: CostWeights, T: float, mode: str = "mri") -> MriLqrDesign:
    """The pipeline of ``_solve_grid`` at the single period T in one mode: sample,
    build the equivalent cost, restrict the input mode, solve; the cell's error is raised."""
    (Ts, A_d, Atilde, B_d, B_i, Q_d, S_d, R_d), ((_, (_, B, _, S, R), stacks),) = _solve_grid(
        plant, weights, [T], [mode])
    solution = _cell(stacks, 0)
    if isinstance(solution, Exception):
        raise solution
    return MriLqrDesign(mode, SampledModel(Ts[0], A_d[0], Atilde[0], B_d[0], B_i[0]),
                        SampledCost(Q_d[0], S_d[0], R_d[0]), B[0], S[0], R[0], solution)
