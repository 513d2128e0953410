"""Shared plants, weights and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings
from scipy.integrate import quad_vec

from mrilqr import ContinuousPlant, CostWeights, SimulationDivergence, cost_matrices, numkernel
from mrilqr.discretize import MODES, constant_input_gram, input_channels
from mrilqr.simulate import Trajectory, _interval_segments

try:
    import mpmath
except ImportError:  # the extended-precision oracle skips without it
    mpmath = None

# every property test draws the same examples on every run; each sets only its max_examples
settings.register_profile("mrilqr", derandomize=True, database=None, deadline=None)
settings.load_profile("mrilqr")


@pytest.fixture
def souza_plant() -> ContinuousPlant:
    """Two-state oscillator whose hold-only discretization degrades at
    periods that are multiples of 2*pi/sqrt(23)."""
    return ContinuousPlant(
        A=[[0.0, 1.0], [-6.0, 1.0]],
        B=[[0.0], [1.0]],
        Btilde=[[1.0], [1.0]],
    )


@pytest.fixture
def souza_weights() -> CostWeights:
    return CostWeights(Q=[[1.0, 0.0], [0.0, 0.0]], Rc=[[1.0]], Ri=[[1.0]])


@pytest.fixture
def rotation_plant() -> ContinuousPlant:
    """Pure rotation: both channels lose controllability at T = 2*pi."""
    return ContinuousPlant(
        A=[[0.0, -1.0], [1.0, 0.0]],
        B=[[0.0], [1.0]],
        Btilde=[[1.0], [0.0]],
    )


@pytest.fixture
def near_resonant_plant() -> ContinuousPlant:
    """Eigenvalues 5e-8 +- i, +-2i and -100. The real parts of 5e-8 + i and
    -2i agree within 1e-8 of the spectrum's scale 1 + 100, not within
    1e-8 (1 + |mu|); the pair collides at the multiples of 2 pi / 3."""
    A = scipy.linalg.block_diag([[5e-8, -1.0], [1.0, 5e-8]], [[0.0, -2.0], [2.0, 0.0]], [[-100.0]])
    return ContinuousPlant(A, [[1.0], [2.0], [1.0], [3.0], [1.0]])


@pytest.fixture
def insulin_plant() -> ContinuousPlant:
    return ContinuousPlant(
        A=np.diag([-0.0167, -0.01, -0.0083, -0.0143, -0.0091, -0.008]),
        B=[[15.0], [-75.0], [60.0], [0.0], [0.0], [0.0]],
        Btilde=[[0.0], [0.0], [0.0], [1.5909], [-9.1667], [7.5758]],
    )


INSULIN_CTILDE = np.array([[-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]])


@pytest.fixture
def insulin_weights() -> CostWeights:
    return CostWeights(Q=INSULIN_CTILDE.T @ INSULIN_CTILDE, Rc=[[1.0]], Ri=[[1.0]])


def random_stable_plant(rng: np.random.Generator, n: int, m: int, margin: float = 0.3) -> ContinuousPlant:
    """Random plant with spectral abscissa pushed below -margin."""
    A = rng.normal(size=(n, n))
    shift = max(np.real(np.linalg.eigvals(A)).max(), 0.0) + margin
    A = A - shift * np.eye(n)
    B = rng.normal(size=(n, m))
    return ContinuousPlant(A, B, rng.normal(size=(n, 1)))


def random_controllable_plant(
    rng: np.random.Generator, n: int, m: int = 1, scale: float = 0.6
) -> ContinuousPlant:
    """Rejection-sample a controllable (A, B); generic draws almost always are.

    A is normalized to spectral norm ``scale`` so that e^{AT} stays well
    within double precision over the sampling periods the tests sweep;
    otherwise the Kalman rank oracle itself becomes untrustworthy.
    """
    from mrilqr import kalman_controllable

    for _ in range(100):
        A = rng.normal(size=(n, n))
        A *= scale / max(np.linalg.norm(A, 2), 1e-12)
        B = rng.normal(size=(n, m))
        if kalman_controllable(A, B):
            return ContinuousPlant(A, B, rng.normal(size=(n, 1)))
    raise AssertionError("failed to sample a controllable pair")


def kalman_relative(A, B) -> bool:
    """Kalman rank oracle under the relative rule: the transposed matrix
    [B, AB, ..., A^{n-1}B]' has n singular values above 1e-9 times its largest."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks).T, compute_uv=False)
    return int(np.count_nonzero(s > 1e-9 * s[0])) == A.shape[0]


def wide_scale_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random pair with n in [1, 13] and m in [1, 3] whose A and B each carry a
    scale 10^[-6, 6]. A third of the A are integer-valued (entries in [-3, 3]),
    and each row of B is zero with probability 0.2."""
    n, m = int(rng.integers(1, 14)), int(rng.integers(1, 4))
    if rng.random() < 1.0 / 3.0:
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6.0, 6.0)
    B = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-6.0, 6.0)
    B[rng.random(n) < 0.2] = 0.0
    return A, B


def planted_uncontrollable_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An uncontrollable pair with n in [2, 24], m in [1, 3] and 1-4 hidden states.

    In the planted basis A = [[A11, A12], [0, A22]] and B = [B1; 0], so the
    last h states are never reached. A11 and A22 are scaled to spectral
    norm 0.6, A12 and B1 are standard normal. Half the pairs carry a Jordan
    block: A22 is then lambda I + N with N the ones of the superdiagonal,
    a defective eigenvalue that PBH at computed eigenvalues can miss. A
    random orthogonal basis hides the structure.
    """
    n, m = int(rng.integers(2, 25)), int(rng.integers(1, 4))
    h = int(rng.integers(1, min(4, n - 1) + 1))
    k = n - h
    A11 = rng.normal(size=(k, k))
    A22 = rng.normal() * np.eye(h) + np.eye(h, k=1) if rng.random() < 0.5 else rng.normal(size=(h, h))
    A = np.zeros((n, n))
    A[:k, :k] = 0.6 * A11 / np.linalg.norm(A11, 2)
    A[:k, k:] = rng.normal(size=(k, h))
    A[k:, k:] = 0.6 * A22 / np.linalg.norm(A22, 2)
    B = np.zeros((n, m))
    B[:k] = rng.normal(size=(k, m))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return V @ A @ V.T, V @ B


def quadrature_cost_matrices(plant: ContinuousPlant, weights: CostWeights, T: float):
    """Adaptive-quadrature oracle for the discrete-equivalent cost blocks.

    Independent of the block-exponential route: the hold response uses
    the closed form A^{-1}(e^{As} - I)B, so A must be invertible.
    """
    A, B, Q = plant.A, plant.B, weights.Q
    n = A.shape[0]
    Ainv = np.linalg.inv(A)

    def eAs(s):
        return scipy.linalg.expm(A * s)

    def Bdi(s):
        E = eAs(s)
        return np.hstack([Ainv @ (E - np.eye(n)) @ B, E @ B])

    kw = dict(epsabs=1e-13, epsrel=1e-13)
    Q_d, _ = quad_vec(lambda s: eAs(s).T @ Q @ eAs(s), 0, T, **kw)
    S_d, _ = quad_vec(lambda s: eAs(s).T @ Q @ Bdi(s), 0, T, **kw)
    R_g, _ = quad_vec(lambda s: Bdi(s).T @ Q @ Bdi(s), 0, T, **kw)
    m = B.shape[1]
    R_d = R_g.copy()
    R_d[:m, :m] += T * weights.Rc
    R_d[m:, m:] += weights.Ri
    return Q_d, S_d, R_d


def closed_loop_cost_matrix(A_d, B_sel, Q_d, S_sel, R_sel, K):
    """Exact infinite-horizon cost matrix of the feedback u = K x.

    Solves the closed-loop Lyapunov equation directly, independent of
    any Riccati machinery.
    """
    A_cl = A_d + B_sel @ K
    L = Q_d + S_sel @ K + K.T @ S_sel.T + K.T @ R_sel @ K
    return scipy.linalg.solve_discrete_lyapunov(A_cl.T, 0.5 * (L + L.T))


def relerr(got, expected) -> float:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    denom = max(np.linalg.norm(expected.ravel()), 1e-300)
    return float(np.linalg.norm((got - expected).ravel()) / denom)


def kalman_sigma_min(A, B, T, mode):
    """sigma_min / sigma_max of the sampled Kalman matrix, from scipy alone.

    One exponential of [[A, B], [0, 0]] T gives e^{AT} and the hold map
    int_0^T e^{As} ds B; the impulse map is e^{AT} B.
    """
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n], M[:n, n:] = A, B
    E = scipy.linalg.expm(M * T)
    A_d, B_d = E[:n, :n], E[:n, n:]
    cols = {"regular": B_d, "impulsive": A_d @ B, "mri": np.hstack([B_d, A_d @ B])}[mode]
    blocks = [cols]
    for _ in range(n - 1):
        blocks.append(A_d @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return s[n - 1] / s[0]


def kalman_zeros(A, B, mode, T_max, h=0.01):
    """Periods in (0, T_max] where the sampled Kalman matrix loses rank.

    Scans a grid of step h, then bisects each local minimum of
    sigma_min on the sign of its slope; a refined minimum below 1e-8
    is a zero (the other minima of souza and rotation sit above 3e-2).
    """
    grid = np.arange(h, T_max + h / 2, h)
    f = [kalman_sigma_min(A, B, T, mode) for T in grid]
    zeros = []
    for i in range(1, len(grid) - 1):
        if not (f[i] <= f[i - 1] and f[i] <= f[i + 1]):
            continue
        lo, hi = grid[i - 1], grid[i + 1]
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if kalman_sigma_min(A, B, mid + 1e-12, mode) > kalman_sigma_min(A, B, mid - 1e-12, mode):
                hi = mid
            else:
                lo = mid
        T = 0.5 * (lo + hi)
        if kalman_sigma_min(A, B, T, mode) < 1e-8:
            zeros.append(T)
    return zeros


def reference_run(plant, weights, T, inputs_fn, x0, steps, substeps, epsilon, disturbance) -> Trajectory:
    """The per-step simulation loop the stacked ``simulate._run`` must match bit
    for bit, for valid arguments: per step, the discrete-equivalent cost from
    ``cost_matrices``, the impulse penalty, one product for the S dense states,
    one stacked quadratic form for the S Gram increments, and a cumsum seeded
    with J_cont for the running cost; dense rows are kept in per-step blocks."""
    alpha = None if epsilon is None else epsilon * T
    n, m = plant.n, plant.m
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    t_ends, lengths, hold = _interval_segments(T, substeps, alpha)
    S = lengths.size
    distinct = sorted(set(lengths.tolist()))
    A_dd, Atilde = numkernel.expm_block_integrals(plant.A, distinct)
    B_dd = Atilde @ plant.B
    H = constant_input_gram(plant, weights.Q, distinct)[[distinct.index(d) for d in lengths.tolist()]]
    Phi = np.empty((S, n, n + 2 * m))
    prev = np.eye(n, n + 2 * m)
    for j, (d, within_hold) in enumerate(zip(lengths.tolist(), hold.tolist())):
        i = distinct.index(d)
        Phi[j] = A_dd[i] @ prev
        Phi[j][:, slice(n + m, n + 2 * m) if within_hold else slice(n, n + m)] += B_dd[i]
        prev = Phi[j]
    Phi_flat = Phi.reshape(S * n, n + 2 * m)
    sc = cost_matrices(plant, weights, T)

    blocks = [(np.zeros(1), x[None].copy(), np.zeros(1, dtype=int), np.zeros(1))]
    sample_states, ucs, uis = [], [], []
    xi = np.zeros(n + 2 * m)
    Z = np.empty((S, n + m))
    running = np.empty(S + 1)
    J_cont = J_disc = 0.0

    def jump_row(t, state, cost):
        blocks.append((np.array([t]), state[None], np.ones(1, dtype=int), np.array([cost])))

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            t_k = k * T
            if disturbance is not None and k == disturbance.impulse_step:
                x = x + disturbance.direction
                jump_row(t_k, x, J_cont)
            sample_states.append(x)
            if k == steps:
                break
            u_c, u_i = (np.asarray(u, dtype=float).reshape(-1) for u in inputs_fn(k, x))
            ucs.append(u_c)
            uis.append(u_i)
            v = np.concatenate([u_c, u_i])
            J_disc += float(x @ sc.Q_d @ x + 2.0 * x @ sc.S_d @ v + v @ sc.R_d @ v)
            J_cont += float(u_i @ weights.Ri @ u_i)
            if alpha is None:
                y = x + plant.B @ u_i
                if np.any(u_i != 0.0):
                    jump_row(t_k, y, J_cont)
            else:
                y = x
            xi[:n] = y
            xi[n : n + m] = u_c + 0.0
            if alpha is not None:
                xi[n + m :] = u_c + u_i / alpha
            X = (Phi_flat @ xi).reshape(S, n)
            Z[0, :n] = y
            Z[1:, :n] = X[:-1]
            Z[:, n:] = np.where(hold[:, None], xi[n + m :], xi[n : n + m])
            running[0] = J_cont
            running[1:] = (Z[:, None, :] @ H @ Z[:, :, None])[:, 0, 0] + lengths * float(u_c @ weights.Rc @ u_c)
            np.cumsum(running, out=running)
            J_cont = float(running[-1])
            blocks.append((t_k + t_ends, X, np.zeros(S, dtype=int), running[1:].copy()))
            x = X[-1]
            if not np.all(np.isfinite(x)):
                raise SimulationDivergence(f"state diverged at step {k}", step=k)

    times, states, flags, costs = (np.concatenate(part) for part in zip(*blocks))
    return Trajectory(np.array(sample_states), np.array(ucs), np.array(uis), times, states, flags, costs,
                      J_cont, J_disc)


def mp_reference(plant: ContinuousPlant, weights: CostWeights, T: float, digits: int = 60) -> dict:
    """Extended-precision oracle of the sampled model and cost at period T.

    The package's block exponentials, evaluated by mpmath at ``digits``
    significant digits on the exact binary values of A, B, Q, Rc, Ri and T:
    e^{[[A, I], [0, 0]] T} gives A_d and Atilde (B_d = Atilde B, B_i = A_d B),
    and Van Loan's e^{[[-E', diag(Q, 0)], [0, E]] T} = [[F1, G2], [0, F3]],
    E = [[A, B], [0, 0]], gives the constant-input Gram integral H = F3' G2,
    whose image L'HL under the selectors of ``discretize._gram_costs`` plus
    diag(T Rc, Ri) is [[Q_d, S_d], [S_d', R_d]]. Returns those seven and the
    Qhat = Q_d - S R^{-1} S' of each mode (keyed "Qhat regular", ...), as
    float arrays. Skips the test when mpmath is not installed.
    """
    if mpmath is None:
        pytest.skip("the extended-precision oracle needs mpmath (the 'test' extra)")
    mp = mpmath.mp
    n, m = plant.n, plant.m
    with mp.workdps(digits):
        A, B, Q = (mp.matrix(X.tolist()) for X in (plant.A, plant.B, weights.Q))
        t = mp.mpf(float(T))
        M = mp.zeros(2 * n)
        M[:n, :n], M[:n, n:] = A, mp.eye(n)
        X = mp.expm(M * t)
        A_d, Atilde = X[:n, :n], X[:n, n:]
        E = mp.zeros(n + m)
        E[:n, :n], E[:n, n:] = A, B
        Z = mp.zeros(2 * (n + m))
        Z[: n + m, : n + m], Z[n + m :, n + m :] = -E.T, E
        Z[:n, n + m : 2 * n + m] = Q
        V = mp.expm(Z * t)
        H = V[n + m :, n + m :].T * V[: n + m, n + m :]
        L = mp.zeros(n + m, n + 2 * m)
        L[:n, :n], L[n:, n : n + m], L[:n, n + m :] = mp.eye(n), mp.eye(m), B
        G = L.T * H * L
        for i in range(m):
            for j in range(m):
                G[n + i, n + j] += t * weights.Rc[i, j]
                G[n + m + i, n + m + j] += weights.Ri[i, j]
        Q_d, S_d, R_d = G[:n, :n], G[:n, n:], G[n:, n:]
        ref = {"A_d": A_d, "Atilde": Atilde, "B_d": Atilde * B, "B_i": A_d * B, "Q_d": Q_d, "S_d": S_d, "R_d": R_d}
        for mode in MODES:
            ch = input_channels(mode, m)
            S, R = S_d[:, ch], R_d[ch, ch]
            ref[f"Qhat {mode}"] = Q_d - S * mp.inverse(R) * S.T
        return {name: np.array(value.tolist(), dtype=float) for name, value in ref.items()}
