"""Property tests: what ``converged=True`` promises, on random plants."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrilqr import ContinuousPlant, CostWeights, NumericalError, design, discretize, riccati
from mrilqr.discretize import MODES
from mrilqr.numkernel import spectral_radius

from conftest import relerr


def assert_converged_claim(d):
    """converged=True: stabilizing gain and relative DARE residual <= 1e-8."""
    sol = d.solution
    norm_P = float(np.linalg.norm(sol.P, "fro"))
    assert spectral_radius(d.model.A_d + d.B_sel @ sol.K) < 1.0
    assert sol.residual <= 1e-8 * (1.0 + norm_P)
    return norm_P


@st.composite
def lqr_problems(draw):
    """Random plant, weights, period and mode; ||A||_2 up to 1.5 makes some
    plants unstable over the longer periods, and C has 1..n rows so Qhat is
    often singular."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([1, 2, 3]))
    a_norm = draw(st.floats(0.05, 1.5))
    T = draw(st.floats(0.2, 3.0))
    mode = draw(st.sampled_from(["regular", "impulsive", "mri"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n))
    A *= a_norm / max(np.linalg.norm(A, 2), 1e-12)
    C = rng.normal(size=(int(rng.integers(1, n + 1)), n))
    weights = CostWeights(C.T @ C, np.diag(10.0 ** rng.uniform(-1, 1, m)),
                          np.diag(10.0 ** rng.uniform(-1, 1, m)))
    return ContinuousPlant(A, rng.normal(size=(n, m))), weights, T, mode


@settings(max_examples=80)
@given(lqr_problems())
def test_converged_solution_is_stabilizing_and_matches_schur(problem):
    plant, weights, T, mode = problem
    try:
        d = design(plant, weights, T, mode)
    except NumericalError:
        assume(False)
    assume(d.solution.converged)
    norm_P = assert_converged_claim(d)
    if norm_P <= 1e6:
        P_ref = scipy.linalg.solve_discrete_are(
            d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
        assert relerr(d.solution.P, P_ref) < 1e-8


@st.composite
def hidden_mode_problems(draw):
    """Random plant whose cost misses k of its n modes, 1 <= k < n, with
    weights, period and mode. A = V diag(A_1, A_2) V' for an orthogonal V
    and C = [0, C_2] V', so C e^{As} v = 0 for every mode v of the k x k
    block A_1: Q_d, S_d and Qhat miss it too. Each block's spectrum is
    shifted by up to 0.5 either way, so hidden modes are often unstable."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    m = draw(st.sampled_from([1, 2]))
    T = draw(st.floats(0.2, 3.0))
    mode = draw(st.sampled_from(MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for size in (k, n - k):
        M = rng.normal(size=(size, size))
        blocks.append(M * rng.uniform(0.05, 1.0) / np.linalg.norm(M, 2) + rng.uniform(-0.5, 0.5) * np.eye(size))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = V @ scipy.linalg.block_diag(*blocks) @ V.T
    C = np.hstack([np.zeros((n - k, k)), rng.normal(size=(n - k, n - k))]) @ V.T
    weights = CostWeights(C.T @ C, np.diag(10.0 ** rng.uniform(-1, 1, m)),
                          np.diag(10.0 ** rng.uniform(-1, 1, m)))
    return ContinuousPlant(A, rng.normal(size=(n, m))), weights, T, mode


def forward_error_bound(d) -> float:
    """First-order bound on ||P - P_stab||_F from the residual: the Riccati
    defect maps to the error through the inverse of the closed-loop Stein
    operator X -> X - A_cl' X A_cl."""
    A_cl = d.model.A_d + d.B_sel @ d.solution.K
    n = len(A_cl)
    stein = np.eye(n * n) - np.kron(A_cl.T, A_cl.T)
    return float(np.linalg.norm(np.linalg.inv(stein), 2)) * d.solution.residual


@settings(max_examples=80)
@given(hidden_mode_problems())
def test_converged_with_hidden_modes_is_the_stabilizing_solution(problem):
    # a cost that misses a mode admits solutions of the equation that do
    # not stabilize; converged=True must name the stabilizing one, to 1e-8
    # relative beyond what the residual test leaves open (an iterate at
    # residual 1.1e-9 next to a closed-loop mode at 0.969 is 1.1e-8 off)
    plant, weights, T, mode = problem
    try:
        d = design(plant, weights, T, mode)
    except NumericalError:
        assume(False)
    assume(d.solution.converged)
    assert_converged_claim(d)
    P_ref = scipy.linalg.solve_discrete_are(d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
    error = float(np.linalg.norm(d.solution.P - P_ref, "fro"))
    assert error <= 1e-8 * float(np.linalg.norm(P_ref, "fro")) + 2.0 * forward_error_bound(d)


@st.composite
def positive_definite_qhat_grids(draw):
    """Random plant with a positive definite state weight Q = C'C + q I, and
    a grid of up to four periods up to 12; ||A||_2 up to 1.5 makes many
    plants unstable, over horizons of up to 2^64 such periods, and one
    plant in five has no working input, so an unstable one diverges."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([1, 2, 3]))
    a_norm = draw(st.floats(0.05, 1.5))
    inputs = draw(st.sampled_from([0.0, 1.0, 1.0, 1.0, 1.0]))
    periods = draw(st.lists(st.floats(0.2, 12.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n))
    A *= a_norm / max(np.linalg.norm(A, 2), 1e-12)
    C = rng.normal(size=(int(rng.integers(1, n + 1)), n))
    weights = CostWeights(C.T @ C + 10.0 ** rng.uniform(-3, 0) * np.eye(n),
                          np.diag(10.0 ** rng.uniform(-1, 1, m)), np.diag(10.0 ** rng.uniform(-1, 1, m)))
    return ContinuousPlant(A, inputs * rng.normal(size=(n, m))), weights, periods


@settings(max_examples=80)
@given(positive_definite_qhat_grids())
def test_kernel_free_cells_need_no_seed(problem):
    # the iterate from 0 and the one from X0 = 1e-12 I stop at the same
    # doubling with the same outcome where Qhat is positive definite, and
    # their limits agree to roundoff
    plant, weights, periods = problem
    try:
        _, A_d, _, B_d, B_i = discretize._sample_stack(plant, periods)
        Q_d, S_d, R_d = discretize._cost_stack(plant, weights, periods)
    except NumericalError:
        assume(False)
    cells = []
    for mode in MODES:
        B, S, R = discretize._select_inputs(mode, B_d, B_i, S_d, R_d)
        stacks, failed = riccati._eliminate_cross_term(A_d, B, Q_d, S, R)
        cells += [tuple(X[j] for X in stacks) for j in range(len(periods)) if j not in failed]
    assume(cells)
    Ahat, G, Qhat, kernel_dims = (np.array(X) for X in zip(*cells))
    assume(not kernel_dims.all())
    P, iterations, failures = riccati._doubling(Ahat, G, Qhat, kernel_dims > 0)

    # the same doubling, with every kernel-free cell's iterate seeded too:
    # _iterate sees each cell as seeded, while the factor of H_k keeps the mask
    iterate = riccati._iterate

    def seeded_everywhere(A, G, H, kernel, I):
        return iterate(A, G, H, np.ones_like(kernel), I)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(riccati, "_iterate", seeded_everywhere)
        P_seeded, iterations_seeded, failures_seeded = riccati._doubling(Ahat, G, Qhat, kernel_dims > 0)
    assert iterations.tolist() == iterations_seeded.tolist()
    assert [(type(f), str(f)) for f in failures] == [(type(f), str(f)) for f in failures_seeded]
    for j in np.flatnonzero([f is None for f in failures]):
        assert relerr(P[j], P_seeded[j]) <= 1e-14


@pytest.mark.parametrize("seed", [0, 7, 12])
def test_ill_conditioned_plant_reports_honestly(seed):
    # n = 24, m = 1: nearly uncontrollable directions give ||P|| ~ 1e7..1e10
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(24, 24))
    A *= 0.6 / np.linalg.norm(A, 2)
    B = rng.normal(size=(24, 1))
    C = rng.normal(size=(1, 24))
    weights = CostWeights(C.T @ C + 1e-3 * np.eye(24), [[1.0]], [[1.0]])
    d = design(ContinuousPlant(A, B), weights, 2.0, "mri")
    assert np.linalg.norm(d.solution.P, "fro") > 1e6
    if d.solution.converged:
        assert_converged_claim(d)
