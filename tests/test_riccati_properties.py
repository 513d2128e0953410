"""Property tests: what ``converged=True`` promises, on random plants."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrilqr import ContinuousPlant, CostWeights, NumericalError, design
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
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
