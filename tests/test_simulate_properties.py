"""Property tests: closed-loop simulation of random multi-input plants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    InputPolicy,
    NumericalError,
    design,
    simulate_closed_loop,
)


@st.composite
def mri_loops(draw):
    """Random plant with 1..3 inputs under its mri design, plus a start state.

    ||A||_2 up to 1.5 over T up to 3 makes some plants unstable over one
    period; C has 1..n rows so Q is often singular.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 3]))
    a_norm = draw(st.floats(0.05, 1.5))
    T = draw(st.floats(0.2, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n))
    A *= a_norm / max(np.linalg.norm(A, 2), 1e-12)
    C = rng.normal(size=(int(rng.integers(1, n + 1)), n))
    weights = CostWeights(C.T @ C, np.diag(10.0 ** rng.uniform(-1, 1, m)),
                          np.diag(10.0 ** rng.uniform(-1, 1, m)))
    plant = ContinuousPlant(A, rng.normal(size=(n, m)))
    try:
        d = design(plant, weights, T, "mri")
    except NumericalError:
        assume(False)
    assume(d.solution.converged)
    return plant, weights, T, InputPolicy(K=d.solution.K, mode="mri"), rng.normal(size=n)


SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(mri_loops())
def test_exact_impulses_keep_continuous_and_discrete_costs_equal(loop):
    plant, weights, T, policy, x0 = loop
    traj = simulate_closed_loop(plant, weights, T, policy, steps=10, substeps=4, x0=x0)
    assert abs(traj.J_cont - traj.J_disc) <= 1e-6 * max(abs(traj.J_disc), 1e-12)


@SETTINGS
@given(mri_loops())
def test_held_impulses_converge_first_order_in_epsilon(loop):
    # one step in, the error is (B_ia(eps) - B_i) u_i: eps T/2 A_d A B u_i plus
    # terms at most (eps T ||A||)^k / k! times it, so halving eps halves it
    plant, weights, T, policy, x0 = loop
    kw = dict(steps=2, substeps=4, x0=x0)
    exact = simulate_closed_loop(plant, weights, T, policy, **kw).sample_states[1]
    errors = []
    for eps in (0.05, 0.025, 0.0125):
        approx = simulate_closed_loop(plant, weights, T, policy, impulse_mode="approx",
                                      epsilon=eps, **kw)
        errors.append(np.linalg.norm(approx.sample_states[1] - exact))
    # an impulse input or A B u_i that vanishes leaves only roundoff to compare
    assume(errors[-1] > 1e-9 * (1.0 + np.linalg.norm(exact)))
    for smaller, larger in zip(errors[1:], errors[:-1]):
        assert 0.4 <= smaller / larger <= 0.6
