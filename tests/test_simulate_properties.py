"""Property tests: simulation of random multi-input plants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dataclasses import fields

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    DisturbanceSpec,
    InputPolicy,
    NumericalError,
    Trajectory,
    design,
    sample_plant,
    simulate,
    simulate_closed_loop,
    simulate_inputs,
)

from mrilqr.discretize import MODES, constant_input_gram

from conftest import random_stable_plant, reference_run, relerr


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


SETTINGS = settings(max_examples=40)


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
        approx = simulate_closed_loop(plant, weights, T, policy, epsilon=eps, **kw)
        errors.append(np.linalg.norm(approx.sample_states[1] - exact))
    # an impulse input or A B u_i that vanishes leaves only roundoff to compare
    assume(errors[-1] > 1e-9 * (1.0 + np.linalg.norm(exact)))
    for smaller, larger in zip(errors[1:], errors[:-1]):
        assert 0.4 <= smaller / larger <= 0.6


@st.composite
def interval_runs(draw):
    """Random stable plant (n <= 4, m <= 2) with random inputs, substeps and hold.

    epsilon is None (exact impulses), a free value, or j / substeps, so that
    the hold cut lands on a substep cut.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    substeps = draw(st.integers(1, 6))
    T = draw(st.floats(0.2, 3.0))
    hold = draw(st.sampled_from(["exact", "free", "cut"]))
    if hold == "cut" and substeps > 1:
        epsilon = draw(st.integers(1, substeps - 1)) / substeps
    elif hold == "exact":
        epsilon = None
    else:
        epsilon = draw(st.floats(0.02, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = random_stable_plant(rng, n, m, margin=0.2)
    C = rng.normal(size=(n, n))
    weights = CostWeights(C.T @ C, np.eye(m), np.eye(m))
    steps = 3
    return (plant, weights, T, substeps, epsilon, rng.normal(size=(steps, m)),
            rng.normal(size=(steps, m)), rng.normal(size=n))


def one_shot(plant, weights, x, u, s):
    """State s after x under the constant input u by one sampled model, and
    the state and hold cost over those s by one Gram integral."""
    model = sample_plant(plant, s)
    xi = np.concatenate([x, u])
    cost = xi @ constant_input_gram(plant, weights.Q, s) @ xi + s * (u @ weights.Rc @ u)
    return model.A_d @ x + model.B_d @ u, cost


@SETTINGS
@given(interval_runs())
def test_interval_maps_match_one_shot_propagation(run):
    # each segment end's state and running cost, from one exponential and one
    # Gram integral over the time since the interval start (or the hold cut)
    plant, weights, T, substeps, epsilon, u_c, u_i, x0 = run
    traj = simulate_inputs(plant, weights, T, u_c, u_i, x0=x0, substeps=substeps, epsilon=epsilon)
    steps = len(u_c)
    ends = np.flatnonzero(traj.dense_impulse_flags == 0)[1:]
    S = len(ends) // steps
    assert S * steps == len(ends)
    scale = 1.0 + abs(traj.J_cont)
    for i, row in enumerate(ends):
        k = i // S
        s = traj.dense_times[row] - k * T
        x = traj.sample_states[k]
        J = (traj.dense_running_cost[ends[i - i % S - 1]] if k else 0.0) + u_i[k] @ weights.Ri @ u_i[k]
        if epsilon is None:
            expected, cost = one_shot(plant, weights, x + plant.B @ u_i[k], u_c[k], s)
        else:
            alpha = epsilon * T
            u_hold = u_c[k] + u_i[k] / alpha
            # a hold inside the leading alpha carries u_c's hold cost, not u_hold's
            hold_correction = u_c[k] @ weights.Rc @ u_c[k] - u_hold @ weights.Rc @ u_hold
            if s <= alpha + 1e-12 * T:
                expected, cost = one_shot(plant, weights, x, u_hold, s)
                cost += s * hold_correction
            else:
                # from the hold cut, through the free input
                x_alpha, cost = one_shot(plant, weights, x, u_hold, alpha)
                expected, rest = one_shot(plant, weights, x_alpha, u_c[k], s - alpha)
                cost += rest + alpha * hold_correction
        assert relerr(traj.dense_states[row], expected) <= 1e-10, (k, s)
        assert abs(traj.dense_running_cost[row] - (J + cost)) <= 1e-9 * scale, (k, s)
    if epsilon is None:
        assert abs(traj.J_cont - traj.J_disc) <= 1e-9 * abs(traj.J_disc)


@st.composite
def stepped_runs(draw):
    """A random run for ``reference_run``: a stable plant with n <= 5 and m <= 2,
    exact impulses or a hold with epsilon off or on a substep cut, a disturbance
    at 0, mid-run, at ``steps`` or none, and either open-loop inputs with
    zero-impulse steps and -0.0 holds or a policy of any mode with a
    feedforward tail and saturation on or off."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    substeps, steps = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    T = draw(st.floats(0.2, 3.0))
    hold = draw(st.sampled_from(["exact", "free", "cut"]))
    if hold == "cut" and substeps > 1:
        epsilon = draw(st.integers(1, substeps - 1)) / substeps
    elif hold == "exact":
        epsilon = None
    else:
        epsilon = draw(st.floats(0.02, 0.9))
    jump = draw(st.sampled_from([None, 0, steps // 2, steps]))
    closed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = random_stable_plant(rng, n, m, margin=0.2)
    C = rng.normal(size=(n, n))
    weights = CostWeights(C.T @ C, np.diag(10.0 ** rng.uniform(-1, 1, m)), np.diag(10.0 ** rng.uniform(-1, 1, m)))
    disturbance = None if jump is None else DisturbanceSpec(jump, rng.normal(size=n))
    x0 = rng.normal(size=n)
    if closed:
        mode = draw(st.sampled_from(MODES))
        width = 2 * m if mode == "mri" else m
        feedforward = tuple(rng.normal(size=width) for _ in range(draw(st.integers(0, steps))))
        policy = InputPolicy(0.5 * rng.normal(size=(width, n)), mode, feedforward, draw(st.booleans()))
        inputs = policy
    else:
        u_c, u_i = rng.normal(size=(steps, m)), rng.normal(size=(steps, m))
        u_i[rng.random(steps) < 0.4] = 0.0
        u_c[rng.random(steps) < 0.2] = -0.0
        inputs = (u_c, u_i)
    return plant, weights, T, substeps, epsilon, steps, disturbance, x0, inputs


@settings(max_examples=80)
@given(stepped_runs())
def test_stacked_run_matches_the_per_step_loop_bit_for_bit(run):
    plant, weights, T, substeps, epsilon, steps, disturbance, x0, inputs = run
    kw = dict(x0=x0, substeps=substeps, disturbance=disturbance, epsilon=epsilon)
    if isinstance(inputs, InputPolicy):
        got = simulate_closed_loop(plant, weights, T, inputs, steps=steps, **kw)
        fn = simulate._policy_inputs(inputs, plant)
    else:
        got = simulate_inputs(plant, weights, T, *inputs, **kw)

        def fn(k, _x):
            return inputs[0][k], inputs[1][k]

    expected = reference_run(plant, weights, T, fn, x0, steps, substeps, epsilon, disturbance)
    for field in fields(Trajectory):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(expected, field.name))
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert a.tobytes() == b.tobytes(), field.name
