"""Trajectory generation, cost equivalence, impulse approximation."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    DisturbanceSpec,
    InputPolicy,
    SimulationDivergence,
    certified_horizon,
    design,
    impulse_hold_matrix,
    sample_plant,
    simulate_closed_loop,
)
from mrilqr.simulate import _interval_segments

from conftest import open_loop, random_stable_plant, relerr


class TestBasics:
    def test_zero_everything_stays_zero(self, souza_plant, souza_weights):
        policy = InputPolicy(K=np.zeros((2, 2)), mode="mri")
        traj = simulate_closed_loop(souza_plant, souza_weights, 1.0, policy, steps=5, substeps=4)
        assert np.abs(traj.dense_states).max() == 0.0
        assert traj.J_cont == 0.0
        assert traj.J_disc == 0.0

    def test_sample_states_follow_discrete_recursion(self, souza_plant, souza_weights):
        rng = np.random.default_rng(61)
        m = sample_plant(souza_plant, 0.9)
        u_c = rng.normal(size=(12, 1))
        u_i = rng.normal(size=(12, 1))
        traj = open_loop(souza_plant, souza_weights, 0.9, u_c, u_i,
                         x0=[1.0, -2.0], substeps=8)
        for k in range(12):
            expected = m.A_d @ traj.sample_states[k] + m.B_d @ u_c[k] + m.B_i @ u_i[k]
            assert relerr(traj.sample_states[k + 1], expected) < 1e-10

    def test_dense_states_match_one_shot_discretization(self, souza_plant, souza_weights):
        # substep boundaries must land exactly where a single exponential
        # from the interval start would put them
        u_c = np.array([[0.7]])
        u_i = np.array([[-0.3]])
        s = 8
        traj = open_loop(souza_plant, souza_weights, 1.0, u_c, u_i,
                         x0=[0.5, 0.25], substeps=s)
        y0 = np.array([0.5, 0.25]) + souza_plant.B[:, 0] * u_i[0, 0]
        for j in range(1, s + 1):
            t = j / s
            mj = sample_plant(souza_plant, t)
            expected = mj.A_d @ y0 + mj.B_d @ u_c[0]
            idx = np.where(np.isclose(traj.dense_times, t))[0][-1]
            assert relerr(traj.dense_states[idx], expected) < 1e-10

    def test_disturbance_jump_applied_before_input(self, souza_plant, souza_weights):
        policy = InputPolicy(K=np.zeros((2, 2)), mode="mri")
        d = DisturbanceSpec(impulse_step=0, direction=np.array([1.0, 1.0]))
        traj = simulate_closed_loop(souza_plant, souza_weights, 1.0, policy,
                                    disturbance=d, steps=3, substeps=2)
        assert np.allclose(traj.sample_states[0], [1.0, 1.0])
        assert traj.dense_impulse_flags[1] == 1

    @pytest.mark.parametrize("epsilon", [None, 0.3])
    @pytest.mark.parametrize("closed_loop", [False, True])
    def test_disturbance_at_the_last_sample(self, souza_plant, souza_weights, closed_loop, epsilon):
        # impulse_step == steps: the jump lands on the final state and on
        # nothing before it
        steps, T, d = 5, 0.9, np.array([0.25, -1.5])
        if closed_loop:
            policy = InputPolicy(K=design(souza_plant, souza_weights, T, "mri").solution.K)

            def run(disturbance):
                return simulate_closed_loop(souza_plant, souza_weights, T, policy,
                                            disturbance=disturbance, steps=steps, substeps=3,
                                            epsilon=epsilon, x0=[1.0, -0.5])
        else:
            rng = np.random.default_rng(7)
            u_c, u_i = rng.normal(size=(steps, 1)), rng.normal(size=(steps, 1))

            def run(disturbance):
                return open_loop(souza_plant, souza_weights, T, u_c, u_i, x0=[1.0, -0.5],
                                 substeps=3, disturbance=disturbance, epsilon=epsilon)

        free, hit = run(None), run(DisturbanceSpec(steps, d))
        assert hit.dense_times[-1] == steps * T
        assert hit.dense_impulse_flags[-1] == 1
        assert np.array_equal(hit.dense_states[-1], free.dense_states[-1] + d)
        assert np.array_equal(hit.sample_states[-1], hit.dense_states[-1])
        assert np.array_equal(hit.sample_states[:-1], free.sample_states[:-1])
        for name in ("dense_times", "dense_states", "dense_impulse_flags", "dense_running_cost"):
            assert np.array_equal(getattr(hit, name)[:-1], getattr(free, name)), name
        assert np.array_equal(hit.u_c, free.u_c) and np.array_equal(hit.u_i, free.u_i)
        assert hit.J_cont == free.J_cont and hit.J_disc == free.J_disc

    def test_divergence_is_reported_with_step(self):
        plant = ContinuousPlant([[5.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]], [[1.0]])
        policy = InputPolicy(K=np.array([[1e150], [1e150]]), mode="mri")
        with pytest.raises(SimulationDivergence) as err:
            simulate_closed_loop(plant, w, 1.0, policy, x0=[1.0], steps=10, substeps=1)
        # x_1 ~ 1e152 is finite, x_2 ~ 1e304 times the gain is not
        assert err.value.step == 2
        assert str(err.value) == "state diverged at step 2"

    def test_saturation_clips_at_zero(self, insulin_plant, insulin_weights):
        d = design(insulin_plant, insulin_weights, 20.0, "mri")
        policy = InputPolicy(K=d.solution.K, mode="mri", saturate_nonnegative=True)
        dist = DisturbanceSpec(impulse_step=0, direction=insulin_plant.Btilde[:, 0] * 60.0)
        traj = simulate_closed_loop(insulin_plant, insulin_weights, 20.0, policy,
                                    disturbance=dist, steps=30, substeps=4)
        assert traj.u_c.min() >= 0.0
        assert traj.u_i.min() >= 0.0

    @pytest.mark.parametrize("call, message", [
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), steps=0),
         "steps must be >= 1, got 0"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), substeps=0),
         "substeps must be >= 1, got 0"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), x0=[1.0] * 3),
         "x0 has size 3, expected 2"),
        (lambda p, w: InputPolicy(np.zeros((2, 2)), mode="bogus"), "unknown policy mode 'bogus'"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((1, 2)))),
         r"policy gain has shape \(1, 2\), expected \(2, 2\)"),
        (lambda p, w: DisturbanceSpec(-1, [1.0, 0.0]), "impulse_step must be >= 0"),
        (lambda p, w: DisturbanceSpec(0, [1.0, np.inf]), "non-finite"),
        (lambda p, w: impulse_hold_matrix(p, 0.0, 0.5), "sampling period must exceed 1e-12, got 0.0"),
        (lambda p, w: impulse_hold_matrix(p, -1.0, 0.5), "sampling period must exceed 1e-12, got -1.0"),
        (lambda p, w: impulse_hold_matrix(p, np.inf, 0.5), "period must be finite, got inf"),
        # the hold map takes the samplers' period rule and the runs' epsilon rule
        (lambda p, w: impulse_hold_matrix(p, 5e-324, 0.5), "sampling period must exceed 1e-12, got 5e-324"),
        (lambda p, w: impulse_hold_matrix(p, 1e-13, 0.5), "sampling period must exceed 1e-12, got 1e-13"),
        (lambda p, w: impulse_hold_matrix(p, 1.0, 1.0), r"approx mode needs epsilon in \(0, 1\), got 1.0"),
        # the period of a run is checked where it enters, not by the exponential kernel
        (lambda p, w: simulate_closed_loop(p, w, 0.0, InputPolicy(np.zeros((2, 2)))),
         "sampling period must exceed 1e-12, got 0.0"),
        (lambda p, w: open_loop(p, w, np.inf, np.zeros((2, 1)), np.zeros((2, 1))),
         "sampling period must be finite, got inf"),
        (lambda p, w: certified_horizon(np.zeros((2, 3)), 1.0), r"must be square, got shape \(2, 3\)"),
        (lambda p, w: certified_horizon([[np.nan, 0.0], [0.0, 0.5]], 1.0), "has non-finite entries"),
        # a disturbance step no sample index meets, or a jump of the wrong size, is
        # an input fault, never a silently dropped disturbance or a numpy error
        (lambda p, w: DisturbanceSpec(1.5, [1.0, 0.0]), "impulse_step must be an integer, got 1.5"),
        (lambda p, w: DisturbanceSpec(True, [1.0, 0.0]), "impulse_step must be an integer, got True"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), steps=2.0),
         "steps must be an integer, got 2.0"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), substeps=True),
         "substeps must be an integer, got True"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), steps=3,
                                           disturbance=DisturbanceSpec(4, [1.0, 0.0])),
         "disturbance impulse_step must be <= steps = 3, got 4"),
        (lambda p, w: open_loop(p, w, 1.0, np.zeros((2, 1)), np.zeros((2, 1)),
                                disturbance=DisturbanceSpec(3, [1.0, 0.0])),
         "disturbance impulse_step must be <= steps = 2, got 3"),
        (lambda p, w: open_loop(p, w, 1.0, np.zeros((2, 1)), np.zeros((2, 1)),
                                disturbance=DisturbanceSpec(0, [1.0, 0.0, 0.0])),
         "disturbance direction has size 3, expected 2"),
    ], ids=["steps", "substeps", "x0-size", "policy-mode", "gain-shape", "negative-step",
            "non-finite-direction", "zero-period", "negative-period",
            "infinite-hold-period", "subnormal-hold-period", "tiny-hold-period", "hold-epsilon",
            "zero-run-period", "infinite-run-period", "A_cl-non-square", "A_cl-non-finite",
            "fractional-step", "bool-step", "fractional-steps", "bool-substeps", "step-past-closed-loop",
            "step-past-inputs", "direction-size"])
    def test_invalid_arguments_are_rejected(self, souza_plant, souza_weights, call, message):
        with pytest.raises(ValueError, match=message):
            call(souza_plant, souza_weights)

    @pytest.mark.parametrize("call, message", [
        (lambda p, w: open_loop(p, w, 1.0, [[0.0]], [[0.0]], x0=[np.nan, 0.0]), "x0 has non-finite entries"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2))), x0=[np.inf, 0.0]),
         "x0 has non-finite entries"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2)), feedforward=(np.zeros(3),))),
         r"feedforward entry 0 must hold 2 finite numbers, got \[0.0, 0.0, 0.0\]"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((1, 2)), "regular",
                                                                  feedforward=(np.zeros(1), np.zeros(2)))),
         r"feedforward entry 1 must hold 1 finite numbers, got \[0.0, 0.0\]"),
        (lambda p, w: simulate_closed_loop(p, w, 1.0, InputPolicy(np.zeros((2, 2)),
                                                                  feedforward=(np.zeros(2), [np.inf, 0.0]))),
         r"feedforward entry 1 must hold 2 finite numbers, got \[inf, 0.0\]"),
    ], ids=["nan-x0", "inf-x0", "feedforward-width", "feedforward-regular-width", "inf-feedforward"])
    def test_simulation_inputs_are_checked_where_they_enter(self, souza_plant, souza_weights, call, message):
        # never a numpy shape error or a divergence at step 0
        with pytest.raises(ValueError, match=message):
            call(souza_plant, souza_weights)

    def test_a_numpy_integer_step_is_an_integer(self, souza_plant, souza_weights):
        def run(step):
            return open_loop(souza_plant, souza_weights, 1.0, np.ones((3, 1)), np.ones((3, 1)),
                             substeps=2, disturbance=DisturbanceSpec(step, [0.5, -1.0]))

        assert np.array_equal(run(np.int64(2)).dense_states, run(2).dense_states)

    @pytest.mark.parametrize("T, substeps, alpha", [
        (1.0, 1, None), (0.9, 7, None), (20.0, 32, 2.0), (0.9, 7, 0.9 * 3 / 7), (3.0, 5, 1e-9),
        (2.5, 3, 2.5 - 1e-13), (0.3, 10, 0.3 * 7 / 10 + 1e-17)])
    def test_interval_segments_keep_the_bits_of_the_scalar_grid(self, T, substeps, alpha):
        # the per-cut Python arithmetic the array grid must match bit for bit;
        # a hold cut on (or within 1e-15 T of) a grid cut adds no segment
        cuts = [j * T / substeps for j in range(substeps + 1)]
        if alpha is not None and all(abs(alpha - c) > 1e-15 * T for c in cuts):
            cuts = sorted([*cuts, alpha])
        pairs = list(zip(cuts[:-1], cuts[1:]))
        t_ends, lengths, hold = _interval_segments(T, substeps, alpha)
        assert t_ends.tolist() == [b for _, b in pairs]
        assert lengths.tolist() == [b - a for a, b in pairs]
        assert hold.tolist() == [alpha is not None and 0.5 * (a + b) < alpha for a, b in pairs]

    def test_a_substep_grid_past_the_int64_range_is_rejected(self):
        # np.arange(2**63 + 1) is an empty range, not an error
        with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
            _interval_segments(1.0, 2**63, None)


class TestCostAccumulation:
    def test_optimal_policy_cost_matches_riccati_value(self, souza_plant, souza_weights):
        d = design(souza_plant, souza_weights, 1.0, "mri")
        policy = InputPolicy(K=d.solution.K, mode="mri")
        x0 = np.array([1.0, 1.0])
        traj = simulate_closed_loop(souza_plant, souza_weights, 1.0, policy,
                                    steps=200, substeps=64, x0=x0)
        expected = float(x0 @ d.solution.P @ x0)
        xK = traj.sample_states[-1]
        assert float(xK @ d.solution.P @ xK) < 1e-10
        assert abs(traj.J_disc - expected) <= 1e-8 * expected

    def test_continuous_cost_of_pure_hold(self):
        # Q = 0 and unit hold input: the only contribution is T per step
        plant = ContinuousPlant([[-0.3]], [[1.0]])
        w = CostWeights([[0.0]], [[1.0]], [[1.0]])
        K = 7
        u_c = np.ones((K, 1))
        u_i = np.zeros((K, 1))
        traj = open_loop(plant, w, 0.6, u_c, u_i, substeps=4)
        assert abs(traj.J_cont - K * 0.6) < 1e-12

    def test_continuous_cost_recomputes_under_new_weights(self, souza_plant, souza_weights):
        rng = np.random.default_rng(62)
        u_c = rng.normal(size=(6, 1))
        u_i = rng.normal(size=(6, 1))
        traj = open_loop(souza_plant, souza_weights, 0.8, u_c, u_i, x0=[0.2, -0.1])
        again = open_loop(souza_plant, souza_weights, 0.8, traj.u_c, traj.u_i, x0=[0.2, -0.1])
        assert abs(again.J_cont - traj.J_cont) < 1e-12 * (1 + abs(traj.J_cont))
        heavier = CostWeights(souza_weights.Q, [[5.0]], [[2.0]])
        reweighted = open_loop(souza_plant, heavier, 0.8, traj.u_c, traj.u_i, x0=[0.2, -0.1])
        assert np.array_equal(reweighted.sample_states, traj.sample_states)
        assert reweighted.J_cont > traj.J_cont

    def test_free_response_cost_against_quadrature(self):
        rng = np.random.default_rng(63)
        plant = random_stable_plant(rng, 3, 1, margin=0.8)
        C = rng.normal(size=(2, 3))
        w = CostWeights(C.T @ C, [[1.0]], [[1.0]])
        x0 = rng.normal(size=3)
        K = 40
        T = 0.5
        zeros = np.zeros((K, 1))
        traj = open_loop(plant, w, T, zeros, zeros, x0=x0, substeps=8)
        J_cont = traj.J_cont
        assert abs(J_cont - traj.J_disc) <= 1e-8 * max(abs(traj.J_disc), 1e-12)

        def integrand(t):
            x = scipy.linalg.expm(plant.A * t) @ x0
            return float(x @ w.Q @ x)

        oracle = 0.0
        for k in range(K):
            val, _ = quad(integrand, k * T, (k + 1) * T, epsabs=1e-12, epsrel=1e-12)
            oracle += val
        assert abs(J_cont - oracle) <= 1e-8 * max(oracle, 1e-12)


class TestCostEquivalence:
    def test_zero_inputs_zero_state(self, souza_plant, souza_weights):
        zeros = np.zeros((5, 1))
        traj = open_loop(souza_plant, souza_weights, 1.0, zeros, zeros, x0=np.zeros(2))
        assert traj.J_cont == 0.0 and traj.J_disc == 0.0

    def test_random_inputs_on_souza(self, souza_plant, souza_weights):
        rng = np.random.default_rng(64)
        u_c = rng.normal(size=(50, 1))
        u_i = rng.normal(size=(50, 1))
        traj = open_loop(souza_plant, souza_weights, 0.7, u_c, u_i,
                         x0=rng.normal(size=2), substeps=8)
        assert abs(traj.J_cont - traj.J_disc) <= 1e-6 * max(abs(traj.J_disc), 1e-12)

    def test_fifty_randomized_instances_with_certified_tails(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            plant = random_stable_plant(rng, n, m, margin=0.5)
            C = rng.normal(size=(n, n))
            w = CostWeights(C.T @ C, np.eye(m), np.eye(m))
            T = rng.uniform(0.2, 2.0)
            d = design(plant, w, T, "mri")
            A_cl = d.model.A_d + d.B_sel @ d.solution.K
            x0 = rng.normal(size=n)
            scale = max(float(x0 @ d.solution.P @ x0), 1.0)
            K = certified_horizon(A_cl, scale, tol=1e-10)
            policy = InputPolicy(K=d.solution.K, mode="mri")
            traj = simulate_closed_loop(plant, w, T, policy, steps=K, substeps=4, x0=x0)
            xK = traj.sample_states[-1]
            tail = float(xK @ d.solution.P @ xK)
            assert tail < 1e-10 * scale
            gap = abs(traj.J_cont - traj.J_disc) / max(traj.J_disc, 1e-12)
            assert gap <= 1e-6


@pytest.mark.parametrize("tol, expected", [(1e-10, 6), (10.0, 5)])
def test_certified_horizon_at_zero_radius_is_its_limit(tol, expected):
    # rho = 0 is the limit rho -> 0+, never the cap of a loop that does not contract
    for A_cl in (np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], np.diag([1e-300, 0.0])):
        assert certified_horizon(A_cl, 1.0, tol=tol) == expected
    assert certified_horizon(np.eye(2), 1.0, tol=tol) == 100_000


class TestImpulseApproximation:
    def test_static_plant_is_exact_for_any_epsilon(self):
        plant = ContinuousPlant(np.zeros((2, 2)), [[1.0], [2.0]])
        for eps in (0.5, 0.1, 0.01):
            got = impulse_hold_matrix(plant, 1.0, eps)
            assert relerr(got, plant.B) < 1e-12

    def test_first_order_convergence_ratio(self, souza_plant):
        m = sample_plant(souza_plant, 1.0)
        errs = []
        for eps in (0.1, 0.05, 0.025):
            diff = impulse_hold_matrix(souza_plant, 1.0, eps) - m.B_i
            errs.append(np.linalg.norm(diff))
        for a, b in zip(errs[1:], errs[:-1]):
            assert 0.4 <= a / b <= 0.6

    def test_small_epsilon_matches_taylor_prediction(self, souza_plant):
        # leading error term is (eps*T/2) * A_d A B
        m = sample_plant(souza_plant, 1.0)
        eps = 0.01
        diff = np.linalg.norm(impulse_hold_matrix(souza_plant, 1.0, eps) - m.B_i)
        predicted = 0.5 * eps * np.linalg.norm(m.A_d @ souza_plant.A @ souza_plant.B)
        assert abs(diff - predicted) <= 0.1 * predicted
        assert diff <= 0.02 * np.linalg.norm(m.B_i)

    def test_rejects_bad_epsilon(self, souza_plant):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                impulse_hold_matrix(souza_plant, 1.0, eps)

    def test_approx_sampled_map_uses_hold_matrix(self, souza_plant, souza_weights):
        u_c = np.array([[0.4]])
        u_i = np.array([[1.0]])
        eps = 0.05
        m = sample_plant(souza_plant, 1.0)
        B_ia = impulse_hold_matrix(souza_plant, 1.0, eps)
        traj = open_loop(souza_plant, souza_weights, 1.0, u_c, u_i,
                         x0=[1.0, 0.0], substeps=8, epsilon=eps)
        expected = m.A_d @ np.array([1.0, 0.0]) + m.B_d @ u_c[0] + B_ia @ u_i[0]
        assert relerr(traj.sample_states[1], expected) < 1e-10

    def test_trajectory_deviation_is_first_order_in_epsilon(self, souza_plant, souza_weights):
        d = design(souza_plant, souza_weights, 1.0, "mri")
        policy = InputPolicy(K=d.solution.K, mode="mri")
        x0 = np.array([1.0, 1.0])
        exact = simulate_closed_loop(souza_plant, souza_weights, 1.0, policy,
                                     steps=12, substeps=4, x0=x0)

        def deviations(step, epsilons):
            out = []
            for eps in epsilons:
                approx = simulate_closed_loop(souza_plant, souza_weights, 1.0, policy,
                                              steps=12, substeps=4, x0=x0, epsilon=eps)
                out.append(np.linalg.norm(approx.sample_states[step] - exact.sample_states[step]))
            return out

        # one step in, halving epsilon exactly halves the deviation
        one_step = deviations(1, (0.1, 0.05, 0.025))
        for a, b in zip(one_step[1:], one_step[:-1]):
            assert 0.4 <= a / b <= 0.6
        # at the final step the first-order regime needs smaller epsilon
        final = deviations(12, (0.02, 0.01, 0.005))
        assert final[2] < final[1] < final[0]
        for a, b in zip(final[1:], final[:-1]):
            assert 0.4 <= a / b <= 0.65

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_epsilon_outside_unit_interval_is_rejected(self, souza_plant, souza_weights, eps):
        policy = InputPolicy(K=np.zeros((2, 2)), mode="mri")
        with pytest.raises(ValueError, match="epsilon in \\(0, 1\\)"):
            simulate_closed_loop(souza_plant, souza_weights, 1.0, policy,
                                 steps=2, epsilon=eps)


class TestInsulinScenario:
    def test_closed_loop_reduces_bgl_peak(self, insulin_plant, insulin_weights):
        ctilde = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        dist = DisturbanceSpec(impulse_step=0, direction=insulin_plant.Btilde[:, 0] * 60.0)
        open_policy = InputPolicy(K=np.zeros((2, 6)), mode="mri")
        open_traj = simulate_closed_loop(insulin_plant, insulin_weights, 20.0, open_policy,
                                         disturbance=dist, steps=40, substeps=16)
        d = design(insulin_plant, insulin_weights, 20.0, "mri")
        policy = InputPolicy(K=d.solution.K, mode="mri")
        closed_traj = simulate_closed_loop(insulin_plant, insulin_weights, 20.0, policy,
                                           disturbance=dist, steps=40, substeps=16)
        open_peak = float(np.max(open_traj.dense_states @ ctilde))
        closed_peak = float(np.max(closed_traj.dense_states @ ctilde))
        assert closed_peak < open_peak
