"""Preview synthesis: closed-form cost vs simulation, adjoint chain, monotonicity."""

import numpy as np
import pytest

from mrilqr import (
    DisturbanceSpec,
    InputPolicy,
    certified_horizon,
    closed_loop_G,
    design,
    feedforward_sequence,
    gamma_and_cost,
    multi_impulse_measure,
    preview_plan,
    simulate_closed_loop,
)
from mrilqr.numkernel import spectral_radius

from conftest import relerr


def mri_design(plant, weights, T):
    d = design(plant, weights, T, "mri")
    P = d.solution.P
    G = closed_loop_G(d.model.A_d, d.B_sel, d.S_sel, d.R_sel, P)
    return d, P, G


def simulate_preview(plant, weights, T, Btilde, N, plan, P, G):
    """Closed-loop run of the preview law; returns (J_disc, tail bound)."""
    bt = np.asarray(Btilde, dtype=float).reshape(-1)
    steps = max(certified_horizon(G, float(bt @ bt) + 1.0, tol=1e-12), N + 2)
    policy = InputPolicy(K=plan.K, mode="mri", feedforward=plan.feedforward)
    traj = simulate_closed_loop(
        plant, weights, T, policy,
        disturbance=DisturbanceSpec(impulse_step=N, direction=bt),
        steps=steps, substeps=4,
    )
    xK = traj.sample_states[-1]
    return traj, float(traj.J_disc), float(xK @ P @ xK)


class TestClosedLoopG:
    def test_without_inputs_reduces_to_state_matrix(self):
        A_d = np.array([[0.3, 0.1], [0.0, 0.5]])
        G = closed_loop_G(A_d, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert relerr(G, A_d) < 1e-14

    def test_matches_gain_form_on_scalar_integrator(self):
        from mrilqr import ContinuousPlant, CostWeights

        plant = ContinuousPlant([[0.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]], [[1.0]])
        d, P, G = mri_design(plant, w, 1.0)
        A_cl = d.model.A_d + d.B_sel @ d.solution.K
        assert relerr(G, A_cl) < 1e-12

    def test_souza_closed_loop_is_contractive(self, souza_plant, souza_weights):
        _, _, G = mri_design(souza_plant, souza_weights, 1.0)
        assert spectral_radius(G) < 1.0


class TestFeedforward:
    def test_empty_for_zero_preview(self, souza_plant, souza_weights):
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        assert feedforward_sequence(P, G, d.B_sel, d.R_sel, [1.0, 1.0], 0) == ()

    def test_single_step_uses_identity_power(self, souza_plant, souza_weights):
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        bt = np.array([1.0, 1.0])
        (f0,) = feedforward_sequence(P, G, d.B_sel, d.R_sel, bt, 1)
        M = d.R_sel + d.B_sel.T @ P @ d.B_sel
        expected = -np.linalg.solve(M, d.B_sel.T @ P @ bt)
        assert relerr(f0, expected) < 1e-12

    def test_negative_horizon_rejected(self, souza_plant, souza_weights):
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        with pytest.raises(ValueError):
            feedforward_sequence(P, G, d.B_sel, d.R_sel, [1.0, 1.0], -1)


class TestGammaAndCost:
    def test_zero_preview(self, souza_plant, souza_weights):
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        bt = np.array([1.0, 1.0])
        Gamma, Jstar = gamma_and_cost(P, G, d.B_sel, d.R_sel, bt, 0)
        assert np.all(Gamma == 0.0)
        assert abs(Jstar - bt @ P @ bt) < 1e-12

    def test_single_step_core_is_symmetric_psd(self, souza_plant, souza_weights):
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        Gamma, _ = gamma_and_cost(P, G, d.B_sel, d.R_sel, [1.0, 1.0], 1)
        assert relerr(Gamma, Gamma.T) < 1e-12
        assert np.linalg.eigvalsh(Gamma)[0] > -1e-12

    def test_cost_monotone_and_bounded(self, souza_plant, souza_weights):
        bt = np.array([1.0, 1.0])
        for T in (0.5, 1.0, 2.0):
            d, P, G = mri_design(souza_plant, souza_weights, T)
            base = float(bt @ P @ bt)
            prev = base
            for N in range(1, 5):
                _, Jstar = gamma_and_cost(P, G, d.B_sel, d.R_sel, bt, N)
                assert Jstar <= prev + 1e-9
                assert -1e-12 <= Jstar <= base + 1e-9
                prev = Jstar
            # one step of preview already strictly helps
            _, J1 = gamma_and_cost(P, G, d.B_sel, d.R_sel, bt, 1)
            assert J1 < base

    def test_formula_equals_simulated_cost(self, souza_plant, souza_weights):
        bt = np.array([1.0, 1.0])
        for T in (0.5, 1.0, 2.0):
            for N in range(0, 5):
                d, P, G = mri_design(souza_plant, souza_weights, T)
                plan = preview_plan(d, bt, N)
                _, J_disc, tail = simulate_preview(
                    souza_plant, souza_weights, T, bt, N, plan, P, G)
                assert tail < 1e-10 * max(plan.Jstar, 1.0)
                assert abs(J_disc - plan.Jstar) <= 1e-8 * max(plan.Jstar, 1e-12)

    def test_perturbed_feedforward_never_beats_optimum(self, souza_plant, souza_weights):
        bt = np.array([1.0, 1.0])
        T, N = 1.0, 3
        d, P, G = mri_design(souza_plant, souza_weights, T)
        plan = preview_plan(d, bt, N)
        _, J_opt, _ = simulate_preview(souza_plant, souza_weights, T, bt, N, plan, P, G)
        rng = np.random.default_rng(51)
        from dataclasses import replace

        for _ in range(50):
            ff = tuple(f + 1e-3 * np.linalg.norm(f + 1e-3) * rng.normal(size=f.shape)
                       for f in plan.feedforward)
            perturbed = replace(plan, feedforward=ff)
            _, J_pert, _ = simulate_preview(
                souza_plant, souza_weights, T, bt, N, perturbed, P, G)
            assert J_pert >= J_opt - 1e-10


class TestAdjointChain:
    def test_multipliers_reproduce_optimal_inputs(self, souza_plant, souza_weights):
        # rebuild the two-point boundary chain from the simulated inputs:
        # x_{k+1} = A x_k + B v_k (no jump), mu_N = P(x_N + Btilde),
        # mu_k = A' mu_{k+1} + Q x_k + S v_k, and the stationarity
        # condition v_k = -R^{-1}(B' mu_{k+1} + S' x_k) must return the
        # inputs actually applied, while q_k = P x_k - mu_k follows
        # q_k = -(G')^{N-k} P Btilde.
        bt = np.array([1.0, 1.0])
        T, N = 1.0, 4
        d, P, G = mri_design(souza_plant, souza_weights, T)
        plan = preview_plan(d, bt, N)
        A_d, B, S, R, Qd = d.model.A_d, d.B_sel, d.S_sel, d.R_sel, d.cost.Q_d

        xs = [np.zeros(2)]
        vs = []
        for k in range(N):
            v = plan.K @ xs[k] + plan.feedforward[k]
            vs.append(v)
            xs.append(A_d @ xs[k] + B @ v)

        mus = [None] * (N + 1)
        mus[N] = P @ (xs[N] + bt)
        for k in range(N - 1, 0, -1):
            mus[k] = A_d.T @ mus[k + 1] + Qd @ xs[k] + S @ vs[k]
        for k in range(N):
            v_stat = -np.linalg.solve(R, B.T @ mus[k + 1] + S.T @ xs[k])
            assert relerr(v_stat, vs[k]) < 1e-9
        for k in range(1, N + 1):
            q_k = P @ xs[k] - mus[k]
            expected = -np.linalg.matrix_power(G.T, N - k) @ (P @ bt)
            assert relerr(q_k, expected) < 1e-9

    def test_q_recursion(self, souza_plant, souza_weights):
        bt = np.array([1.0, 1.0])
        N = 5
        _, P, G = mri_design(souza_plant, souza_weights, 0.8)
        qs = [-np.linalg.matrix_power(G.T, N - k) @ (P @ bt) for k in range(N + 1)]
        for k in range(N):
            assert relerr(qs[k], G.T @ qs[k + 1]) < 1e-9


class TestMultiImpulse:
    def test_single_column_is_sqrt_of_cost(self, souza_plant, souza_weights):
        bt = np.array([1.0, 1.0])
        d = design(souza_plant, souza_weights, 1.0, "mri")
        plan = preview_plan(d, bt, 2)
        got = multi_impulse_measure(d, bt.reshape(2, 1), 2)
        assert abs(got - np.sqrt(plan.Jstar)) < 1e-10

    def test_zero_column_contributes_nothing(self, souza_plant, souza_weights):
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        d = design(souza_plant, souza_weights, 1.0, "mri")
        got = multi_impulse_measure(d, b, 2)
        single = multi_impulse_measure(d, b[:, :1], 2)
        assert abs(got - single) < 1e-12

    def test_identity_columns_sum_and_match_simulation(self, souza_plant, souza_weights):
        T, N = 1.0, 2
        d, P, G = mri_design(souza_plant, souza_weights, T)
        total = 0.0
        for i in range(2):
            e_i = np.eye(2)[:, i]
            plan = preview_plan(d, e_i, N)
            _, J_disc, tail = simulate_preview(souza_plant, souza_weights, T, e_i, N, plan, P, G)
            assert abs(J_disc - plan.Jstar) <= 1e-8 * max(plan.Jstar, 1e-12)
            total += plan.Jstar
        got = multi_impulse_measure(d, np.eye(2), N)
        assert abs(got - np.sqrt(total)) < 1e-10
