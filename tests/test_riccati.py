"""Riccati solver: fixed points, gains, residual quality, dominance."""

import numpy as np
import pytest
import scipy.linalg

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    DareDivergenceError,
    NumericalError,
    cost_matrices,
    dare_residual,
    design,
    restrict_input_mode,
    sample_plant,
    solve_dare,
)
from mrilqr.numkernel import spectral_radius

from conftest import closed_loop_cost_matrix, random_stable_plant, relerr

SOUZA_BASE = 2.0 * np.pi / np.sqrt(23.0)


def bisect_scalar_dare(a, b, q, r, lo=0.0, hi=1e6, iters=200):
    """Positive root of p = q + a^2 p - (a p b)^2 / (r + b^2 p) by bisection."""

    def f(p):
        return q + a * a * p - (a * b * p) ** 2 / (r + b * b * p) - p

    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveDare:
    def test_zero_state_matrix_gives_p_equals_q(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        sol = solve_dare(np.zeros((2, 2)), np.eye(2), Q, np.zeros((2, 2)), np.eye(2))
        assert relerr(sol.P, Q) < 1e-12
        assert sol.converged

    def test_scalar_against_bisection_oracle(self):
        a, b, q, r = 0.5, 1.0, 1.0, 1.0
        expected = bisect_scalar_dare(a, b, q, r)
        sol = solve_dare([[a]], [[b]], [[q]], [[0.0]], [[r]])
        assert abs(sol.P[0, 0] - expected) < 1e-10
        assert sol.converged

    def test_scalar_unstable_against_bisection(self):
        a, b, q, r = 2.0, 0.7, 0.3, 2.0
        expected = bisect_scalar_dare(a, b, q, r)
        sol = solve_dare([[a]], [[b]], [[q]], [[0.0]], [[r]])
        assert abs(sol.P[0, 0] - expected) < 1e-10

    def test_matches_schur_solver_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            plant = random_stable_plant(rng, n, m)
            C = rng.normal(size=(n, n))
            w = CostWeights(C.T @ C, np.eye(m), np.eye(m))
            T = rng.uniform(0.2, 2.0)
            d = design(plant, w, T, "mri")
            P_ref = scipy.linalg.solve_discrete_are(
                d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
            assert relerr(d.solution.P, P_ref) < 1e-8

    def test_residual_is_evaluated_on_original_equation(self, souza_plant, souza_weights):
        d = design(souza_plant, souza_weights, 1.0, "mri")
        sol = d.solution
        res = dare_residual(sol.P, d.model.A_d, d.B_sel, d.cost.Q_d, d.S_sel, d.R_sel)
        assert res == sol.residual
        assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P, "fro"))

    def test_divergence_raises_with_last_iterate(self, souza_plant, souza_weights):
        # exactly pathological period, hold-only: unstable and uncontrollable
        d_model = sample_plant(souza_plant, SOUZA_BASE)
        cost = cost_matrices(souza_plant, souza_weights, SOUZA_BASE)
        B_sel, S_sel, R_sel = restrict_input_mode(d_model, cost, "regular")
        with pytest.raises(DareDivergenceError) as err:
            solve_dare(d_model.A_d, B_sel, cost.Q_d, S_sel, R_sel)
        assert err.value.last_iterate is not None
        assert err.value.iterations > 0

    def test_last_iterate_is_the_value_iterate_of_its_horizon(self, souza_plant, souza_weights):
        # k doublings span 2^k Riccati steps from 1e-12 I
        model = sample_plant(souza_plant, SOUZA_BASE)
        cost = cost_matrices(souza_plant, souza_weights, SOUZA_BASE)
        B, S, R = restrict_input_mode(model, cost, "regular")
        with pytest.raises(DareDivergenceError) as err:
            solve_dare(model.A_d, B, cost.Q_d, S, R)
        k = err.value.iterations
        # the hold-only cost grows ~e^{1.3} per step, past 1e12 within 64 steps
        assert 0 < k <= 64 and 2**k <= 64
        A = model.A_d
        P = 1e-12 * np.eye(2)
        for _ in range(2**k):
            W = A.T @ P @ B + S
            P = A.T @ P @ A + cost.Q_d - W @ np.linalg.solve(R + B.T @ P @ B, W.T)
        assert relerr(err.value.last_iterate, P) < 1e-8

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_memory_layout_of_b_does_not_change_the_solve(self, insulin_plant, insulin_weights, mode):
        model = sample_plant(insulin_plant, 20.0)
        cost = cost_matrices(insulin_plant, insulin_weights, 20.0)
        B_sel, S_sel, R_sel = restrict_input_mode(model, cost, mode)
        ref = solve_dare(model.A_d, np.ascontiguousarray(B_sel), cost.Q_d, S_sel, R_sel)
        strided = np.repeat(B_sel, 2, axis=1)[:, ::2]
        for B in (np.asfortranarray(B_sel), strided):
            sol = solve_dare(model.A_d, B, cost.Q_d, S_sel, R_sel)
            assert sol.iterations == ref.iterations
            assert relerr(sol.P, ref.P) < 1e-10

    def test_rejects_indefinite_r(self):
        with pytest.raises(ValueError):
            solve_dare(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), -np.eye(2))

    def test_rejects_indefinite_q(self):
        # far from roundoff of the cost blocks: a bad input, not a numerical failure
        with pytest.raises(ValueError, match="not positive semidefinite") as err:
            solve_dare(np.eye(2), np.eye(2), -np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert not isinstance(err.value, NumericalError)

    def test_qhat_cancelling_to_roundoff_is_a_numerical_error(self):
        # Q_d - S R^-1 S' = -65536 I (all exact) against blocks of size 1e20
        I = np.eye(2)
        with pytest.raises(NumericalError, match="roundoff"):
            solve_dare(I, I, (1e20 - 65536.0) * I, 1e10 * I, I)

    def test_reports_qhat_kernel(self, souza_plant):
        w = CostWeights(np.zeros((2, 2)), [[1.0]], [[1.0]])
        d = design(souza_plant, w, 1.0, "mri")
        assert d.solution.qhat_kernel_dim == 2
        # unstable plant: the iteration lands on the stabilizing solution,
        # which is nonzero even though the achievable cost weight is zero
        assert spectral_radius(d.model.A_d + d.B_sel @ d.solution.K) < 1.0
        assert d.solution.residual <= 1e-9 * (1.0 + np.linalg.norm(d.solution.P, "fro"))

    def test_zero_weight_stable_plant_gives_zero_solution(self):
        plant = ContinuousPlant([[-0.5, 0.1], [0.0, -1.0]], [[1.0], [0.5]])
        w = CostWeights(np.zeros((2, 2)), [[1.0]], [[1.0]])
        d = design(plant, w, 1.0, "mri")
        assert d.solution.qhat_kernel_dim == 2
        assert np.abs(d.solution.P).max() < 1e-9
        assert np.abs(d.solution.K).max() < 1e-9


class TestGainsAndCost:
    def test_zero_weight_gives_zero_gain(self):
        plant = ContinuousPlant([[-0.5]], [[1.0]])
        w = CostWeights([[0.0]], [[1.0]], [[1.0]])
        d = design(plant, w, 1.0, "mri")
        assert np.abs(d.solution.K).max() < 1e-9

    def test_optimality_by_perturbed_gain_lyapunov(self, souza_plant, souza_weights):
        # any gain perturbation must not beat the synthesized gain
        d = design(souza_plant, souza_weights, 1.0, "mri")
        K = d.solution.K
        X_opt = closed_loop_cost_matrix(d.model.A_d, d.B_sel, d.cost.Q_d, d.S_sel, d.R_sel, K)
        rng = np.random.default_rng(42)
        x0 = np.array([1.0, -0.7])
        base = x0 @ X_opt @ x0
        for _ in range(20):
            Kp = K + 1e-3 * rng.normal(size=K.shape)
            X = closed_loop_cost_matrix(d.model.A_d, d.B_sel, d.cost.Q_d, d.S_sel, d.R_sel, Kp)
            assert x0 @ X @ x0 >= base - 1e-12

    def test_infinite_horizon_cost_values(self):
        sol = solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        # A = 0 makes P = Q = I, so the cost-to-go x0' P x0 is |x0|^2
        x0 = np.array([1.0, 0.0])
        assert abs(float(x0 @ sol.P @ x0) - 1.0) < 1e-12

    def test_cost_equals_lyapunov_evaluation(self, souza_plant, souza_weights):
        d = design(souza_plant, souza_weights, 0.7, "mri")
        X = closed_loop_cost_matrix(d.model.A_d, d.B_sel, d.cost.Q_d, d.S_sel, d.R_sel,
                                    d.solution.K)
        x0 = np.array([1.0, 1.0])
        assert abs(x0 @ d.solution.P @ x0 - x0 @ X @ x0) < 1e-8 * (1 + x0 @ X @ x0)


class TestSolutionQuality:
    @pytest.mark.parametrize("T", [0.4, 1.0, 2.3])
    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_souza_all_modes(self, souza_plant, souza_weights, T, mode):
        d = design(souza_plant, souza_weights, T, mode)
        sol = d.solution
        assert sol.converged
        assert sol.residual <= 1e-9 * (1.0 + np.linalg.norm(sol.P, "fro"))
        np.linalg.cholesky(sol.P)
        assert spectral_radius(d.model.A_d + d.B_sel @ d.solution.K) < 1.0

    def test_insulin_quality(self, insulin_plant, insulin_weights):
        d = design(insulin_plant, insulin_weights, 20.0, "mri")
        sol = d.solution
        assert sol.converged
        assert sol.residual <= 1e-9 * (1.0 + np.linalg.norm(sol.P, "fro"))
        np.linalg.cholesky(sol.P)
        assert spectral_radius(d.model.A_d + d.B_sel @ d.solution.K) < 1.0

    def test_mode_dominance(self, souza_plant, souza_weights):
        rng = np.random.default_rng(43)
        for T in (0.4, 1.0, 2.0, 3.1):
            costs = {}
            for mode in ("regular", "impulsive", "mri"):
                sol = design(souza_plant, souza_weights, T, mode).solution
                costs[mode] = sol
            for _ in range(10):
                x0 = rng.normal(size=2)
                j = {m: x0 @ costs[m].P @ x0 for m in costs}
                assert j["mri"] <= j["regular"] + 1e-9
                assert j["mri"] <= j["impulsive"] + 1e-9


class TestNearPathologicalPeriods:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_typed_error_or_honest_convergence(self, souza_plant, souza_weights, k):
        # hold-only souza loses controllability at k 2 pi / sqrt(23); near
        # it a design fails typed, says it did not converge, or is right
        for delta in (0.0, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7, 1e-6, -1e-6):
            try:
                d = design(souza_plant, souza_weights, k * SOUZA_BASE + delta, "regular")
            except NumericalError:
                continue
            sol = d.solution
            if not sol.converged:
                continue
            assert spectral_radius(d.model.A_d + d.B_sel @ sol.K) < 1.0
            P = scipy.linalg.solve_discrete_are(d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
            assert relerr(sol.P, P) < 1e-8
