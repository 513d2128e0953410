"""Preview synthesis: closed-form cost vs simulation and exact arithmetic,
adjoint chain, monotonicity."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from mrilqr import (
    DisturbanceSpec,
    InputPolicy,
    NumericalError,
    certified_horizon,
    design,
    preview_plan,
    simulate_closed_loop,
)
from mrilqr import numkernel, preview, riccati
from mrilqr.numkernel import spectral_radius
from mrilqr.preview import closed_loop_G, feedforward_sequence, gamma_and_cost, preview_costs

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

    def test_stacked_solves_equal_one_solve_per_step(self, souza_plant, souza_weights):
        # the N solves with R + B'PB run as one stack; each has the bits of its own solve
        d, P, G = mri_design(souza_plant, souza_weights, 1.0)
        bt = np.array([1.0, -2.0])
        M = d.R_sel + d.B_sel.T @ P @ d.B_sel
        c = scipy.linalg.cho_factor(0.5 * (M + M.T))
        ws = [P @ bt]
        for _ in range(3):
            ws.append(G.T @ ws[-1])
        ff = feedforward_sequence(P, G, d.B_sel, d.R_sel, bt, 4)
        assert len(ff) == 4
        for k, f in enumerate(ff):
            assert np.array_equal(f, -scipy.linalg.cho_solve(c, d.B_sel.T @ ws[3 - k])), k


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


def exact(M):
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(M)]


def exact_mul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def exact_T(X):
    return [list(col) for col in zip(*X)]


def exact_add(X, Y, sign=1):
    return [[a + sign * b for a, b in zip(r, q)] for r, q in zip(X, Y)]


def exact_solve(A, Y):
    """A^{-1} Y by Gauss-Jordan elimination on fractions."""
    n = len(A)
    rows = [list(r) + list(y) for r, y in zip(A, Y)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def exact_gamma_and_cost(d, b, N):
    """Gamma and Jstar in exact arithmetic on the design's float P, A_d, B,
    S and R: G from the gain form, the paper's closed form with the core
    B (R + B'PB)^{-1} B'."""
    P, A, B, S, R = (exact(X) for X in (d.solution.P, d.model.A_d, d.B_sel, d.S_sel, d.R_sel))
    b = exact(np.reshape(b, (-1, 1)))
    W = exact_add(R, exact_mul(exact_mul(exact_T(B), P), B))
    G = exact_add(A, exact_mul(B, exact_solve(W, exact_add(exact_mul(exact_mul(exact_T(B), P), A), exact_T(S)))), -1)
    core = exact_mul(B, exact_solve(W, exact_T(B)))
    Gk = exact(np.eye(len(P)))
    Gamma = exact(np.zeros((len(P), len(P))))
    for i in range(N):
        if i:
            Gk = exact_mul(G, Gk)
        Gamma = exact_add(Gamma, exact_mul(exact_mul(Gk, core), exact_T(Gk)))
    Pb = exact_mul(P, b)
    Jstar = exact_mul(exact_T(b), Pb)[0][0] - exact_mul(exact_mul(exact_T(Pb), Gamma), Pb)[0][0]
    return np.array(Gamma, dtype=float), float(Jstar)


class TestExactOracle:
    """Jstar and every entry of Gamma within 1e-9 relative of exact arithmetic
    on the design's own matrices."""

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    def test_souza(self, souza_plant, souza_weights, N):
        self.check(souza_plant, souza_weights, 1.0, N)

    def test_insulin(self, insulin_plant, insulin_weights):
        # the old core (I + P B R^{-1} B')^{-1} lost 3e-8 here
        self.check(insulin_plant, insulin_weights, 20.0, 3)

    @staticmethod
    def check(plant, weights, T, N):
        d, P, G = mri_design(plant, weights, T)
        b = plant.Btilde[:, 0]
        Gamma, Jstar = gamma_and_cost(P, G, d.B_sel, d.R_sel, b, N)
        Gamma_exact, J_exact = exact_gamma_and_cost(d, b, N)
        assert abs(Jstar - J_exact) <= 1e-9 * abs(J_exact)
        assert np.all(np.abs(Gamma - Gamma_exact) <= 1e-9 * np.abs(Gamma_exact))
        plan = preview_plan(d, b, N)
        assert plan.Jstar == Jstar and np.array_equal(plan.Gamma, Gamma)


class TestOneRecursion:
    def test_costs_at_every_horizon_equal_the_solo_cost(self, souza_plant, souza_weights,
                                                        insulin_plant, insulin_weights, monkeypatch):
        # one feedforward recursion to the longest horizon gives each horizon
        # the bits of a recursion that stops there
        calls = []
        recursion = preview._preview
        monkeypatch.setattr(preview, "_preview", lambda *args: calls.append(args[-1]) or recursion(*args))
        horizons = (0, 1, 3, 10)
        for plant, weights, periods in ((souza_plant, souza_weights, (0.5, 1.0, 2.0)),
                                        (insulin_plant, insulin_weights, (5.0, 20.0))):
            designs = [design(plant, weights, T, "mri") for T in periods]
            b = plant.Btilde[:, 0]
            calls.clear()
            G, Jstar, failed = preview_costs(designs, b, horizons)
            assert calls == [10] and not failed
            for j, d in enumerate(designs):
                for k, N in enumerate(horizons):
                    assert Jstar[j, k] == gamma_and_cost(d.solution.P, G[j], d.B_sel, d.R_sel, b, N)[1]
                calls.clear()
                plan = preview_plan(d, b, 3)
                assert calls == [3]
                assert [f.tobytes() for f in plan.feedforward] == \
                    [f.tobytes() for f in feedforward_sequence(d.solution.P, G[j], d.B_sel, d.R_sel, b, 3)]


class TestPreviewPlanChecks:
    """``preview_plan`` checks Btilde and N; the kernels behind it do not."""

    @pytest.mark.parametrize("N", [-1, -4])
    def test_negative_horizon_rejected(self, souza_plant, souza_weights, N):
        d = design(souza_plant, souza_weights, 1.0, "mri")
        with pytest.raises(ValueError, match=f"preview horizon N must be >= 0, got {N}"):
            preview_plan(d, [1.0, 1.0], N)

    @pytest.mark.parametrize("Btilde, N, message", [
        # a malformed disturbance or horizon is an input fault, never a nan
        # cost, an overflow NumericalError or an error from inside numpy
        ([np.nan, 1.0], 0, r"Btilde must be a vector of 2 finite entries, got \[nan, 1.0\]"),
        ([np.nan, 1.0], 2, "Btilde must be a vector of 2 finite entries"),
        ([1.0, 1.0, 1.0], 1, "Btilde must be a vector of 2 finite entries"),
        ([1.0, 1.0], 1.5, "preview horizon N must be an integer, got 1.5"),
        ([1.0, 1.0], True, "preview horizon N must be an integer, got True"),
    ], ids=["nan-N0", "nan-N2", "three-entries", "fractional-N", "bool-N"])
    def test_malformed_input_is_rejected(self, souza_plant, souza_weights, Btilde, N, message):
        d = design(souza_plant, souza_weights, 1.0, "mri")
        with pytest.raises(ValueError, match=message):
            preview_plan(d, Btilde, N)


class TestPreviewPlanOnTheDesign:
    def test_an_unconverged_design_has_no_preview(self, souza_plant, souza_weights):
        # hold-only souza at T = 55 does not converge; its preview cost
        # would fall far below zero
        d = design(souza_plant, souza_weights, 55.0, "regular")
        assert not d.solution.converged
        with pytest.raises(NumericalError, match="^no preview on a design that did not converge$"):
            preview_plan(d, [1.0, 1.0], 3)

    @pytest.mark.parametrize("N", [0, 3])
    def test_the_design_gain_and_no_solve_for_N_0(self, souza_plant, souza_weights, N, monkeypatch):
        # the closed loop takes the design's K (no gain is solved again) and
        # gives closed_loop_G's bits; N = 0 makes no solve with R + B'PB
        d = design(souza_plant, souza_weights, 1.0, "mri")
        b = np.array([1.0, 1.0])
        gains, solves = [], []
        gain, cho_solve = riccati._gain, numkernel._cho_solve
        monkeypatch.setattr(riccati, "_gain", lambda *args: gains.append(1) or gain(*args))
        monkeypatch.setattr(numkernel, "_cho_solve", lambda A, rhs, what: solves.append(what) or cho_solve(A, rhs, what))
        plan = preview_plan(d, b, N)
        assert not gains
        # one solve for every feedforward exponent and Gamma's core together
        assert solves.count("R + B'PB") == (1 if N else 0)
        monkeypatch.undo()
        P = d.solution.P
        G = closed_loop_G(d.model.A_d, d.B_sel, d.S_sel, d.R_sel, P)
        Gamma, Jstar = gamma_and_cost(P, G, d.B_sel, d.R_sel, b, N)
        assert plan.G.tobytes() == G.tobytes() and plan.Gamma.tobytes() == Gamma.tobytes()
        assert plan.Jstar == Jstar
        if N == 0:
            assert plan.feedforward == () and not plan.Gamma.any() and plan.Jstar == pytest.approx(b @ P @ b, rel=1e-14)


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

