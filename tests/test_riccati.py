"""Riccati solver: fixed points, gains, residual quality, dominance, batches."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    DareDivergenceError,
    NumericalError,
    cli,
    cost_matrices,
    design,
    numkernel,
    preview,
    riccati,
    sample_plant,
)
from mrilqr.discretize import MODES, SampledCost, restrict_input_mode
from mrilqr.preview import closed_loop_G, gamma_and_cost
from mrilqr.numkernel import spectral_radius
from mrilqr.riccati import _solve_stack, design_batch, solve_dare

from conftest import closed_loop_cost_matrix, random_controllable_plant, random_stable_plant, relerr

SOUZA_BASE = 2.0 * np.pi / np.sqrt(23.0)


def riccati_residual(P, A_d, B, Q_d, S, R) -> float:
    """The Riccati residual of one problem: ``riccati._evaluate``'s on a stack of one."""
    _, residual, _, failed = riccati._evaluate(*(np.asarray(X, dtype=float)[None] for X in (P, A_d, B, Q_d, S, R)))
    return float(numkernel._single(residual, failed))


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
        res = riccati_residual(sol.P, d.model.A_d, d.B_sel, d.cost.Q_d, d.S_sel, d.R_sel)
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

    @pytest.mark.parametrize("Q, X0, kernel_dim", [([[1.0, 0.0], [0.0, 0.0]], 0.0, 0), (np.zeros((2, 2)), 1e-12, 2)],
                             ids=["kernel-free", "kernel"])
    def test_last_iterate_is_the_value_iterate_of_its_horizon(self, souza_plant, Q, X0, kernel_dim):
        # k doublings span 2^k Riccati steps, from 0 where Qhat is positive
        # definite (the souza weights) and from 1e-12 I where it has a kernel
        # (Q = 0)
        weights = CostWeights(Q, [[1.0]], [[1.0]])
        model = sample_plant(souza_plant, SOUZA_BASE)
        cost = cost_matrices(souza_plant, weights, SOUZA_BASE)
        B, S, R = restrict_input_mode(model, cost, "regular")
        (*_, kernel_dims), _ = riccati._eliminate_cross_term(*(X[None] for X in (model.A_d, B, cost.Q_d, S, R)))
        assert kernel_dims.tolist() == [kernel_dim]
        with pytest.raises(DareDivergenceError) as err:
            solve_dare(model.A_d, B, cost.Q_d, S, R)
        k = err.value.iterations
        # the hold-only cost grows ~e^{1.3} per step, past 1e12 within 64 steps
        assert 0 < k <= 64 and 2**k <= 64
        A = model.A_d
        P = X0 * np.eye(2)
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

    @pytest.mark.parametrize("change, message", [
        (lambda p: {"A_d": p["A_d"] + [[np.nan, 0.0], [0.0, 0.0]]}, "A_d has non-finite entries"),
        (lambda p: {"Q_d": [[1.0, np.inf], [-np.inf, 1.0]]}, "Q_d has non-finite entries"),
        (lambda p: {"R_sel": [[np.inf]]}, "R_sel has non-finite entries"),
        (lambda p: {"B_sel": np.zeros((2, 0))}, "B_sel must have at least one row and column"),
        (lambda p: {"S_sel": p["S_sel"][None]}, "S_sel must be 2-D, got shape (1, 2, 1)"),
        (lambda p: {"R_sel": [[1.0, 0.0]]}, "R_sel must be square, got shape (1, 2)"),
        (lambda p: {"A_d": p["A_d"][:, :1]}, "A_d has shape (2, 1), expected (2, 2)"),
        (lambda p: {"R_sel": [[1.0, 0.5], [0.0, 1.0]]}, "R_sel is not symmetric"),
        (lambda p: {"R_sel": -p["R_sel"]}, "R_sel is not positive definite"),
        (lambda p: {"B_sel": np.vstack([p["B_sel"], 1.0])}, "B_sel has shape (3, 1), expected (2, 1)"),
        (lambda p: {"Q_d": np.eye(3)}, "Q_d has shape (3, 3), expected (2, 2)"),
        (lambda p: {"S_sel": np.hstack([p["S_sel"]] * 2)}, "S_sel has shape (2, 2), expected (2, 1)"),
        (lambda p: {"R_sel": np.eye(2)}, "R_sel has shape (2, 2), expected (1, 1)"),
        # R_sel is checked first
        (lambda p: {"A_d": p["A_d"] * np.nan, "R_sel": -p["R_sel"]}, "R_sel is not positive definite"),
        (lambda p: {"B_sel": np.ones((3, 1)), "R_sel": [[0.0]]}, "R_sel is not positive definite"),
    ], ids=["A_d-non-finite", "Q_d-non-finite", "R_sel-non-finite", "B_sel-empty", "S_sel-3-D", "R_sel-non-square",
            "A_d-non-square", "R_sel-asymmetric", "R_sel-indefinite", "B_sel-rows", "Q_d-shape", "S_sel-columns",
            "R_sel-shape", "A_d-and-R_sel", "B_sel-and-R_sel"])
    def test_entry_rejects_malformed_matrices(self, souza_plant, souza_weights, change, message):
        # solve_dare is the one entry for hand-made matrices; each rejection
        # is a ValueError with its message, made before any solve (here on
        # the hold-only souza problem, n = 2 and p = 1)
        d = design(souza_plant, souza_weights, 1.0, "regular")
        problem = dict(A_d=d.model.A_d, B_sel=d.B_sel, Q_d=d.cost.Q_d, S_sel=d.S_sel, R_sel=d.R_sel)
        with pytest.raises(ValueError) as err:
            solve_dare(**{**problem, **change(problem)})
        assert (type(err.value), str(err.value)) == (ValueError, message)

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

    def test_an_indefinite_joint_cost_is_refused_before_any_solve(self, monkeypatch):
        # [[Q_d, S], [S', R]] = [[I, 2I], [2I, I]] has the eigenvalue -1:
        # solve_dare raises its ValueError before the stacked solve runs,
        # while the trusted stack reads the same matrices as a numerical failure
        I = np.eye(2)
        problem = (0.5 * I, I, I, 2.0 * I, I)
        stacks = _solve_stack([[X[None] for X in problem]])[0]
        assert type(riccati._cell(stacks, 0)) is NumericalError
        monkeypatch.setattr(riccati, "_solve_stack", lambda groups: pytest.fail("the problem was solved"))
        with pytest.raises(ValueError) as err:
            solve_dare(*problem)
        assert (type(err.value), str(err.value)) == (
            ValueError, "the joint cost [[Q_d, S], [S', R]] is not positive semidefinite (min eig -1.000e+00)")

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


#: Plants with an unstable mode the cost does not see, at their period: the
#: scalar a = 1e-3 and a = 0.02 (B = Btilde = 1, Q = 0) and diag(1e-4, -1)
#: with Q = diag(0, 1). The doubling's step rule stops after one doubling
#: near P = 0, a solution of the equation whose gain does not stabilize.
HIDDEN_UNSTABLE = {
    "a=1e-3": (ContinuousPlant([[1e-3]], [[1.0]], [[1.0]]), CostWeights([[0.0]], [[1.0]], [[1.0]]), 1.0),
    "a=0.02": (ContinuousPlant([[0.02]], [[1.0]], [[1.0]]), CostWeights([[0.0]], [[1.0]], [[1.0]]), 1.0),
    "diag(1e-4,-1)": (ContinuousPlant(np.diag([1e-4, -1.0]), [[1.0], [1.0]], [[1.0], [1.0]]),
                      CostWeights(np.diag([0.0, 1.0]), [[1.0]], [[1.0]]), 0.5),
}


class TestStabilizingClaim:
    """``converged`` also requires a stabilizing gain, rho(A_d + B_sel K) < 1."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", HIDDEN_UNSTABLE)
    def test_a_non_stabilizing_solution_is_not_converged(self, name, mode):
        plant, weights, T = HIDDEN_UNSTABLE[name]
        d = design(plant, weights, T, mode)
        sol = d.solution
        # the residual test alone passes; the closed loop is unstable
        assert sol.residual <= 1e-9 * (1.0 + np.linalg.norm(sol.P, "fro"))
        assert spectral_radius(d.model.A_d + d.B_sel @ sol.K) > 1.0
        assert not sol.converged
        # the stabilizing solution exists: scipy's gain stabilizes
        A_d, B, S, R = d.model.A_d, d.B_sel, d.S_sel, d.R_sel
        P_ref = scipy.linalg.solve_discrete_are(A_d, B, d.cost.Q_d, R, s=S)
        K_ref = -np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A_d + S.T)
        assert spectral_radius(A_d + B @ K_ref) < 1.0
        # the stacked solve of the three modes reads the same
        assert batch_against_solo(plant, weights, [T, 2.0 * T], MODES) == {"not converged": 6}

    def test_a_more_unstable_hidden_mode_still_converges(self):
        # at a = 0.05 the iterate leaves 1e-12 within the step rule and the
        # doubling reaches the stabilizing solution
        plant = ContinuousPlant([[0.05]], [[1.0]], [[1.0]])
        d = design(plant, CostWeights([[0.0]], [[1.0]], [[1.0]]), 1.0, "mri")
        assert d.solution.converged
        assert spectral_radius(d.model.A_d + d.B_sel @ d.solution.K) < 1.0
        P_ref = scipy.linalg.solve_discrete_are(d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
        assert relerr(d.solution.P, P_ref) < 1e-8


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_outcome(got, solve) -> str:
    """Assert ``got``, a stacked cell's solution or error, equals the solution
    ``solve()`` returns bit for bit, or is the error it raises; name the outcome."""
    try:
        ref = solve()
    except (ValueError, NumericalError) as exc:
        assert type(got) is type(exc) and str(got) == str(exc), (got, exc)
        if isinstance(exc, DareDivergenceError):
            assert got.iterations == exc.iterations
            assert same_bits(got.last_iterate, exc.last_iterate)
        return type(exc).__name__
    assert not isinstance(got, Exception), got
    assert same_bits(got.P, ref.P) and same_bits(got.K, ref.K)
    assert same_bits(got.residual, ref.residual)
    assert (got.iterations, got.converged, got.qhat_kernel_dim) == \
        (ref.iterations, ref.converged, ref.qhat_kernel_dim)
    return "converged" if got.converged else "not converged"


def batch_against_solo(plant, weights, periods, mode) -> Counter:
    """Assert each cell of one ``design_batch`` equals its solo ``design`` bit
    for bit, or fails with the same error; count the outcomes.

    ``mode`` is one mode, or a tuple of modes solved as one stack whose
    outcomes are counted together."""
    modes = (mode,) if isinstance(mode, str) else mode
    outcomes = Counter()
    for mode, cells in zip(modes, design_batch(plant, weights, periods, modes), strict=True):
        for T, cell in zip(periods, cells, strict=True):
            if not isinstance(cell, Exception):
                assert (cell.mode, cell.model.T) == (mode, T)
                cell = cell.solution
            outcomes[same_outcome(cell, lambda: design(plant, weights, T, mode).solution)] += 1
    return outcomes


def stack_against_solo(groups) -> Counter:
    """Assert the stacked solve of groups of hand-made (A_d, B_sel, Q_d, S_sel,
    R_sel) stacks gives each problem the bits or the error of its
    ``solve_dare``; count the outcomes. A problem that ``solve_dare``
    refuses with a ValueError is outside the trusted stack's contract: its
    cell must fail with a NumericalError, and counts as "refused"."""
    outcomes = Counter()
    for group, stacks in zip(groups, _solve_stack(groups), strict=True):
        for j in range(len(group[0])):
            got, problem = riccati._cell(stacks, j), [X[j] for X in group]
            try:
                riccati._check_problem(*problem)
            except ValueError:
                assert type(got) is NumericalError, got
                outcomes["refused"] += 1
                continue
            outcomes[same_outcome(got, lambda: solve_dare(*problem))] += 1
    return outcomes


def reference_doubling(A_d, B, Q_d, S, R):
    """The documented doubling as 2-D calls, one problem at a time:
    (last iterate or None when it diverges, doublings). Its iterate starts
    from 1e-12 I where Qhat has a kernel and from 0 elsewhere, and H^{1/2}
    is the upper Cholesky factor of H where Qhat has no kernel (the
    clipped eigh factor where it has one or Cholesky fails)."""
    n = A_d.shape[0]
    RinvBSt = scipy.linalg.cho_solve(scipy.linalg.cho_factor(0.5 * (R + R.T)), np.hstack([B.T, S.T]))
    A = A_d - B @ RinvBSt[:, n:]
    H = Q_d - S @ RinvBSt[:, n:]
    H = 0.5 * (H + H.T)
    G = B @ RinvBSt[:, :n]
    G = 0.5 * (G + G.T)
    blow_up = 1e12 * max(1.0, float(np.linalg.norm(H, "fro")))
    eigs = np.linalg.eigvalsh(H)
    seeded = np.any(np.abs(eigs) <= 1e-10 * (1.0 + np.abs(eigs).max()))

    def value_iterate(A, G, H):
        # from 1e-12 I where Qhat has a kernel, from 0 elsewhere
        if not seeded:
            return H
        P = H + 1e-12 * A.T @ np.linalg.solve(np.eye(n) + 1e-12 * G, A)
        return 0.5 * (P + P.T)

    P = value_iterate(A, G, H)
    def half(H):
        if not seeded:
            try:
                return np.linalg.cholesky(H, upper=True)
            except np.linalg.LinAlgError:
                pass
        w, V = np.linalg.eigh(0.5 * (H + H.T))
        return np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T

    for k in range(1, 65):
        H_half = half(H)
        X = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A, G]))
        L = np.linalg.cholesky(np.eye(n) + H_half @ G @ H_half.T)
        Y = scipy.linalg.solve_triangular(L, H_half @ A, lower=True)
        G_next = G + A @ X[:, n:] @ A.T
        A, G, H = A @ X[:, :n], 0.5 * (G_next + G_next.T), H + Y.T @ Y
        Pn = value_iterate(A, G, H)
        norm = float(np.linalg.norm(Pn, "fro"))
        if not norm <= blow_up:
            return None, k
        step = float(np.linalg.norm(Pn - P, "fro"))
        P = Pn
        if step <= 1e-13 * max(1.0, norm):
            break
    return P, k


def sampled_grid(plant, weights, periods):
    return ([sample_plant(plant, T) for T in periods],
            [cost_matrices(plant, weights, T) for T in periods])


def groups_of(models, costs, modes) -> list:
    """One group of (A_d, B_sel, Q_d, S_sel, R_sel) stacks per mode of ``modes``,
    with the problem of each model and cost, selected one cell at a time."""
    A_d, Q_d = np.stack([model.A_d for model in models]), np.stack([cost.Q_d for cost in costs])
    groups = []
    for mode in modes:
        B_sel, S_sel, R_sel = (np.stack(X) for X in zip(*(restrict_input_mode(model, cost, mode)
                                                           for model, cost in zip(models, costs))))
        groups.append((A_d, B_sel, Q_d, S_sel, R_sel))
    return groups


def souza_grid_periods():
    """The souza sweep grid and the neighbours of k 2 pi / sqrt(23)."""
    near = [k * SOUZA_BASE + d for k in (1, 2, 3)
            for d in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6)]
    return [*(0.2 + 0.05 * np.arange(97)), *near]


def rotation_grid_periods():
    near = [k * np.pi + d for k in (1, 2, 3, 4) for d in (0.0, 1e-7, -1e-7)]
    return [*np.linspace(0.25, 13.0, 52), *near]


ROTATION_WEIGHTS = CostWeights(np.eye(2), [[1.0]], [[1.0]])


def mixed_outcome_groups(souza_plant, souza_weights, modes) -> list:
    """One group per mode of ``modes`` of the souza problems at T = 1, 20, 40, 2
    and 104 (in mri: converging, not converging, Qhat cancelling to roundoff,
    converging, a singular doubling solve), then two hand-made ones: a plant
    without inputs and an indefinite Q_d, which ``solve_dare`` refuses."""
    models, costs = sampled_grid(souza_plant, souza_weights, [1.0, 20.0, 40.0, 2.0, 104.0])
    model, cost = models[0], costs[0]
    # an unstable A_d without inputs is not stabilizable: the doubling diverges
    models.append(dataclasses.replace(model, B_d=0.0 * model.B_d, B_i=0.0 * model.B_i))
    costs.append(cost)
    # an indefinite Q_d is a bad input, outside the trusted stack's contract
    models.append(model)
    costs.append(SampledCost(-np.eye(2), np.zeros_like(cost.S_d), cost.R_d))
    return groups_of(models, costs, modes)


class TestDesignBatch:
    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_souza_grid_and_near_pathological_periods(self, souza_plant, souza_weights, mode):
        outcomes = batch_against_solo(souza_plant, souza_weights, souza_grid_periods(), mode)
        assert outcomes["converged"] > 90
        if mode == "regular":
            # the hold-only design diverges at and next to k 2 pi / sqrt(23)
            assert outcomes["DareDivergenceError"] > 0

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_rotation_grid_across_multiples_of_pi(self, rotation_plant, mode):
        periods = rotation_grid_periods()
        outcomes = batch_against_solo(rotation_plant, ROTATION_WEIGHTS, periods, mode)
        assert outcomes["converged"] > 40
        # both single channels lose controllability at multiples of 2 pi
        if mode != "mri":
            assert outcomes["converged"] < len(periods)

    @pytest.mark.parametrize("mode", ["regular", "impulsive"])
    @pytest.mark.parametrize("T", [np.pi, 2.0 * np.pi, 4.0 * np.pi])
    def test_single_channel_rotation_never_converges_on_the_unit_circle(self, rotation_plant, T, mode):
        # A_d = +-I leaves one channel no control of a mode on the unit
        # circle; the doubling's cost grows without bound there, and a
        # looser divergence bound would stop it at a gain with rho(A_cl)
        # within roundoff of 1 and a residual passing the test
        try:
            assert not design(rotation_plant, ROTATION_WEIGHTS, T, mode).solution.converged
        except NumericalError:
            pass

    def test_lqr_on_the_rotation_at_2_pi_is_a_numerical_failure(self, capsys):
        assert cli.main(["lqr", "--scenario", "rotation", "--mode", "regular", "--T", repr(2.0 * np.pi)]) == 2
        assert "numerical failure: Riccati doubling diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_insulin_periods(self, insulin_plant, insulin_weights, mode):
        assert batch_against_solo(insulin_plant, insulin_weights, [5.0, 10.0, 20.0, 40.0], mode) == {"converged": 4}

    def test_mixed_outcomes_fail_cell_by_cell(self, souza_plant, souza_weights):
        assert stack_against_solo(mixed_outcome_groups(souza_plant, souza_weights, ["mri"])) == {
            "converged": 2, "not converged": 1, "DareDivergenceError": 1,
            "NumericalError": 2, "refused": 1}

    def test_kernel_and_kernel_free_cells_in_one_group(self, souza_plant, souza_weights, monkeypatch):
        # only the cells whose Qhat has a kernel (here Q = 0) start from
        # X0 = 1e-12 I; in one group with kernel-free cells each keeps its
        # solo bits
        periods = [1.0, 2.0, 0.5]
        models, costs = sampled_grid(souza_plant, souza_weights, periods)
        _, zero_costs = sampled_grid(souza_plant, CostWeights(np.zeros((2, 2)), [[1.0]], [[1.0]]), periods)
        groups = groups_of([m for m in models for _ in range(2)],
                           [c for pair in zip(costs, zero_costs) for c in pair], ["mri"])
        *_, kernel_dims, _ = _solve_stack(groups)[0]
        assert kernel_dims.tolist() == [0, 2] * 3
        assert stack_against_solo(groups) == {"converged": 6}
        # a failing seed solve (forced by the seed X0 = -1, which makes
        # I + X0 G = diag(0, 1) singular for G = diag(1, 0)) fails its own
        # cell; the kernel-free cells with the same G make no seed solve
        monkeypatch.setattr(riccati, "_X0", -1.0)
        Q = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
        hand_made = (np.stack([0.5 * np.eye(2)] * 3), np.array([[[1.0], [0.0]]] * 3), Q,
                     np.zeros((3, 2, 1)), np.ones((3, 1, 1)))
        *_, failed = _solve_stack([hand_made])[0]
        assert list(failed) == [1] and isinstance(failed[1], NumericalError)
        assert str(failed[1]).startswith("singular system in the Riccati doubling")
        kernel_free = [tuple(X[::2] for X in groups[0])]
        assert stack_against_solo([hand_made, *kernel_free]) == {"converged": 5, "NumericalError": 1}

    def test_hold_only_failures_in_the_doubling(self, souza_plant, souza_weights):
        # converging, diverging, an indefinite Cholesky factor, converging,
        # a singular solve
        periods = [1.0, SOUZA_BASE, 80.0, 2.0, 100.0]
        assert batch_against_solo(souza_plant, souza_weights, periods, "regular") == {
            "converged": 2, "DareDivergenceError": 1, "NumericalError": 2}

    def test_overflowing_cells_fail_alone(self, souza_plant, souza_weights):
        # at T = 300 the hold-only iterate's residual overflows, and at
        # T = 700 the norm of the impulse-only Qhat does
        outcomes = batch_against_solo(souza_plant, souza_weights, [1.0, 300.0, 2.0], "regular")
        assert outcomes == {"converged": 2, "NumericalError": 1}
        outcomes = batch_against_solo(souza_plant, souza_weights, [1.0, 700.0, 2.0], "impulsive")
        assert outcomes == {"converged": 2, "NumericalError": 1}

    def test_every_grid_as_one_three_mode_stack(
            self, souza_plant, souza_weights, rotation_plant, insulin_plant, insulin_weights):
        # the three modes' cells in one stack, in two input widths and one
        # doubling: each cell still equals its solo design or fails alike, so
        # the stack counts what the three single-mode stacks count
        grids = [(souza_plant, souza_weights, souza_grid_periods()),
                 (rotation_plant, ROTATION_WEIGHTS, rotation_grid_periods()),
                 (insulin_plant, insulin_weights, [5.0, 10.0, 20.0, 40.0]),
                 (souza_plant, souza_weights, [1.0, SOUZA_BASE, 80.0, 2.0, 100.0, 300.0, 700.0])]
        for plant, weights, periods in grids:
            outcomes = batch_against_solo(plant, weights, periods, MODES)
            assert outcomes == sum((batch_against_solo(plant, weights, periods, mode) for mode in MODES), Counter())
            assert outcomes.total() == 3 * len(periods)
        # and the hand-made problems, in one stack and mode by mode
        outcomes = stack_against_solo(mixed_outcome_groups(souza_plant, souza_weights, MODES))
        assert outcomes == sum((stack_against_solo(mixed_outcome_groups(souza_plant, souza_weights, [mode]))
                                for mode in MODES), Counter())
        assert outcomes.total() == 3 * 7

    def test_design_batch_is_the_grid_pipeline(self, souza_plant, souza_weights):
        # design_batch samples, builds the costs and solves every (mode, period)
        # cell in one stack; each cell is design's result at that period
        periods = [0.5, 1.0, SOUZA_BASE, 2.0, 80.0]
        modes = ("mri", "regular")
        batch = design_batch(souza_plant, souza_weights, periods, modes)
        assert [len(cells) for cells in batch] == [len(periods)] * len(modes)
        for mode, cells in zip(modes, batch):
            for T, cell in zip(periods, cells):
                try:
                    solo = design(souza_plant, souza_weights, T, mode)
                except NumericalError as exc:
                    assert type(cell) is type(exc) and str(cell) == str(exc), (T, mode)
                    continue
                assert (cell.mode, cell.model.T) == (mode, T)
                for got, ref in ((cell.cost, solo.cost), (cell.model, solo.model), (cell.solution, solo.solution)):
                    for field in dataclasses.fields(ref):
                        assert same_bits(getattr(got, field.name), getattr(ref, field.name)), (T, mode, field)
        # a cost that overflows raises for the whole grid, naming its first period
        with pytest.raises(NumericalError, match=r"the equivalent cost overflowed at T = 800\.0$"):
            design_batch(souza_plant, souza_weights, [1.0, 800.0, 2.0, 900.0], MODES)


    def test_stacked_doubling_equals_the_two_dimensional_recursion(
            self, souza_plant, souza_weights, insulin_plant, insulin_weights):
        # stacked LAPACK calls, matmuls and norms give each cell the bits of
        # the 2-D calls: the doubling count always matches, and an iterate
        # that passes the residual test is returned unpolished, bit for bit
        grids = [(souza_plant, souza_weights, 0.2 + 0.1 * np.arange(48)),
                 (insulin_plant, insulin_weights, [5.0, 10.0, 20.0, 40.0])]
        unpolished = 0
        for plant, weights, periods in grids:
            for mode in ("regular", "impulsive", "mri"):
                for T in periods:
                    d = design(plant, weights, T, mode)
                    sol, A_d, Q_d = d.solution, d.model.A_d, d.cost.Q_d
                    P, k = reference_doubling(A_d, d.B_sel, Q_d, d.S_sel, d.R_sel)
                    assert P is not None and sol.iterations == k
                    res = riccati_residual(P, A_d, d.B_sel, Q_d, d.S_sel, d.R_sel)
                    if res <= 1e-9 * (1.0 + np.linalg.norm(P, "fro")):
                        assert same_bits(sol.P, P)
                        unpolished += 1
        # 153 of these 156 iterates pass unpolished
        assert unpolished > 140


def seed_solves(monkeypatch) -> list:
    """The number of seeded cells of each ``_iterate`` call, as they happen."""
    sizes = []
    iterate = riccati._iterate
    monkeypatch.setattr(riccati, "_iterate", lambda A, G, H, kernel, I:
                        sizes.append(int(kernel.sum())) or iterate(A, G, H, kernel, I))
    return sizes


def test_a_failed_elimination_cell_is_zeros_and_leaves_the_others(souza_plant, souza_weights):
    # an indefinite Q_d, outside the trusted stack's contract, fails its cell
    # alone with a NumericalError: the cell's Ahat, G and Qhat are zeros, and
    # every other cell keeps the bits it has when none fails
    models, costs = sampled_grid(souza_plant, souza_weights, [0.5, 1.0, 1.5])
    groups = groups_of(models, costs, ["mri"])[0]
    bad = [X.copy() for X in groups]
    bad[2][1] = -np.eye(2)
    good, none_failed = riccati._eliminate_cross_term(*groups)
    got, failed = riccati._eliminate_cross_term(*bad)
    assert not none_failed and list(failed) == [1] and type(failed[1]) is NumericalError
    # (Ahat, G, Qhat, Qhat kernel dimension)
    assert not any(X[1].any() for X in got[:3])
    for X, Y in zip(got, good):
        assert same_bits(X[[0, 2]], Y[[0, 2]])


def test_a_failed_qhat_eigenvalue_solve_is_a_numerical_failure(souza_plant, souza_weights, monkeypatch, capsys):
    # a failing LAPACK eigenvalue solve of Qhat fails its cell with a
    # NumericalError, not with numpy's LinAlgError, a ValueError that the
    # CLI would report as an input error
    eigvalsh = np.linalg.eigvalsh

    def failing(M):
        # the stacked Qhat fails, but not the weight checks' 2-D matrices, nor
        # the identity that replaces a failed cell
        if M.ndim == 3 and (M != np.eye(M.shape[-1])).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NumericalError) as err:
        design(souza_plant, souza_weights, 1.0, "mri")
    message = "the eigenvalues of Q_d - S R^{-1} S' failed: Eigenvalues did not converge"
    assert (type(err.value), str(err.value)) == (NumericalError, message)
    assert cli.main(["lqr", "--scenario", "souza"]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


class TestSeedOnlyWhereQhatHasAKernel:
    def test_the_souza_sweep_makes_no_seed_solve(self, tmp_path, monkeypatch):
        sizes = seed_solves(monkeypatch)
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "0.2:0.05:5", "--mode", "all",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert sizes and not any(sizes)

    def test_an_insulin_design_seeds_every_doubling(self, insulin_plant, insulin_weights, monkeypatch):
        sizes = seed_solves(monkeypatch)
        sol = design(insulin_plant, insulin_weights, 20.0, "mri").solution
        assert sol.qhat_kernel_dim > 0
        # one seed solve for the first iterate, then one after each doubling
        assert sizes == [1] * (sol.iterations + 1)


def factor_calls(monkeypatch) -> Counter:
    """The doubling's factorizations of H_k as they happen: "cholesky" counts
    the cells of each upper Cholesky call, "eigh" each ``eigh`` call made
    inside ``_doubling`` (the polish's factor is outside it)."""
    calls, inside = Counter(), []
    cholesky, eigh, doubling = riccati._upper_cholesky, np.linalg.eigh, riccati._doubling

    def upper_cholesky(H):
        calls["cholesky"] += len(H)
        return cholesky(H)

    def spy_eigh(M, *args, **kwargs):
        if inside:
            calls["eigh"] += 1
        return eigh(M, *args, **kwargs)

    def spy_doubling(*args):
        inside.append(True)
        try:
            return doubling(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(riccati, "_upper_cholesky", upper_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(riccati, "_doubling", spy_doubling)
    return calls


class TestCholeskyWhereQhatIsDefinite:
    def test_the_souza_sweep_factors_by_cholesky_alone(self, tmp_path, monkeypatch):
        calls = factor_calls(monkeypatch)
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "0.2:0.05:5", "--mode", "all",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert calls["cholesky"] > 0 and calls["eigh"] == 0

    def test_an_insulin_design_factors_by_eigh_alone(self, insulin_plant, insulin_weights, monkeypatch):
        calls = factor_calls(monkeypatch)
        sol = design(insulin_plant, insulin_weights, 20.0, "mri").solution
        assert sol.qhat_kernel_dim > 0
        assert calls == {"eigh": sol.iterations}

    def test_a_definite_cell_without_a_cholesky_factor_takes_the_eigh_factor(self):
        # H = diag(1, 0) has no Cholesky factor (its second pivot is 0); the
        # cell not marked as having a kernel takes the clipped eigh factor
        # instead of failing, and the other cell of its stack, whose Cholesky
        # and eigh factors differ, keeps its Cholesky factor; the caller's
        # mask is left as it was
        H = np.stack([np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 0.0])])
        I = np.eye(2)
        cholesky, eigh = np.linalg.cholesky(H[0], upper=True), numkernel._psd_factor(H[:1])[0]
        assert not same_bits(cholesky, eigh)
        for kernel in ([False, False], [False, True]):
            mask = np.array(kernel)
            F = riccati._cost_factor(H, mask, I)
            assert mask.tolist() == kernel
            assert same_bits(F[0], cholesky)
            assert same_bits(F[1], numkernel._psd_factor(H[1:])[0])
        A = np.stack([0.5 * np.eye(2)] * 2)
        G = np.stack([np.diag([1.0, 0.5])] * 2)
        got = riccati._doubling_step(A, G, H, I, np.array([False, False]))
        assert got[3] == {}
        for j in range(2):
            solo = riccati._doubling_step(A[j:j + 1], G[j:j + 1], H[j:j + 1], I, np.array([False]))
            for X, Y in zip(got[:3], solo[:3]):
                assert same_bits(X[j], Y[0])


def post_solve_against_solo(plant, weights, periods, mode, b, horizons=(0, 1, 3)) -> Counter:
    """``batch_against_solo``, then the stacked closed loop and the preview
    costs of every design of the batch, one feedforward recursion to the
    longest horizon, against ``design`` followed by the 2-D ``closed_loop_G``
    and one ``gamma_and_cost`` per horizon: G and Jstar bit for bit, or the
    same first error. Counts the outcomes of both."""
    outcomes = batch_against_solo(plant, weights, periods, mode)
    designs = [d for d in design_batch(plant, weights, periods, [mode])[0] if not isinstance(d, Exception)]
    G, Jstar, failed = preview.preview_costs(designs, b, horizons)
    for j, d in enumerate(designs):
        solo = design(plant, weights, d.model.T, mode)
        P = solo.solution.P
        try:
            G_solo = closed_loop_G(solo.model.A_d, solo.B_sel, solo.S_sel, solo.R_sel, P)
            J_solo = [gamma_and_cost(P, G_solo, solo.B_sel, solo.R_sel, b, N)[1] for N in horizons]
        except NumericalError as exc:
            assert type(failed[j]) is type(exc) and str(failed[j]) == str(exc), (d.model.T, exc)
            outcomes[f"preview: {str(exc).split(' by ')[0].split(':')[0]}"] += 1
            continue
        assert j not in failed, (d.model.T, failed.get(j))
        assert same_bits(G[j], G_solo) and same_bits(Jstar[j], J_solo), d.model.T
        outcomes["previewed"] += 1
    return outcomes


class TestStackedPostSolve:
    """The stacked cross-term elimination, residual test, gain, closed loop and
    preview cost give each cell the bits of its solo design and 2-D preview."""

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_souza_grid_and_near_pathological_periods(self, souza_plant, souza_weights, mode):
        near = [k * SOUZA_BASE + d for k in (1, 2, 3)
                for d in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6)]
        periods = [*(0.2 + 0.05 * np.arange(97)), *near]
        outcomes = post_solve_against_solo(souza_plant, souza_weights, periods, mode,
                                           souza_plant.Btilde[:, 0], (0, 1, 3, 10))
        assert outcomes["previewed"] > 90

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_rotation_grid_across_multiples_of_pi(self, rotation_plant, mode):
        weights = CostWeights(np.eye(2), [[1.0]], [[1.0]])
        near = [k * np.pi + d for k in (1, 2, 3, 4) for d in (0.0, 1e-7, -1e-7)]
        periods = [*np.linspace(0.25, 13.0, 52), *near]
        assert post_solve_against_solo(rotation_plant, weights, periods, mode,
                                       rotation_plant.Btilde[:, 0])["previewed"] > 40

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_insulin_periods(self, insulin_plant, insulin_weights, mode):
        outcomes = post_solve_against_solo(insulin_plant, insulin_weights, [5.0, 10.0, 20.0, 40.0], mode,
                                           insulin_plant.Btilde[:, 0], (0, 1, 3, 10))
        assert outcomes == {"converged": 4, "previewed": 4}

    @pytest.mark.parametrize("mode", ["regular", "impulsive", "mri"])
    def test_random_plant_with_two_inputs(self, mode):
        # m = 2: the closed loop and preview costs of multi-input gains
        # (four input columns in mri mode)
        rng = np.random.default_rng(23)
        plant = random_controllable_plant(rng, 3, 2)
        C = rng.normal(size=(3, 3))
        weights = CostWeights(C.T @ C, np.diag([0.5, 2.0]), np.diag([1.5, 0.3]))
        outcomes = post_solve_against_solo(plant, weights, np.linspace(0.1, 6.0, 24), mode,
                                           plant.Btilde[:, 0], (0, 1, 2, 5))
        assert outcomes["previewed"] == 24

    def test_mixed_failures_in_one_stack(self, souza_plant, souza_weights):
        # hold-only: converging, diverging, a singular I + B R^-1 B' P in the
        # closed loop (T = 50), an unconverged design whose R + B'PB still
        # factors (T = 55), converging
        periods = [1.0, SOUZA_BASE, 50.0, 55.0, 2.0]
        outcomes = post_solve_against_solo(souza_plant, souza_weights, periods, "regular", souza_plant.Btilde[:, 0])
        assert outcomes == {
            "converged": 2, "not converged": 2, "DareDivergenceError": 1,
            "previewed": 3, "preview: singular I + B R^{-1} B' P": 1}
        # the same problems and a hand-made indefinite Q_d, which solve_dare refuses
        models, costs = sampled_grid(souza_plant, souza_weights, periods)
        models.append(models[0])
        costs.append(SampledCost(-np.eye(2), np.zeros_like(costs[0].S_d), costs[0].R_d))
        assert stack_against_solo(groups_of(models, costs, ["regular"])) == {
            "converged": 2, "not converged": 2, "DareDivergenceError": 1, "refused": 1}
        # mri: closed-loop forms that disagree, and a Qhat cancelling to roundoff
        outcomes = post_solve_against_solo(souza_plant, souza_weights, [1.0, 25.0, 40.0, 2.0], "mri",
                                           souza_plant.Btilde[:, 0])
        assert outcomes == {"converged": 2, "not converged": 1, "NumericalError": 1,
                            "previewed": 2, "preview: closed-loop forms disagree": 1}


class TestPolishOnDemand:
    def test_insulin_polishes_only_iterates_missing_the_residual_test(
            self, insulin_plant, insulin_weights, monkeypatch):
        # the residual test runs on the stack's one evaluation, and only the
        # polish evaluates again, once per policy-iteration round: no second
        # evaluation means the returned P is the doubling iterate itself
        evaluations = []
        evaluate = riccati._evaluate
        monkeypatch.setattr(riccati, "_evaluate", lambda *args: evaluations.append(1) or evaluate(*args))
        polished = 0
        for T in (5.0, 10.0, 20.0, 40.0):
            for mode in ("regular", "impulsive", "mri"):
                evaluations.clear()
                d = design(insulin_plant, insulin_weights, T, mode)
                polished += len(evaluations) > 1
                sol = d.solution
                np.linalg.cholesky(sol.P)
                assert sol.converged
                assert sol.residual == riccati_residual(sol.P, d.model.A_d, d.B_sel, d.cost.Q_d,
                                                        d.S_sel, d.R_sel)
        # 3 of the 12 iterates miss the test and are polished to convergence
        assert 0 < polished < 12

    def test_one_factorization_of_R_plus_BPB_per_cell_and_polish_round(
            self, insulin_plant, insulin_weights, souza_plant, souza_weights, monkeypatch):
        # the gain, residual and closed loop of each iterate come from one
        # Cholesky factorization of R + B'PB: one per cell of the stack, one
        # per polish round (each evaluates one new P, a stack of one)
        factorizations, stacks = Counter(), []
        cho_solve = numkernel._cho_solve
        monkeypatch.setattr(numkernel, "_cho_solve",
                            lambda A, rhs, what: factorizations.update([what]) or cho_solve(A, rhs, what))
        assert design(souza_plant, souza_weights, 1.0, "mri").solution.converged
        assert factorizations["R + B'PB"] == 1
        factorizations.clear()
        evaluate = riccati._evaluate
        monkeypatch.setattr(riccati, "_evaluate", lambda P, *rest: stacks.append(len(P)) or evaluate(P, *rest))
        periods = [5.0, 10.0, 20.0, 40.0]
        design_batch(insulin_plant, insulin_weights, periods, MODES)
        # one stack per input width: regular and impulsive together, mri alone
        rounds = stacks.count(1)
        assert [size for size in stacks if size > 1] == [2 * len(periods), len(periods)] and rounds > 0
        assert sum(stacks) == len(MODES) * len(periods) + rounds
        assert factorizations["R + B'PB"] == len(MODES) * len(periods) + rounds


class TestFalseConvergenceClaims:
    """Cells that claim ``converged=True`` without a stabilizing solution of
    their equation. Each is pinned as a strict xfail: it starts to pass, and
    so fails the suite, once the solver stops making the claim."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 12 and 9: Q_d - S R^-1 S' cancels to exactly 0 from ||Q_d||_F of 8e32 (T = 76.25) "
        "and 4e39 (T = 91.75), while the exact Qhat has norm 2.8e3 and 3.4e3; the doubling stops "
        "at P = 0 after 2 doublings and the residual test passes"))
    @pytest.mark.parametrize("T", [76.25, 91.75])
    def test_souza_mri_at_a_long_period_claims_no_zero_cost(self, souza_plant, souza_weights, T):
        sol = design(souza_plant, souza_weights, T, "mri").solution
        assert not sol.converged or sol.P.any()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: A = 1, B = 1, Q = 0 has no stabilizing solution (P = 0 leaves the unit-circle "
        "mode in place), but the iterate stays at the seed X0 = 1e-12 I, whose gain -1e-12 gives "
        "rho = 1 - 1e-12 < 1"))
    def test_a_unit_circle_mode_the_cost_misses_is_not_converged(self):
        assert not solve_dare([[1.0]], [[1.0]], [[0.0]], [[0.0]], [[1.0]]).converged

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 15 and 9: at T = 1e-6 the insulin impulsive and mri designs claim convergence "
        "with P 2.3e-3 and 2.8e-3 off (relative Frobenius) scipy's solution of the same equation; the "
        "residual test passes them (regular mode is 3.6e-7 off there)"))
    @pytest.mark.parametrize("mode", ["impulsive", "mri"])
    def test_insulin_at_a_small_period_converges_to_the_solution(self, insulin_plant, insulin_weights, mode):
        d = design(insulin_plant, insulin_weights, 1e-6, mode)
        P = scipy.linalg.solve_discrete_are(d.model.A_d, d.B_sel, d.cost.Q_d, d.R_sel, s=d.S_sel)
        assert not d.solution.converged or relerr(d.solution.P, P) <= 1e-6
