"""Sampled model and discrete-equivalent cost against closed forms and quadrature."""

import warnings

import numpy as np
import pytest

from mrilqr import (
    ContinuousPlant,
    CostWeights,
    NumericalError,
    cost_matrices,
    sample_plant,
    sample_plants,
)
from mrilqr.discretize import _cost_stack, restrict_input_mode

from conftest import quadrature_cost_matrices, random_stable_plant, relerr


class TestTypes:
    def test_plant_validates_shapes(self):
        with pytest.raises(ValueError):
            ContinuousPlant(A=[[0.0, 1.0]], B=[[1.0]])
        with pytest.raises(ValueError):
            ContinuousPlant(A=np.eye(2), B=np.eye(3))

    def test_plant_defaults_disturbance_to_zero_column(self):
        p = ContinuousPlant(np.eye(2), np.eye(2))
        assert p.Btilde.shape == (2, 1)
        assert np.all(p.Btilde == 0.0)

    def test_weights_reject_asymmetric_q(self):
        with pytest.raises(ValueError):
            CostWeights(Q=[[1.0, 0.5], [0.0, 1.0]], Rc=[[1.0]], Ri=[[1.0]])

    def test_weights_reject_indefinite_q(self):
        with pytest.raises(ValueError):
            CostWeights(Q=[[-1.0]], Rc=[[1.0]], Ri=[[1.0]])

    def test_weights_near_the_float_maximum_are_stored_as_given(self):
        # symmetrized as halves, so Ri + Ri' does not overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = CostWeights(Q=[[1.0]], Rc=[[1.7e308, 1e308], [1e308, 1.7e308]], Ri=[[1e308, 0.0], [0.0, 1.0]])
        assert w.Rc.tolist() == [[1.7e308, 1e308], [1e308, 1.7e308]]
        assert w.Ri.tolist() == [[1e308, 0.0], [0.0, 1.0]]

    def test_weights_reject_semidefinite_r(self):
        with pytest.raises(ValueError):
            CostWeights(Q=[[1.0]], Rc=[[0.0]], Ri=[[1.0]])

    @pytest.mark.parametrize("build, message", [
        (lambda: ContinuousPlant(np.eye(2), [[0.0], [1.0]], Btilde=[[1.0]]),
         r"Btilde has 1 rows, expected 2"),
        (lambda: CostWeights(Q=[[1.0]], Rc=[[1.0]], Ri=np.eye(2)),
         r"Rc \(1, 1\) and Ri \(2, 2\) must have equal shape"),
        (lambda: cost_matrices(ContinuousPlant(np.eye(2), [[0.0], [1.0]]),
                               CostWeights(Q=np.eye(2), Rc=np.eye(2), Ri=np.eye(2)), 1.0),
         r"Rc has shape \(2, 2\), expected \(1, 1\)"),
    ], ids=["Btilde-rows", "Rc-Ri-shapes", "Rc-vs-inputs"])
    def test_mismatched_shapes_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestEntryChecks:
    """The exponential and Gram kernels trust their arguments; the plant,
    the weights and the period checks at the sampling entries reject what
    they no longer check."""

    @pytest.mark.parametrize("build, message", [
        (lambda: ContinuousPlant(np.zeros((2, 3)), np.zeros((2, 1))), r"A must be square, got \(2, 3\)"),
        (lambda: ContinuousPlant([[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 1))), "A has non-finite entries"),
        (lambda: ContinuousPlant(np.eye(2), np.ones((3, 1))), "B has 3 rows, expected 2"),
        (lambda: ContinuousPlant(np.eye(2), [[np.inf], [1.0]]), "B has non-finite entries"),
        (lambda: cost_matrices(ContinuousPlant(np.eye(2), np.ones((2, 1))),
                               CostWeights(np.eye(3), [[1.0]], [[1.0]]), 1.0),
         r"Q has shape \(3, 3\), expected \(2, 2\)"),
    ], ids=["A-non-square", "A-non-finite", "B-rows", "B-non-finite", "Q-vs-states"])
    def test_malformed_data_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("T, message", [
        (0.0, "sampling period must exceed 1e-12, got 0.0"),
        (-1.0, "sampling period must exceed 1e-12, got -1.0"),
        (np.nan, "sampling period must exceed 1e-12, got nan"),
        # an infinite period is an input fault, not an overflow of the model or the cost
        (np.inf, "sampling period must be finite, got inf"),
    ])
    @pytest.mark.parametrize("entry", [
        lambda p, w, T: sample_plant(p, T),
        lambda p, w, T: sample_plants(p, [1.0, T, 2.0]),
        lambda p, w, T: cost_matrices(p, w, T),
        lambda p, w, T: _cost_stack(p, w, [1.0, T, 2.0]),
    ], ids=["sample_plant", "sample_plants", "cost_matrices", "cost_stack"])
    def test_periods_are_checked_where_they_enter(self, souza_plant, souza_weights, entry, T, message):
        with pytest.raises(ValueError, match=message):
            entry(souza_plant, souza_weights, T)


class TestSamplePlant:
    def test_scalar_integrator(self):
        m = sample_plant(ContinuousPlant([[0.0]], [[1.0]]), 1.0)
        assert abs(m.A_d[0, 0] - 1.0) < 1e-15
        assert abs(m.B_d[0, 0] - 1.0) < 1e-15
        assert abs(m.B_i[0, 0] - 1.0) < 1e-15

    def test_souza_closed_forms_at_base_period(self, souza_plant):
        T = 2.0 * np.pi / np.sqrt(23.0)
        m = sample_plant(souza_plant, T)
        c = np.exp(np.pi / np.sqrt(23.0))
        assert relerr(m.A_d, -c * np.eye(2)) < 1e-12
        assert relerr(m.B_d, np.array([[(1.0 + c) / 6.0], [0.0]])) < 1e-12
        assert relerr(m.B_i, np.array([[0.0], [-c]])) < 1e-12

    def test_rotation_full_turn(self, rotation_plant):
        m = sample_plant(rotation_plant, 2.0 * np.pi)
        assert relerr(m.A_d, np.eye(2)) < 1e-12
        assert np.abs(m.B_d).max() < 1e-12
        assert relerr(m.B_i, rotation_plant.B) < 1e-12

    def test_impulse_map_is_transition_times_b(self, souza_plant):
        m = sample_plant(souza_plant, 0.7)
        assert relerr(m.B_i, m.A_d @ souza_plant.B) < 1e-14

    def test_semigroup_in_period(self, souza_plant):
        m1 = sample_plant(souza_plant, 0.6)
        m2 = sample_plant(souza_plant, 1.2)
        assert relerr(m2.A_d, m1.A_d @ m1.A_d) < 1e-10

    def test_hold_map_matches_inverse_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_stable_plant(rng, 4, 2)
            T = rng.uniform(0.2, 2.0)
            m = sample_plant(p, T)
            expected = np.linalg.solve(p.A, (m.A_d - np.eye(4)) @ p.B)
            assert relerr(m.B_d, expected) < 1e-10

    def test_rejects_tiny_period(self, souza_plant):
        with pytest.raises(ValueError):
            sample_plant(souza_plant, 0.0)
        with pytest.raises(ValueError):
            sample_plant(souza_plant, 1e-13)

    def test_overflow_is_a_numerical_error(self, souza_plant, souza_weights):
        # the Gram integral grows like e^(2 Re(lambda) T), the model like e^(Re(lambda) T)
        sample_plant(souza_plant, 800.0)
        with pytest.raises(NumericalError, match="equivalent cost"):
            cost_matrices(souza_plant, souza_weights, 800.0)
        with pytest.raises(NumericalError, match="sampled model"):
            sample_plant(souza_plant, 1500.0)

    def test_a_period_grid_names_its_first_overflowing_period(self, souza_plant, souza_weights):
        # in grid order, not the longest or the shortest overflowing period
        with pytest.raises(NumericalError, match=r"the sampled model overflowed at T = 1600\.0$"):
            sample_plants(souza_plant, [1.0, 1600.0, 2.0, 1500.0])
        with pytest.raises(NumericalError, match=r"the equivalent cost overflowed at T = 900\.0$"):
            _cost_stack(souza_plant, souza_weights, [1.0, 900.0, 2.0, 800.0])


class TestCostMatrices:
    def test_scalar_integrator_closed_form(self):
        plant = ContinuousPlant([[0.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]], [[1.0]])
        for T in (0.3, 1.0, 2.5):
            c = cost_matrices(plant, w, T)
            assert abs(c.Q_d[0, 0] - T) < 1e-12
            assert relerr(c.S_d, [[T * T / 2.0, T]]) < 1e-12
            expected_R = np.array([[T**3 / 3.0 + T, T * T / 2.0], [T * T / 2.0, 1.0 + T]])
            assert relerr(c.R_d, expected_R) < 1e-12

    def test_zero_state_weight(self, souza_plant):
        w = CostWeights(np.zeros((2, 2)), [[2.0]], [[3.0]])
        c = cost_matrices(souza_plant, w, 1.7)
        assert np.all(c.Q_d == 0.0)
        assert np.all(c.S_d == 0.0)
        assert relerr(c.R_d, np.diag([1.7 * 2.0, 3.0])) < 1e-14

    def test_period_grid_equals_single_periods(self, souza_plant, souza_weights):
        # one stacked Gram integral over periods taking 0 to 6 doublings gives
        # each period's cost bit for bit, in the memory order of a single period
        rng = np.random.default_rng(22)
        plant = random_stable_plant(rng, 3, 2)
        C = rng.normal(size=(3, 3))
        weights = CostWeights(C.T @ C, np.diag([0.5, 2.0]), np.diag([1.5, 0.3]))
        for p, w in ((souza_plant, souza_weights), (plant, weights)):
            periods = [0.05, 0.3, 1.0, 2.5, 7.0, 13.0]
            stacks = _cost_stack(p, w, periods)
            for i, T in enumerate(periods):
                ref = cost_matrices(p, w, T)
                for name, stack in zip(("Q_d", "S_d", "R_d"), stacks, strict=True):
                    a, b = stack[i], getattr(ref, name)
                    assert a.tobytes() == b.tobytes() and a.strides == b.strides, (T, name)

    def test_souza_against_quadrature(self, souza_plant, souza_weights):
        c = cost_matrices(souza_plant, souza_weights, 1.0)
        Qo, So, Ro = quadrature_cost_matrices(souza_plant, souza_weights, 1.0)
        assert relerr(c.Q_d, Qo) < 1e-9
        assert relerr(c.S_d, So) < 1e-9
        assert relerr(c.R_d, Ro) < 1e-9

    def test_random_plants_against_quadrature(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            p = random_stable_plant(rng, n, m)
            C = rng.normal(size=(rng.integers(1, n + 1), n))
            Rc = rng.normal(size=(m, m))
            Ri = rng.normal(size=(m, m))
            w = CostWeights(C.T @ C, Rc @ Rc.T + np.eye(m), Ri @ Ri.T + np.eye(m))
            T = rng.uniform(0.1, 3.0)
            c = cost_matrices(p, w, T)
            Qo, So, Ro = quadrature_cost_matrices(p, w, T)
            got = np.block([[c.Q_d, c.S_d], [c.S_d.T, c.R_d]])
            want = np.block([[Qo, So], [So.T, Ro]])
            assert relerr(got, want) < 1e-8

    def test_gram_structure_is_psd(self, souza_plant, souza_weights):
        c = cost_matrices(souza_plant, souza_weights, 2.0)
        m = souza_plant.m
        R_gram = c.R_d - np.diag([2.0 * souza_weights.Rc[0, 0], souza_weights.Ri[0, 0]])
        G = np.block([[c.Q_d, c.S_d], [c.S_d.T, R_gram]])
        w = np.linalg.eigvalsh(G)
        assert w[0] > -1e-10 * (1.0 + abs(w[-1]))

    def test_qd_monotone_in_period(self, souza_plant, souza_weights):
        periods = [0.3, 0.8, 1.5, 2.4, 4.0]
        prev = None
        for T in periods:
            Q_d = cost_matrices(souza_plant, souza_weights, T).Q_d
            if prev is not None:
                w = np.linalg.eigvalsh(Q_d - prev)
                assert w[0] > -1e-10 * (1.0 + abs(w[-1]))
            prev = Q_d

    def test_an_overflowing_input_block_raises(self):
        # T Rc = 1e310 is not a double: R_d overflows after the Gram integral,
        # and the builder says so, without a RuntimeWarning
        plant = ContinuousPlant([[-1.0]], [[1.0]])
        with pytest.raises(NumericalError, match=r"^the equivalent cost overflowed at T = 10000000000\.0$"):
            cost_matrices(plant, CostWeights([[1.0]], [[1e300]], [[1.0]]), 1e10)

    def test_a_representable_input_block_is_kept(self):
        # Ri = 1e308 is a double and so is R_d, which the symmetric Gram block
        # plus the symmetric weights make exactly symmetric without a halving
        plant = ContinuousPlant([[-1.0]], [[1.0]])
        _, _, (R_d,) = _cost_stack(plant, CostWeights([[1.0]], [[1.0]], [[1e308]]), [1.0])
        assert np.isfinite(R_d).all() and np.array_equal(R_d, R_d.T)
        assert R_d[1, 1] == 1e308

    def test_dimension_mismatch_raises(self, souza_plant):
        w = CostWeights(np.eye(3), [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            cost_matrices(souza_plant, w, 1.0)


class TestRestrictInputMode:
    @pytest.fixture
    def integrator_parts(self):
        plant = ContinuousPlant([[0.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]], [[1.0]])
        T = 1.0
        return sample_plant(plant, T), cost_matrices(plant, w, T), T

    def test_mri_keeps_both_channels(self, integrator_parts):
        model, cost, _ = integrator_parts
        B_sel, S_sel, R_sel = restrict_input_mode(model, cost, "mri")
        assert B_sel.shape == (1, 2)
        assert S_sel.shape == (1, 2)
        assert R_sel.shape == (2, 2)

    def test_regular_slice(self, integrator_parts):
        model, cost, T = integrator_parts
        B_sel, S_sel, R_sel = restrict_input_mode(model, cost, "regular")
        assert abs(R_sel[0, 0] - (T**3 / 3.0 + T)) < 1e-12
        assert relerr(B_sel, model.B_d) < 1e-15
        assert abs(S_sel[0, 0] - T * T / 2.0) < 1e-12

    def test_impulsive_slice(self, integrator_parts):
        model, cost, T = integrator_parts
        B_sel, S_sel, R_sel = restrict_input_mode(model, cost, "impulsive")
        assert abs(R_sel[0, 0] - (1.0 + T)) < 1e-12
        assert abs(S_sel[0, 0] - T) < 1e-12
        assert relerr(B_sel, model.B_i) < 1e-15

    def test_unknown_mode_raises(self, integrator_parts):
        model, cost, _ = integrator_parts
        with pytest.raises(ValueError):
            restrict_input_mode(model, cost, "hybrid")
