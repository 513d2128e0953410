"""The sampled model, cost, Qhat, P and K against an extended-precision reference.

``conftest.mp_reference`` evaluates the package's block exponentials in
mpmath at 60 digits, and solves each mode's Riccati equation there by
doubling; every test here skips, saying why, when mpmath is not installed.
"""

import functools

import numpy as np
import pytest

from mrilqr import cli, cost_matrices, design, riccati, sample_plant
from mrilqr.discretize import MODES, restrict_input_mode

from conftest import mp_reference, relerr

#: (scenario, period) cells: short and long periods of the unstable souza
#: plant (e^{AT} reaches e^{49} at T = 98.2), of the rotation near and away
#: from multiples of 2 pi, and of the slow insulin plant
CELLS = [*(("souza", T) for T in (0.5, 1.3, 5.0, 20.0, 50.0, 60.0, 98.2)),
         *(("rotation", T) for T in (0.5, np.pi, 37.7, 67.95)),
         *(("insulin", T) for T in (1.0, 20.0, 60.0))]


@functools.cache
def reference(name: str, T: float, solve: bool = False):
    """The scenario's plant and weights, and its reference at T (with each
    mode's P where ``solve``)."""
    scenario = cli.load_scenario(name)
    plant, weights = scenario.plant(), scenario.weights()
    return plant, weights, mp_reference(plant, weights, T, solve=solve)


@pytest.mark.parametrize("name, T", CELLS, ids=[f"{name}-{T:g}" for name, T in CELLS])
def test_model_and_cost_agree_with_the_reference(name, T):
    # within 1e-10 normwise relative, block by block; the largest gaps seen
    # are 3.7e-11 (rotation Atilde at T = 37.7, where its norm is 1.3e-3)
    # and 4.1e-11 (insulin S_d at T = 1)
    plant, weights, ref = reference(name, T)
    model, cost = sample_plant(plant, T), cost_matrices(plant, weights, T)
    for block, got in (("A_d", model.A_d), ("Atilde", model.Atilde), ("B_d", model.B_d), ("B_i", model.B_i),
                       ("Q_d", cost.Q_d), ("S_d", cost.S_d), ("R_d", cost.R_d)):
        assert relerr(got, ref[block]) <= 1e-10, block


@pytest.mark.parametrize("T", [
    20.0,
    *(pytest.param(T, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 12: Q_d - S R^-1 S' cancels from ||Q_d||_F of 3.3e21 (T = 50) and 5.5e25 (T = 60) to the "
        "exact Qhat of norm 1.8e3 and 2.2e3; the subtraction keeps nothing of it (relative errors 2.8e2 "
        "and 3.9e6), and no error is raised")))
      for T in (50.0, 60.0)),
])
def test_souza_mri_qhat_by_subtraction(T):
    # the elimination's Qhat of a cell that does not fail is within 1e-10 of
    # the reference's (7.8e-11 at T = 20)
    plant, weights, ref = reference("souza", T)
    model, cost = sample_plant(plant, T), cost_matrices(plant, weights, T)
    B, S, R = restrict_input_mode(model, cost, "mri")
    (_, _, Qhat, _), failed = riccati._eliminate_cross_term(*(X[None] for X in (model.A_d, B, cost.Q_d, S, R)))
    assert not failed
    assert relerr(Qhat[0], ref["Qhat mri"]) <= 1e-10


#: (scenario, period) cells whose Riccati equations the reference solves: each
#: mode has a stabilizing solution that the doubling reaches from 0
SOLVED = [*(("souza", T) for T in (0.5, 1.3, 5.0, 20.0)), ("rotation", 0.5), ("rotation", 37.7),
          ("insulin", 1.0), ("insulin", 20.0)]
solved_cells = pytest.mark.parametrize("name, T, mode", [(name, T, mode) for name, T in SOLVED for mode in MODES],
                                       ids=[f"{name}-{T:g}-{mode}" for name, T in SOLVED for mode in MODES])


@solved_cells
def test_P_agrees_with_the_reference(name, T, mode):
    # within 1e-8 normwise relative; the largest gap seen is 2.4e-9 (insulin
    # impulsive at T = 1), souza and rotation at T <= 5 stay within 3.2e-13,
    # rotation at T = 37.7 within 9.3e-11 and souza at T = 20 within 3.4e-10
    plant, weights, ref = reference(name, T, solve=True)
    solution = design(plant, weights, T, mode).solution
    assert relerr(solution.P, ref[f"P {mode}"]) <= 1e-8
    if (name, T) != ("souza", 20.0):
        assert solution.converged


@solved_cells
def test_K_agrees_with_the_reference(name, T, mode):
    # within 1e-8 normwise relative; the largest gaps seen are on insulin at
    # T = 1 (2.1e-9 to 6.2e-9, mri the worst), every other cell stays within
    # 5.9e-10 (insulin regular at T = 20)
    plant, weights, ref = reference(name, T, solve=True)
    assert relerr(design(plant, weights, T, mode).solution.K, ref[f"K {mode}"]) <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: P is within 3.4e-10 of the reference (test_P_agrees_with_the_reference), but the "
    "residual test's 1 + ||P||_F scale misses the ||A_d'PA_d|| ~ e^{20} ||P|| terms, so it reads "
    "converged=false"))
@pytest.mark.parametrize("mode", MODES)
def test_souza_at_T_20_reads_converged(mode):
    plant, weights, _ = reference("souza", 20.0)
    assert design(plant, weights, 20.0, mode).solution.converged
