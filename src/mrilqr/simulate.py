"""Closed-loop trajectory generation and exact cost accumulation.

Everything between sampling instants is propagated through matrix
exponentials, never through ODE stepping: within one interval the state
response to a constant input is exact, and the running integral of
x' Q x over each sub-segment is an exact Gram integral of the augmented
constant-input system. The continuous cost and the discrete-equivalent
cost are therefore two independently computed quantities whose match is
limited only by matrix-exponential accuracy.

The maps from an interval's start (state, free input, hold input) to
every sub-segment end are composed once per run as one stack, so a step
is one product that gives all its dense states and its end state. The
costs and the dense rows are not built per step: after the loop, stacked
forms over all steps give every cost term, and one sequential cumsum the
running cost (see ``_run``).

Impulses can be applied exactly (state jump at the interval start) or
as a constant hold over the leading fraction epsilon of the interval,
which reproduces hardware that cannot deliver true impulses; the two
agree to first order in epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .discretize import (MODES, ContinuousPlant, CostWeights, _check_count, _check_period, _gram_costs, constant_input_gram,
                         input_channels)
from .errors import SimulationDivergence

__all__ = [
    "InputPolicy",
    "DisturbanceSpec",
    "Trajectory",
    "simulate_closed_loop",
    "impulse_hold_matrix",
    "certified_horizon",
]

@dataclass(frozen=True)
class InputPolicy:
    """State-feedback gain plus an optional preview feedforward tail.

    K has m rows for the single-channel modes and 2m rows (hold rows
    first) for mri. feedforward entries, when present, are added to K x
    for the leading steps; saturate_nonnegative clips both emitted input
    components at zero, mirroring actuators that cannot go negative.
    """

    K: np.ndarray
    mode: str = "mri"
    feedforward: tuple[np.ndarray, ...] = ()
    saturate_nonnegative: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown policy mode {self.mode!r}")
        object.__setattr__(self, "K", numkernel.as_matrix(self.K, "K"))
        object.__setattr__(
            self,
            "feedforward",
            tuple(np.asarray(f, dtype=float).reshape(-1) for f in self.feedforward),
        )


@dataclass(frozen=True)
class DisturbanceSpec:
    """State jump of ``direction`` applied at sample index impulse_step, an
    integer from 0 to the run's steps; direction has the plant's n entries."""

    impulse_step: int
    direction: np.ndarray

    def __post_init__(self):
        _check_count(self.impulse_step, "impulse_step", 0)
        d = np.asarray(self.direction, dtype=float).reshape(-1)
        if not np.all(np.isfinite(d)):
            raise ValueError("disturbance direction has non-finite entries")
        object.__setattr__(self, "direction", d)


@dataclass
class Trajectory:
    """Sampled and dense closed-loop response with both cost tallies.

    sample_states holds x_0..x_K for the K simulated sampling intervals,
    in the convention used by the input law: at the disturbance step the
    stored state is the post-jump one. Dense rows duplicate the time
    stamp at jumps (pre and post state) and flag rows at which an impulse
    acted on the state.
    """

    sample_states: np.ndarray
    u_c: np.ndarray
    u_i: np.ndarray
    dense_times: np.ndarray
    dense_states: np.ndarray
    dense_impulse_flags: np.ndarray
    dense_running_cost: np.ndarray
    J_cont: float
    J_disc: float


def _interval_segments(T: float, substeps: int, alpha: float | None):
    """Segments of one sampling interval, cut at the substep grid j T / substeps
    and at the hold cut: their end times, lengths and hold mask as arrays.

    The grid is allocated before it is filled, so a count numpy cannot hold
    fails here; np.arange would return an empty range past the int64 range.
    """
    cuts = np.empty(substeps + 1)
    np.multiply(np.arange(cuts.size), T, out=cuts)
    cuts /= substeps
    if alpha is not None and (np.abs(alpha - cuts) > 1e-15 * T).all():
        # the hold cut equals no grid cut: the grid in order with it inserted
        cuts = np.concatenate([cuts[cuts < alpha], [alpha], cuts[cuts > alpha]])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    hold = mids < alpha if alpha is not None else np.zeros(mids.size, dtype=bool)
    return cuts[1:], np.diff(cuts), hold


def _interval_maps(plant: ContinuousPlant, weights: CostWeights, lengths, hold, T: float):
    """Maps from one interval's start to its segment ends, each segment's Gram
    form, and the (Q_d, S_d, R_d) of the whole interval.

    ``Phi[j]`` (n x (n + 2m)) takes xi = [y; u_free; u_hold], the state at
    the interval start and the two segment inputs, to the state at the end
    of segment j. It is composed segment by segment from the propagators
    of the distinct segment lengths: Phi[j] = A_dd Phi[j-1] + B_dd times the
    selector of the segment's input. ``H[j]`` is the Gram form of segment
    j in (segment start state, segment input). One stacked call of
    ``constant_input_gram`` over the distinct lengths and T gives every form;
    the last is reduced to the cost with the bits of ``cost_matrices``.
    """
    n, m = plant.n, plant.m
    distinct = sorted(set(lengths.tolist()))
    which = [distinct.index(d) for d in lengths.tolist()]
    A_dd, Atilde = numkernel.expm_block_integrals(plant.A, distinct)
    B_dd = Atilde @ plant.B
    grams = constant_input_gram(plant, weights.Q, [*distinct, T])
    Phi = np.empty((lengths.size, n, n + 2 * m))
    prev = np.eye(n, n + 2 * m)
    for j, (i, within_hold) in enumerate(zip(which, hold.tolist())):
        Phi[j] = A_dd[i] @ prev
        cols = slice(n + m, n + 2 * m) if within_hold else slice(n, n + m)
        Phi[j][:, cols] += B_dd[i]
        prev = Phi[j]
    cost = tuple(X[0] for X in _gram_costs(plant, weights, grams[-1:], [T]))
    return Phi, grams[which], cost


def _hold_length(T: float, epsilon: float) -> float:
    """The hold length epsilon T of the impulse approximation, for a checked period."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"approx mode needs epsilon in (0, 1), got {epsilon}")
    return epsilon * T


def _forms(x, M, y):
    """x' M y for each row pair of the stacks x and y: per pair the vector-matrix
    product then the dot, the BLAS calls (and bits) of ``x @ M @ y``."""
    return (x[..., None, :] @ M @ y[..., :, None])[..., 0, 0]


def _run(
    plant: ContinuousPlant,
    weights: CostWeights,
    T: float,
    inputs_fn,
    x0,
    steps: int,
    substeps: int,
    epsilon: float | None,
    disturbance: DisturbanceSpec | None,
) -> Trajectory:
    """Step loop behind every simulation.

    Once per run it composes the maps ``Phi`` (S x n x (n + 2m)) from an
    interval's start state y, free input u_free = u_c and hold input
    u_hold = u_c + u_i/alpha to the state at each of the S segment ends
    (see ``_interval_maps``). A step then carries only the recurrence: the
    disturbance jump, ``inputs_fn(k, x)``, the impulse jump y = x + B u_i,
    xi = [y; u_free; u_hold] and one product Phi xi, whose S rows are the
    dense states and whose last row is the next state.

    After the loop, stacked forms over all steps give the discrete-equivalent
    cost terms (summed in step order into J_disc), the impulse and hold
    penalties, and the Gram increments [x_{j-1}; u_j]' H_j [x_{j-1}; u_j] of
    every step and segment. One sequential cumsum of them, in the order
    they accrue and seeded with 0.0, gives J_cont and every running cost,
    and the jump rows are inserted among the segment rows by index.
    """
    _check_count(steps, "steps", 1)
    _check_count(substeps, "substeps", 1)
    T = _check_period(T)
    alpha = None if epsilon is None else _hold_length(T, epsilon)

    n, m = plant.n, plant.m
    x0 = x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"x0 has size {x.size}, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError("x0 has non-finite entries")
    if disturbance is not None and disturbance.direction.size != n:
        raise ValueError(f"disturbance direction has size {disturbance.direction.size}, expected {n}")
    if disturbance is not None and disturbance.impulse_step > steps:
        raise ValueError(f"disturbance impulse_step must be <= steps = {steps}, got {disturbance.impulse_step}")
    jump_step = None if disturbance is None else disturbance.impulse_step

    t_ends, lengths, hold = _interval_segments(T, substeps, alpha)
    S = lengths.size
    Phi, H, (Q_d, S_d, R_d) = _interval_maps(plant, weights, lengths, hold, T)
    Phi_flat = Phi.reshape(S * n, n + 2 * m)

    # sample states x_0..x_K (post-jump), inputs [u_c, u_i], xi of every step,
    # and the S dense states of every step
    X = np.empty((steps + 1, n))
    V = np.empty((steps, 2 * m))
    XI = np.zeros((steps, n + 2 * m))
    D = np.empty((steps, S * n))

    # overflow on a diverging loop is reported through the finiteness
    # check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if k == jump_step:
                x = x + disturbance.direction
            X[k] = x
            u_c, u_i = inputs_fn(k, x)
            V[k, :m] = u_c
            V[k, m:] = u_i
            xi = XI[k]
            if alpha is None:
                np.add(x, plant.B @ u_i, out=xi[:n])
            else:
                xi[:n] = x
                xi[n + m :] = u_c + u_i / alpha
            # outside the hold window the impulse part is 0.0, and
            # u_c + 0.0 reads any -0.0 of u_c as 0.0
            np.add(u_c, 0.0, out=xi[n : n + m])
            np.matmul(Phi_flat, xi, out=D[k])
            x = D[k, -n:]
        # a disturbance due at the final sample lands on the final state
        X[steps] = x + disturbance.direction if jump_step == steps else x

        finite = np.isfinite(D[:, -n:]).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise SimulationDivergence(f"state diverged at step {k}", step=k)

        U_c, U_i = V[:, :m], V[:, m:]
        terms = _forms(X[:-1], Q_d, X[:-1]) + _forms(2.0 * X[:-1], S_d, V) + _forms(V, R_d, V)
        # [segment start state; segment input] of every step and segment
        Z = np.empty((steps, S, n + m))
        Z[:, 0, :n] = XI[:, :n]
        Z[:, 1:, :n] = D.reshape(steps, S, n)[:, :-1]
        Z[:, :, n:] = np.where(hold[:, None], XI[:, None, n + m :], XI[:, None, n : n + m])
        # per step the impulse penalty, then each segment's Gram increment and hold penalty
        accrued = np.empty((steps, S + 1))
        accrued[:, 0] = _forms(U_i, weights.Ri, U_i)
        accrued[:, 1:] = _forms(Z, H, Z) + lengths * _forms(U_c, weights.Rc, U_c)[:, None]
        running = np.cumsum(np.concatenate([[0.0], accrued.ravel()]))

    J_disc = 0.0
    for term in terms.tolist():
        J_disc += term

    # the jump rows go before the segment rows of their step, and np.insert
    # keeps the given order at one index: x0, the disturbance jump, the
    # impulse jumps, each with the cost so far
    jumps = np.array([] if jump_step is None else [jump_step], dtype=int)
    kicks = np.flatnonzero((U_i != 0.0).any(axis=1)) if alpha is None else jumps[:0]
    at = np.concatenate([[0], jumps * S, kicks * S])
    t_k = np.arange(steps + 1) * T
    return Trajectory(
        sample_states=X,
        u_c=U_c.copy(),
        u_i=U_i.copy(),
        dense_times=np.insert((t_k[:-1, None] + t_ends).ravel(), at, np.concatenate([[0.0], t_k[jumps], t_k[kicks]])),
        dense_states=np.insert(D.reshape(-1, n), at, np.concatenate([x0[None], X[jumps], XI[kicks, :n]]), axis=0),
        dense_impulse_flags=np.insert(np.zeros(steps * S, dtype=int), at, [0] + [1] * (at.size - 1)),
        dense_running_cost=np.insert(running[1:].reshape(steps, S + 1)[:, 1:].ravel(), at, np.concatenate(
            [[0.0], running[jumps * (S + 1)], running[kicks * (S + 1) + 1]])),
        J_cont=float(running[-1]),
        J_disc=J_disc,
    )


def _policy_inputs(policy: InputPolicy, plant: ContinuousPlant):
    m = plant.m
    channels = input_channels(policy.mode, m)
    width = channels.stop - channels.start
    if policy.K.shape != (width, plant.n):
        raise ValueError(f"policy gain has shape {policy.K.shape}, expected {(width, plant.n)}")
    for k, f in enumerate(policy.feedforward):
        if f.size != width or not np.isfinite(f).all():
            raise ValueError(f"feedforward entry {k} must hold {width} finite numbers, got {f.tolist()}")

    def fn(k: int, x: np.ndarray):
        v = np.zeros(2 * m)
        v[channels] = policy.K @ x
        if k < len(policy.feedforward):
            v[channels] += policy.feedforward[k]
        u_c, u_i = v[:m], v[m:]
        if policy.saturate_nonnegative:
            u_c = np.maximum(u_c, 0.0)
            u_i = np.maximum(u_i, 0.0)
        return u_c, u_i

    return fn


def simulate_closed_loop(
    plant: ContinuousPlant,
    weights: CostWeights,
    T: float,
    policy: InputPolicy,
    disturbance: DisturbanceSpec | None = None,
    steps: int = 100,
    substeps: int = 32,
    epsilon: float | None = None,
    x0=None,
) -> Trajectory:
    """Run the sampled feedback loop for ``steps`` intervals.

    The disturbance jump is applied at its sample index before that
    step's input is computed, so the feedback acts on the post-jump
    state. With epsilon None the control impulse jumps the state at the
    interval start; with epsilon in (0, 1) it is spread as a constant
    input over the leading epsilon fraction of the interval. An open-loop
    run is the zero 2m x n gain in mode mri with one feedforward row
    [u_c, u_i] per step and ``steps`` the number of rows.
    """
    inputs_fn = _policy_inputs(policy, plant)
    return _run(plant, weights, T, inputs_fn, x0, steps, substeps, epsilon, disturbance)


def impulse_hold_matrix(plant: ContinuousPlant, T: float, epsilon: float) -> np.ndarray:
    """Sampled input map of the constant-hold impulse approximation.

    Equals (1/a) int_0^a e^{A(T-t)} dt B with a = epsilon T, evaluated
    exactly as e^{A(T-a)} times the running integral over [0, a], both from
    one stacked exponential. As epsilon -> 0 it converges (first order) to
    the exact impulse map e^{AT} B.
    """
    T = _check_period(T)
    alpha = _hold_length(T, epsilon)
    E, Atilde = numkernel.expm_block_integrals(plant.A, [alpha, T - alpha])
    return E[1] @ Atilde[0] @ plant.B / alpha


def certified_horizon(A_cl, cost_scale: float, tol: float = 1e-10, cap: int = 100_000) -> int:
    """Steps K with rho(A_cl)^{2K} * cost_scale below tol, capped at 10^5; rho = 0
    gives the limit rho -> 0+, which the least positive double already reaches."""
    rho = numkernel.spectral_radius(numkernel._square(A_cl))
    if not (rho < 1.0):
        return cap
    scale = max(abs(cost_scale), 1.0)
    K = int(np.ceil(np.log(tol / scale) / (2.0 * np.log(max(rho, 5e-324))))) + 5
    return int(min(max(K, 1), cap))
