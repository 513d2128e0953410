"""Closed-loop trajectory generation and exact cost accumulation.

Everything between sampling instants is propagated through matrix
exponentials, never through ODE stepping: within one interval the state
response to a constant input is exact, and the running integral of
x' Q x over each sub-segment is an exact Gram integral of the augmented
constant-input system. The continuous cost and the discrete-equivalent
cost are therefore two independently computed quantities whose match is
limited only by matrix-exponential accuracy.

The maps from an interval's start (state, free input, hold input) to
every sub-segment end are composed once per run as one stack; each step
then takes all its dense states, Gram increments and running costs from
that stack in a few array operations (see ``_run``).

Impulses can be applied exactly (state jump at the interval start) or
as a constant hold over the leading fraction epsilon of the interval,
which reproduces hardware that cannot deliver true impulses; the two
agree to first order in epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .discretize import (MODES, ContinuousPlant, CostWeights, _check_count, _check_period, constant_input_gram, cost_matrices,
                         input_channels)
from .errors import SimulationDivergence

__all__ = [
    "InputPolicy",
    "DisturbanceSpec",
    "Trajectory",
    "simulate_closed_loop",
    "simulate_inputs",
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
    """Breakpoints of one sampling interval: substep grid plus the hold cut."""
    cuts = [j * T / substeps for j in range(substeps + 1)]
    if alpha is not None and all(abs(alpha - c) > 1e-15 * T for c in cuts):
        cuts.append(alpha)
        cuts.sort()
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        segments.append((b, b - a, alpha is not None and mid < alpha))
    return segments


def _interval_maps(plant: ContinuousPlant, weights: CostWeights, segments):
    """Maps from one interval's start to its segment ends, and each segment's Gram form.

    ``Phi[j]`` (n x (n + 2m)) takes xi = [y; u_free; u_hold], the state at
    the interval start and the two segment inputs, to the state at the end
    of segment j. It is composed segment by segment from the propagators
    of the distinct segment lengths: Phi[j] = A_dd Phi[j-1] + B_dd times the
    selector of the segment's input. ``H[j]`` is the Gram form of segment
    j in (segment start state, segment input), from one stacked call of
    ``constant_input_gram`` over the distinct lengths.
    """
    n, m = plant.n, plant.m
    distinct = sorted({d for _, d, _ in segments})
    A_dd, _, B_dd = numkernel.expm_block_integrals(plant.A, plant.B, distinct)
    grams = constant_input_gram(plant, weights.Q, distinct)
    Phi = np.empty((len(segments), n, n + 2 * m))
    prev = np.eye(n, n + 2 * m)
    for j, (_, d, within_hold) in enumerate(segments):
        i = distinct.index(d)
        Phi[j] = A_dd[i] @ prev
        cols = slice(n + m, n + 2 * m) if within_hold else slice(n, n + m)
        Phi[j][:, cols] += B_dd[i]
        prev = Phi[j]
    return Phi, grams[[distinct.index(d) for _, d, _ in segments]]


def _hold_length(T: float, epsilon: float) -> float:
    """The hold length epsilon T of the impulse approximation, for a checked period."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"approx mode needs epsilon in (0, 1), got {epsilon}")
    return epsilon * T


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
    u_hold = u_c + u_i/alpha to the state at each of the S segment ends,
    and stacks each segment's Gram form (see ``_interval_maps``). Per step
    it asks ``inputs_fn(k, x)`` for the inputs and adds the
    discrete-equivalent cost and the impulse penalty; then one product
    gives all S dense states, one stacked quadratic form all S Gram
    increments [x_{j-1}; u_j]' H_j [x_{j-1}; u_j] (plus the hold penalty
    d_j u_c' Rc u_c), and one sequential cumsum seeded with J_cont the
    running cost. The step's end state is its last dense row. Dense rows
    are kept in per-step blocks and joined once at the end.
    """
    _check_count(steps, "steps", 1)
    _check_count(substeps, "substeps", 1)
    T = _check_period(T)
    alpha = None if epsilon is None else _hold_length(T, epsilon)

    n, m = plant.n, plant.m
    B = plant.B
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"x0 has size {x.size}, expected {n}")
    if disturbance is not None and disturbance.direction.size != n:
        raise ValueError(f"disturbance direction has size {disturbance.direction.size}, expected {n}")
    if disturbance is not None and disturbance.impulse_step > steps:
        raise ValueError(f"disturbance impulse_step must be <= steps = {steps}, got {disturbance.impulse_step}")

    segments = _interval_segments(T, substeps, alpha)
    S = len(segments)
    t_ends = np.array([t_end for t_end, _, _ in segments])
    lengths = np.array([d for _, d, _ in segments])
    hold = np.array([within_hold for _, _, within_hold in segments])
    Phi, H = _interval_maps(plant, weights, segments)
    Phi_flat = Phi.reshape(S * n, n + 2 * m)

    sc = cost_matrices(plant, weights, T)

    # dense rows in per-step blocks of (times, states, impulse flags, J_cont)
    blocks: list[tuple] = [(np.zeros(1), x[None].copy(), np.zeros(1, dtype=int), np.zeros(1))]
    sample_states = []
    ucs, uis = [], []
    xi = np.zeros(n + 2 * m)
    # [segment start state; segment input] of each segment
    Z = np.empty((S, n + m))
    no_flags = np.zeros(S, dtype=int)
    running = np.empty(S + 1)
    J_cont = 0.0
    J_disc = 0.0

    def jump_row(t, state, cost):
        blocks.append((np.array([t]), state[None], np.ones(1, dtype=int), np.array([cost])))

    # overflow on a diverging loop is reported through the finiteness
    # check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        # the pass k == steps only applies a disturbance due at the final sample
        for k in range(steps + 1):
            t_k = k * T
            if disturbance is not None and k == disturbance.impulse_step:
                x = x + disturbance.direction
                jump_row(t_k, x, J_cont)
            sample_states.append(x)
            if k == steps:
                break

            u_c, u_i = inputs_fn(k, x)
            u_c = np.asarray(u_c, dtype=float).reshape(-1)
            u_i = np.asarray(u_i, dtype=float).reshape(-1)
            ucs.append(u_c)
            uis.append(u_i)

            v = np.concatenate([u_c, u_i])
            J_disc += float(x @ sc.Q_d @ x + 2.0 * x @ sc.S_d @ v + v @ sc.R_d @ v)

            # Impulse penalty is a per-instant sum in both impulse modes.
            J_cont += float(u_i @ weights.Ri @ u_i)
            if alpha is None:
                y = x + B @ u_i
                if np.any(u_i != 0.0):
                    jump_row(t_k, y, J_cont)
            else:
                y = x

            # outside the hold window the impulse part is 0.0, and
            # u_c + 0.0 reads any -0.0 of u_c as 0.0
            xi[:n] = y
            xi[n : n + m] = u_c + 0.0
            if alpha is not None:
                xi[n + m :] = u_c + u_i / alpha
            X = (Phi_flat @ xi).reshape(S, n)

            Z[0, :n] = y
            Z[1:, :n] = X[:-1]
            Z[:, n:] = np.where(hold[:, None], xi[n + m :], xi[n : n + m])
            quad = (Z[:, None, :] @ H @ Z[:, :, None])[:, 0, 0]
            running[0] = J_cont
            running[1:] = quad + lengths * float(u_c @ weights.Rc @ u_c)
            np.cumsum(running, out=running)
            J_cont = float(running[-1])
            blocks.append((t_k + t_ends, X, no_flags, running[1:].copy()))

            x = X[-1]
            if not np.all(np.isfinite(x)):
                raise SimulationDivergence(f"state diverged at step {k}", step=k)

    times, states, flags, costs = (np.concatenate(part) for part in zip(*blocks))
    return Trajectory(
        sample_states=np.array(sample_states),
        u_c=np.array(ucs),
        u_i=np.array(uis),
        dense_times=times,
        dense_states=states,
        dense_impulse_flags=flags,
        dense_running_cost=costs,
        J_cont=J_cont,
        J_disc=J_disc,
    )


def _policy_inputs(policy: InputPolicy, plant: ContinuousPlant):
    m = plant.m
    channels = input_channels(policy.mode, m)
    expected = (channels.stop - channels.start, plant.n)
    if policy.K.shape != expected:
        raise ValueError(f"policy gain has shape {policy.K.shape}, expected {expected}")

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
    input over the leading epsilon fraction of the interval.
    """
    inputs_fn = _policy_inputs(policy, plant)
    return _run(plant, weights, T, inputs_fn, x0, steps, substeps, epsilon, disturbance)


def simulate_inputs(
    plant: ContinuousPlant,
    weights: CostWeights,
    T: float,
    u_c_seq,
    u_i_seq,
    x0=None,
    substeps: int = 32,
    disturbance: DisturbanceSpec | None = None,
    epsilon: float | None = None,
) -> Trajectory:
    """Open-loop run driven by explicit per-step input sequences; epsilon as
    in ``simulate_closed_loop``."""
    u_c_seq = np.atleast_2d(np.asarray(u_c_seq, dtype=float))
    u_i_seq = np.atleast_2d(np.asarray(u_i_seq, dtype=float))
    if u_c_seq.shape != u_i_seq.shape:
        raise ValueError("hold and impulse input sequences must have equal shapes")

    def fn(k, _x):
        return u_c_seq[k], u_i_seq[k]

    return _run(plant, weights, T, fn, x0, u_c_seq.shape[0], substeps, epsilon, disturbance)


def impulse_hold_matrix(plant: ContinuousPlant, T: float, epsilon: float) -> np.ndarray:
    """Sampled input map of the constant-hold impulse approximation.

    Equals (1/a) int_0^a e^{A(T-t)} dt B with a = epsilon T, evaluated
    exactly as e^{A(T-a)} times the running integral over [0, a], both from
    one stacked exponential. As epsilon -> 0 it converges (first order) to
    the exact impulse map e^{AT} B.
    """
    T = _check_period(T)
    alpha = _hold_length(T, epsilon)
    E, Atilde, _ = numkernel.expm_block_integrals(plant.A, plant.B, [alpha, T - alpha])
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
