"""Sampled-data model and discrete-equivalent cost for mixed inputs.

A continuous-time LTI plant xdot = A x + B u is driven by an input made
of two components per sampling interval [kT, (k+1)T): a zero-order-hold
term u_c held constant, and an impulsive term u_i applied as a Dirac
weight at the sampling instant (a state jump x <- x + B u_i). The exact
sampled model is

    x_{k+1} = A_d x_k + B_d u_{c,k} + B_i u_{i,k}
    A_d = e^{AT},  Atilde = int_0^T e^{As} ds,  B_d = Atilde B,  B_i = A_d B

and the continuous quadratic cost with weights (Q, Rc, Ri) equals, along
sampled trajectories, the discrete sum

    sum_k  x_k' Q_d x_k + 2 x_k' S_d v_k + v_k' R_d v_k,   v_k = [u_c; u_i]

whose matrices are exact integrals of the intra-sample response. All
integrals here are evaluated through block matrix exponentials, so the
only error source is the matrix exponential itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel
from .errors import NumericalError
from .numkernel import _sym, as_matrix

__all__ = [
    "ContinuousPlant",
    "CostWeights",
    "SampledModel",
    "SampledCost",
    "sample_plant",
    "cost_matrices",
    "restrict_input_mode",
    "input_channels",
    "constant_input_gram",
    "MODES",
]

MODES = ("regular", "impulsive", "mri")

#: Sampling periods below this are rejected rather than extrapolated.
MIN_PERIOD = 1e-12


@dataclass(frozen=True)
class ContinuousPlant:
    """Continuous-time LTI plant with a disturbance input channel.

    A is n x n (state), B is n x m (control), Btilde is n x r and maps
    impulsive disturbances into the state. Btilde defaults to a single
    zero column when the scenario has no disturbance.
    """

    A: np.ndarray
    B: np.ndarray
    Btilde: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        Bt = self.Btilde
        Bt = np.zeros((A.shape[0], 1)) if Bt is None else as_matrix(Bt, "Btilde")
        if Bt.shape[0] != A.shape[0]:
            raise ValueError(f"Btilde has {Bt.shape[0]} rows, expected {A.shape[0]}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Btilde", Bt)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.Btilde.shape[1]


@dataclass(frozen=True)
class CostWeights:
    """Quadratic weights: Q psd on the state, Rc and Ri pd on the inputs."""

    Q: np.ndarray
    Rc: np.ndarray
    Ri: np.ndarray

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q")
        Rc = as_matrix(self.Rc, "Rc")
        Ri = as_matrix(self.Ri, "Ri")
        numkernel.check_psd(Q, "Q")
        numkernel.check_pd(Rc, "Rc")
        numkernel.check_pd(Ri, "Ri")
        if Rc.shape != Ri.shape:
            raise ValueError(f"Rc {Rc.shape} and Ri {Ri.shape} must have equal shape")
        object.__setattr__(self, "Q", Q)
        # halves first, so a weight near the float maximum does not overflow
        object.__setattr__(self, "Rc", 0.5 * Rc + 0.5 * Rc.T)
        object.__setattr__(self, "Ri", 0.5 * Ri + 0.5 * Ri.T)


@dataclass(frozen=True)
class SampledModel:
    """Exact discretization at period T; B_i = A_d B by construction."""

    T: float
    A_d: np.ndarray
    Atilde: np.ndarray
    B_d: np.ndarray
    B_i: np.ndarray


@dataclass(frozen=True)
class SampledCost:
    """Discrete-equivalent cost blocks: Q_d (n x n), S_d (n x 2m), R_d (2m x 2m)."""

    Q_d: np.ndarray
    S_d: np.ndarray
    R_d: np.ndarray


def _check_period(T: float) -> float:
    T = float(T)
    if not (T > MIN_PERIOD):
        raise ValueError(f"sampling period must exceed {MIN_PERIOD}, got {T}")
    if T == np.inf:
        raise ValueError(f"sampling period must be finite, got {T}")
    return T


def _check_count(k, name: str, least: int) -> None:
    """The one rule of step counts, sample indices and horizons: a Python or
    numpy integer, never a bool, of at least ``least``; else a ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")


def _sample_stack(plant: ContinuousPlant, periods) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checked periods and the (A_d, Atilde, B_d, B_i) stacks of the plant
    sampled at each, from one stacked exponential; raises NumericalError,
    naming the first period in order whose exponentials overflow."""
    Ts = [_check_period(T) for T in periods]
    with np.errstate(over="ignore", invalid="ignore"):
        A_d, Atilde, B_d = numkernel.expm_block_integrals(plant.A, plant.B, Ts)
        B_i = A_d @ plant.B
    finite = np.logical_and.reduce([np.isfinite(M).all(axis=(1, 2)) for M in (A_d, Atilde, B_d, B_i)])
    if not finite.all():
        raise NumericalError(f"the sampled model overflowed at T = {Ts[int(np.argmin(finite))]!r}")
    return Ts, A_d, Atilde, B_d, B_i


def sample_plant(plant: ContinuousPlant, T: float) -> SampledModel:
    """Exact ZOH + impulse discretization of the plant at period T: the one
    cell of ``_sample_stack``, whose NumericalError it raises."""
    (T,), *stacks = _sample_stack(plant, [T])
    return SampledModel(T, *(X[0] for X in stacks))


def constant_input_gram(plant: ContinuousPlant, Q: np.ndarray, h) -> np.ndarray:
    """State cost of the response to a constant input, as a form in (x, u),
    over one hold length h or each of a 1-D array of them.

    With the augmented generator E = [[A, B], [0, 0]], e^{Es} maps the
    start (x, u) of a hold to (x(s), u), so

        int_0^h x(s)' Q x(s) ds = [x; u]' H [x; u],
        H = int_0^h e^{E's} diag(Q, 0) e^{Es} ds.
    """
    n, m = plant.n, plant.m
    E = np.zeros((n + m, n + m))
    E[:n, :n] = plant.A
    E[:n, n:] = plant.B
    Qbar = np.zeros((n + m, n + m))
    Qbar[:n, :n] = Q
    return numkernel.expm_gram_integral(E, Qbar, h)


def _cost_stack(plant: ContinuousPlant, weights: CostWeights, periods) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (Q_d, S_d, R_d) stacks of ``cost_matrices`` at each period, from one
    stacked Gram integral reduced by ``_gram_costs``."""
    Ts = [_check_period(T) for T in periods]
    if weights.Q.shape[0] != plant.n:
        raise ValueError(f"Q has shape {weights.Q.shape}, expected ({plant.n}, {plant.n})")
    if weights.Rc.shape[0] != plant.m:
        raise ValueError(f"Rc has shape {weights.Rc.shape}, expected ({plant.m}, {plant.m})")
    return _gram_costs(plant, weights, constant_input_gram(plant, weights.Q, np.array(Ts)), Ts)


def _gram_costs(plant: ContinuousPlant, weights: CostWeights, H: np.ndarray, Ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (Q_d, S_d, R_d) stacks at the checked periods Ts from their
    ``constant_input_gram`` stack H; raises NumericalError naming the first
    period in order whose cost overflows."""
    n, m = plant.n, plant.m
    # Columns of [e^{As}, int_0^s e^{At} dt B, e^{As} B] as images of e^{Es}.
    L = np.zeros((n + m, n + 2 * m))
    L[:n, :n] = np.eye(n)
    L[n:, n : n + m] = np.eye(m)
    L[:n, n + m :] = plant.B
    with np.errstate(over="ignore", invalid="ignore"):
        G = _sym(L.T @ H @ L)
        R_d = G[:, n:, n:].copy()  # exactly symmetric, and stays so with the symmetric weights added
        R_d[:, :m, :m] += np.array(Ts)[:, None, None] * weights.Rc
        R_d[:, m:, m:] += weights.Ri
    finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(R_d).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"the equivalent cost overflowed at T = {Ts[int(np.argmin(finite))]!r}")
    return G[:, :n, :n], G[:, :n, n:], R_d


def cost_matrices(plant: ContinuousPlant, weights: CostWeights, T: float) -> SampledCost:
    """Exact discrete-equivalent cost matrices over one sampling interval.

    The intra-sample state response to a constant u_c and an initial
    impulse u_i is x(s) = e^{As} x + [int_0^s e^{At} dt B, e^{As} B] v,
    v = [u_c; u_i]. The three response maps are linear images of the
    augmented constant-input response, so one Gram integral of size
    2(n+m) (``constant_input_gram``) yields Q_d, S_d and R_d jointly:

        G = L' H L

    where L stacks the constant selectors of [e^{As}, int e B, e^{As} B].
    The quadratic input penalties contribute the additive block
    diag(T Rc, Ri) to R_d. Raises NumericalError when the Gram integral
    or R_d overflows. This is the stacked builder of a period grid on one period.
    """
    return SampledCost(*(X[0] for X in _cost_stack(plant, weights, [T])))


def input_channels(mode: str, m: int) -> slice:
    """Entries of the mixed input v = [u_c; u_i] that a mode drives.

    The same slice selects the columns of [B_d B_i] and S_d and the
    rows and columns of R_d: mri keeps both channels, regular the hold
    channel (first m) and impulsive the impulse channel (last m).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return slice(m if mode == "impulsive" else 0, m if mode == "regular" else 2 * m)


def _select_inputs(mode: str, B_d, B_i, S_d, R_d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B_sel, S_sel, R_sel) of one mode, from one model and cost or from stacks
    of them, as contiguous copies: the last bits of the Riccati solution
    follow the memory layout of B_sel. See ``input_channels``."""
    ch = input_channels(mode, B_d.shape[-1])
    return np.concatenate([B_d, B_i], axis=-1)[..., ch].copy(), S_d[..., ch].copy(), R_d[..., ch, ch].copy()


def restrict_input_mode(model: SampledModel, cost: SampledCost, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B_sel, S_sel, R_sel) of one controller variant; see ``_select_inputs``."""
    return _select_inputs(mode, model.B_d, model.B_i, cost.S_d, cost.R_d)
