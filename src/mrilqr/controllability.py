"""Controllability diagnosis for the sampled models.

Sampling a controllable continuous pair (A, B) can destroy
controllability at special ("pathological") periods T. For every input
mode controllability only has to be checked at eigenvalues of A that
collide under the exponential map, i.e. at mu in sigma(A) having a
partner gamma != mu with equal real part and (mu - gamma) T in
2 i pi Z. For every such mu the stacked matrix

    [ A_d' - e^{mu T} I ]
    [   (Atilde B)'     ]
    [        B'         ]

keeps the rows of the mode's channels (``input_channels``: the hold row
block, the impulse row block or both) and must have a trivial kernel.
The impulse channel may test B' in place of B_i' = B' A_d': on the
kernel of A_d' - e^{mu T} I the two differ by the factor e^{mu T} != 0.
When no eigenvalue pair resonates at T the sampled pair is controllable
with no kernel test at all. ``period_reports`` runs this test for a list
of periods and answers every per-period question in one ``PeriodReport``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .numkernel import _T
from .discretize import MODES, ContinuousPlant, _check_period, _sample_stack, input_channels
from .errors import NumericalError, UncontrollablePlantError

__all__ = [
    "PeriodReport",
    "PathologicalCandidate",
    "kalman_controllable",
    "period_reports",
    "candidate_pathological_periods",
]

# relative tolerance of the eigenvalue matching behind resonances
_RESONANCE_RTOL = 1e-8


@dataclass(frozen=True)
class PeriodReport:
    """Controllability of the sampled model at one period.

    resonant holds the tested eigenvalues of A (``_resonance``), in the order
    of ``numkernel.eigenvalues``. pathological_<mode> is True when the sampled
    pair of that input mode loses controllability; the modes' kernel tests
    differ only by the rows they keep. mri_failures lists (mu, complex kernel
    dimension) for every failed mri test; mri_margin is the smallest singular
    value across the mri tests (inf when no eigenvalue resonated).
    """

    period: float
    resonant: tuple[complex, ...]
    pathological_regular: bool
    pathological_impulsive: bool
    pathological_mri: bool
    mri_failures: tuple[tuple[complex, int], ...]
    mri_margin: float


@dataclass(frozen=True)
class PathologicalCandidate:
    """One sampling period at which controllability may degrade.

    needs_per_multiple_test marks resonance families (common real part
    zero and commensurable imaginary parts) for which each multiple of
    the base period must be tested individually instead of a single
    representative standing in for the whole family.
    """

    period: float
    base_period: float
    multiple: int
    needs_per_multiple_test: bool


def kalman_controllable(A, B) -> bool:
    """Rank test: [B, AB, ..., A^{n-1}B] has full row rank n.

    The matrix is scaled by the power of two that puts its largest entry
    in [1, 2), so its largest singular value is at least 1 and the rank
    rule of ``numkernel._svd_kernel`` reads it relative to that value; a
    power-of-two scale is exact, so the verdict is that of the unscaled
    matrix. Raises NumericalError when the powers overflow.
    """
    A = numkernel.as_matrix(A, "A")
    B = numkernel.as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise ValueError(f"inconsistent shapes A {A.shape}, B {B.shape}")
    blocks = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    if not np.isfinite(C).all():
        raise NumericalError("the controllability matrix [B, AB, ...] overflowed")
    exponent = np.frexp(np.abs(C).max())[1]
    return bool(numkernel._svd_kernel(np.ldexp(C.T, 1 - exponent))[1] == 0)


def _pair_table(eigs: np.ndarray) -> tuple[np.ndarray, float]:
    """The one eigenvalue-collision rule: the symmetric mask (n, n) of the
    pairs whose real parts agree within tol = 1e-8 (1 + max |lambda|), the
    spectrum's scale (at which ``numkernel.eigenvalues`` makes near-real
    eigenvalues real), and whose imaginary parts are further apart; and tol."""
    tol = _RESONANCE_RTOL * (1.0 + float(np.max(np.abs(eigs), initial=0.0)))
    paired = (np.abs(eigs.real[:, None] - eigs.real[None, :]) <= tol) & \
        (np.abs(eigs.imag[:, None] - eigs.imag[None, :]) > tol)
    return paired, tol


def _resonance(eigs: np.ndarray, periods) -> np.ndarray:
    """Mask (k, n) of the eigenvalues that resonate at each period: mu pairs
    with some gamma (``_pair_table``) and T Im(mu - gamma) / (2 pi) lies within
    1e-8 (1 + T) of a nonzero integer. Distinct real eigenvalues never resonate."""
    T = np.asarray(periods, dtype=float)[:, None, None]
    # [i, j] pairs mu = eigs[i] with gamma = eigs[j]
    x = T * (eigs.imag[:, None] - eigs.imag[None, :]) / (2.0 * np.pi)
    ell = np.rint(x)
    return (_pair_table(eigs)[0] & (ell != 0.0) & (np.abs(x - ell) <= _RESONANCE_RTOL * (1.0 + T))).any(axis=-1)


def _real_doubling(M: np.ndarray) -> np.ndarray:
    """Real 2x block matrix (of each matrix of a stack) whose kernel dimension doubles the complex one."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _hautus_reports(plant: ContinuousPlant, T) -> list[PeriodReport]:
    """The reduced kernel test of every mode at each checked period T, one
    ``PeriodReport`` per period.

    The spectrum of A is computed once. Only the periods at which an
    eigenvalue resonates are sampled, in one stacked exponential (the others
    pass every mode with margin inf), and the norms of their A_d and B_d
    take one stacked SVD each. The blocks of each (period,
    resonant eigenvalue) pair are built once; a mode's matrix is the
    A_d' - e^{mu T} I block over the input rows its ``input_channels``
    slice selects, and one stacked SVD per mode covers every (period,
    eigenvalue). Complex kernels are decided on the real doubling
    [[Re, -Im], [Im, Re]], whose kernel is trivial iff the complex kernel
    is. The A_d' - e^{mu T} I block is divided by max(1, ||A_d||,
    |e^{mu T}|) and the (Atilde B)' block by max(1, ||Atilde B||): scaling
    a row block keeps the kernel, and stops entries growing like
    e^{Re(mu) T} from setting the rank threshold. The scales come from the
    block's terms, so a block that cancels to roundoff stays small. The
    blocks are then at most of unit size, which the rank rule of
    ``numkernel._svd_kernel`` reads against 1: a hold block that cancels
    to roundoff (rotation at T = 2 pi k) has no large singular value to
    measure roundoff against.
    """
    n, m = plant.n, plant.m
    eigs = numkernel.eigenvalues(plant.A)
    resonant = _resonance(eigs, T)
    # one kernel test per (period at[j], resonant eigenvalue) pair, on sample at_sample[j]
    at, which = np.nonzero(resonant)
    sampled, at_sample = np.unique(at, return_inverse=True)
    _, A_d, _, B_d, _ = _sample_stack(plant, [T[i] for i in sampled])
    mus = eigs[which]
    A_d_norm = np.linalg.svd(A_d, compute_uv=False).max(axis=-1)
    B_d_norm = np.linalg.svd(B_d, compute_uv=False).max(axis=-1)
    shift = np.exp(mus * np.asarray(T)[at])
    scale = np.maximum(np.maximum(1.0, A_d_norm[at_sample]), np.abs(shift))
    A_block = (_T(A_d)[at_sample] - shift[:, None, None] * np.eye(n)) / scale[:, None, None]
    # the (Atilde B)' rows of the hold channel over the B' rows of the impulse channel
    inputs = np.concatenate([_T(B_d)[at_sample] / np.maximum(1.0, B_d_norm[at_sample])[:, None, None],
                             np.broadcast_to(plant.B.T, (len(at), m, n))], axis=1)
    if not (np.isfinite(A_block).all() and np.isfinite(inputs).all()):
        raise NumericalError("the reduced Hautus matrix overflowed")
    tests = {mode: numkernel._svd_kernel(_real_doubling(
        np.concatenate([A_block, inputs[:, input_channels(mode, m)]], axis=1))) for mode in MODES}
    lost = [np.bincount(at, tests[mode][1], len(T)) > 0 for mode in MODES]
    s, kdim = tests["mri"]
    margin = np.full(len(T), np.inf)
    np.minimum.at(margin, at, s[:, -1])
    failures: list[list] = [[] for _ in T]
    for j in np.flatnonzero(kdim):
        failures[at[j]].append((complex(mus[j]), int(kdim[j]) // 2))
    return [PeriodReport(float(t), tuple(map(complex, eigs[mask])), bool(r), bool(i), bool(x), tuple(f), float(g))
            for t, mask, r, i, x, f, g in zip(T, resonant, *lost, failures, margin)]


def period_reports(plant: ContinuousPlant, periods) -> list[PeriodReport]:
    """Controllability of the plant sampled at each period, on one stack.

    The one route of every controllability verdict: the continuous pair is
    checked once (UncontrollablePlantError), the periods are checked, and
    ``_hautus_reports`` tests them all, sampling in one stacked exponential
    only the periods at which an eigenvalue resonates, so each report is
    bit for bit the one a single period gives. A numerical failure at a
    resonant period raises its NumericalError for the whole stack.
    """
    if not kalman_controllable(plant.A, plant.B):
        raise UncontrollablePlantError("hypothesis violated: the continuous pair (A, B) is not controllable")
    return _hautus_reports(plant, [_check_period(t) for t in periods])


def candidate_pathological_periods(A, T_max: float) -> list[PathologicalCandidate]:
    """All sampling periods up to T_max at which a resonance can occur.

    Every eigenvalue pair a + i b1, a + i b2 that ``_pair_table`` pairs
    (real parts within 1e-8 (1 + max |lambda|), imaginary parts further
    apart; the rule of ``PeriodReport.resonant`` too) contributes the base
    period 2 pi / |b2 - b1| and all its integer multiples up to T_max, so
    each listed period has a resonant pair. For a family with a = 0 (to the
    same tolerance) whose imaginary parts have a rational ratio (including a
    zero member), the kernel test outcome can change from multiple to
    multiple, so each emitted period is flagged as requiring its own test;
    otherwise one representative decides the whole family. Periods arising
    from several pairs are deduplicated, keeping any flag. A T_max spanning
    more multiples than numpy can index or memory can hold is a ValueError.
    """
    if not (T_max > 0.0):
        raise ValueError(f"T_max must be positive, got {T_max}")
    if T_max == np.inf:
        raise ValueError(f"T_max must be finite, got {T_max}")
    eigs = numkernel.eigenvalues(numkernel._square(A))
    paired, tol = _pair_table(eigs)

    # one family per pair i < j: its base period, and its flag (b2 / b1 within
    # 1e-8 (1 + |b2 / b1|) of a fraction with denominator at most 1000)
    lam, gam = (eigs[k] for k in np.nonzero(np.triu(paired, 1)))
    bases = 2.0 * np.pi / np.abs(lam.imag - gam.imag)
    zero = (np.abs(lam.imag) <= tol) | (np.abs(gam.imag) <= tol)
    x, q = (gam.imag / np.where(zero, 1.0, lam.imag))[:, None], np.arange(1, 1001)
    rational = (np.abs(x - np.rint(x * q) / q) <= _RESONANCE_RTOL * (1.0 + np.abs(x))).any(axis=-1)
    flags = (np.abs(lam.real) <= tol) & (zero | rational)

    # each family's multiples, counted (with a spare for the quotient's rounding) before they are listed
    limit = T_max * (1.0 + 1e-12)
    with np.errstate(over="ignore"):
        counts = np.floor(limit / bases) + 1.0
    total = float(counts.sum())
    if not total < np.iinfo(np.intp).max:
        raise ValueError(f"T_max = {T_max!r} spans {total:g} multiples of its base periods, more than numpy can index")
    sizes = counts.astype(np.intp)
    try:
        family = np.repeat(np.arange(len(sizes)), sizes)
        ell = np.arange(1, len(family) + 1) - (np.cumsum(sizes) - sizes)[family]
        periods = ell * bases[family]
    except (ValueError, MemoryError):  # numpy cannot allocate the multiples
        raise ValueError(f"T_max = {T_max!r} spans {total:g} multiples of its base periods, more than fit in memory") from None
    within = periods <= limit
    f = family[within]
    candidates = list(map(PathologicalCandidate, periods[within].tolist(), bases[f].tolist(), ell[within].tolist(),
                          flags[f].tolist()))

    # Deduplicate periods from different pairs (conjugate pairs always
    # produce duplicates); a flagged duplicate wins.
    candidates.sort(key=lambda c: (c.period, not c.needs_per_multiple_test))
    out: list[PathologicalCandidate] = []
    for c in candidates:
        if out and abs(c.period - out[-1].period) <= 1e-9 * (1.0 + c.period):
            continue
        out.append(c)
    return out
