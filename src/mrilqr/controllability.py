"""Controllability diagnosis for the sampled models.

Sampling a controllable continuous pair (A, B) can destroy
controllability at special ("pathological") periods T. For the model
with both hold and impulse channels controllability only has to be
checked at eigenvalues of A that collide under the exponential map,
i.e. at mu in sigma(A) having a partner gamma != mu with equal real
part and (mu - gamma) T in 2 i pi Z. For every such mu the stacked
matrix

    [ A_d' - e^{mu T} I ]
    [   (Atilde B)'     ]
    [        B'         ]

must have a trivial kernel. When no eigenvalue pair resonates at T the
sampled pair is controllable with no kernel test at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numkernel
from .numkernel import _T
from .discretize import ContinuousPlant, input_channels, sample_plants
from .errors import NumericalError, UncontrollablePlantError

__all__ = [
    "ControllabilityReport",
    "PeriodReport",
    "PathologicalCandidate",
    "kalman_controllable",
    "resonant_eigenvalues",
    "reduced_hautus_mri",
    "is_pathological",
    "period_reports",
    "candidate_pathological_periods",
]

# relative tolerance of the eigenvalue matching behind resonances
_RESONANCE_RTOL = 1e-8


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of the reduced kernel test for one (plant, T) in mri mode.

    resonant holds the tested eigenvalues (see ``resonant_eigenvalues``);
    failures lists (mu, complex kernel dimension) for every tested
    eigenvalue whose stacked matrix had a nontrivial kernel; margin is
    the smallest singular value seen across all tests (inf when no
    eigenvalue resonated and no test was needed).
    """

    controllable: bool
    resonant: tuple[complex, ...]
    failures: tuple[tuple[complex, int], ...]
    margin: float


@dataclass(frozen=True)
class PeriodReport:
    """Controllability of the sampled model at one period.

    pathological_regular and pathological_impulsive are
    ``is_pathological`` of the single-channel modes; mri is
    ``reduced_hautus_mri``.
    """

    period: float
    pathological_regular: bool
    pathological_impulsive: bool
    mri: ControllabilityReport


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


def _full_rank(A, B) -> np.ndarray:
    """Kalman rank test of each pair of stacks A (k, n, n), B (k, n, p).

    Raises NumericalError when the powers overflow in any pair.
    """
    blocks = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(A.shape[-1] - 1):
            blocks.append(A @ blocks[-1])
    C = np.concatenate(blocks, axis=-1)
    if not np.isfinite(C).all():
        raise NumericalError("the controllability matrix [B, AB, ...] overflowed")
    return numkernel._svd_kernel(_T(C))[1] == 0


def kalman_controllable(A, B) -> bool:
    """Rank test: [B, AB, ..., A^{n-1}B] has full row rank n.

    Raises NumericalError when the powers overflow.
    """
    A = numkernel.as_matrix(A, "A")
    B = numkernel.as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise ValueError(f"inconsistent shapes A {A.shape}, B {B.shape}")
    return bool(_full_rank(A[None], B[None])[0])


def _resonance(eigs: np.ndarray, periods) -> np.ndarray:
    """Mask (k, n) of the eigenvalues that resonate at each period; see ``resonant_eigenvalues``."""
    tol = _RESONANCE_RTOL
    T = np.asarray(periods, dtype=float)[:, None, None]
    # [i, j] pairs mu = eigs[i] with gamma = eigs[j]
    gap = eigs.imag[:, None] - eigs.imag[None, :]
    paired = (gap != 0.0) & (np.abs(eigs.real[:, None] - eigs.real[None, :]) <= tol * (1.0 + np.abs(eigs))[:, None])
    x = T * gap / (2.0 * np.pi)
    ell = np.rint(x)
    return (paired & (ell != 0.0) & (np.abs(x - ell) <= tol * (1.0 + T))).any(axis=-1)


def resonant_eigenvalues(A, T: float) -> tuple[complex, ...]:
    """Eigenvalues of A with an exponential collision at period T.

    mu resonates when some other eigenvalue gamma has a real part
    within tol*(1+|mu|) of mu's and T*Im(mu-gamma)/(2 pi) within
    tol*(1+T) of a nonzero integer, tol = 1e-8. Distinct real
    eigenvalues never resonate: their exponentials only coincide
    through the imaginary part. Returned in the order of
    ``numkernel.eigenvalues``.
    """
    T = float(T)
    if not (T > 0.0):
        raise ValueError(f"period must be positive, got {T}")
    if T == np.inf:
        raise ValueError(f"period must be finite, got {T}")
    eigs = numkernel.eigenvalues(numkernel._square(A))
    return tuple(map(complex, eigs[_resonance(eigs, [T])[0]]))


def _require_controllable(plant: ContinuousPlant) -> None:
    if not kalman_controllable(plant.A, plant.B):
        raise UncontrollablePlantError(
            "hypothesis violated: the continuous pair (A, B) is not controllable"
        )


def _real_doubling(M: np.ndarray) -> np.ndarray:
    """Real 2x block matrix (of each matrix of a stack) whose kernel dimension doubles the complex one."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _sampled(plant: ContinuousPlant, periods) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacks (T, A_d, B_d, B_i) of the plant sampled at each period, from one ``sample_plants`` call."""
    models = sample_plants(plant, periods)
    return (np.array([m.T for m in models]),
            *(np.stack([getattr(m, name) for m in models]) for name in ("A_d", "B_d", "B_i")))


def _hautus_reports(plant: ContinuousPlant, T, A_d, B_d) -> list[ControllabilityReport]:
    """``reduced_hautus_mri`` at each period of the sampled stacks.

    The spectrum of A is computed once, the norms of the A_d and B_d
    stacks take one stacked SVD each, and one stacked SVD covers the
    kernel test of every (period, resonant eigenvalue) pair.
    """
    n, m = plant.n, plant.m
    eigs = numkernel.eigenvalues(plant.A)
    resonant = _resonance(eigs, T)
    # one kernel test per (period, resonant eigenvalue) pair
    at, which = np.nonzero(resonant)
    mus = eigs[which]
    A_d_norm = np.linalg.svd(A_d, compute_uv=False).max(axis=-1)
    B_d_norm = np.linalg.svd(B_d, compute_uv=False).max(axis=-1)
    AtB_block = _T(B_d) / np.maximum(1.0, B_d_norm)[:, None, None]
    shift = np.exp(mus * T[at])
    scale = np.maximum(np.maximum(1.0, A_d_norm[at]), np.abs(shift))
    stacked = np.concatenate(
        [
            (_T(A_d)[at] - shift[:, None, None] * np.eye(n)) / scale[:, None, None],
            AtB_block[at],
            np.broadcast_to(plant.B.T, (len(at), m, n)),
        ],
        axis=1,
    )
    if not np.isfinite(stacked).all():
        raise NumericalError("the reduced Hautus matrix overflowed")
    s, kdim = numkernel._svd_kernel(_real_doubling(stacked))
    margin = np.full(len(T), np.inf)
    np.minimum.at(margin, at, s[:, -1])
    failures: list[list] = [[] for _ in T]
    for j in np.flatnonzero(kdim):
        failures[at[j]].append((complex(mus[j]), int(kdim[j]) // 2))
    return [
        ControllabilityReport(
            controllable=not f,
            resonant=tuple(map(complex, eigs[mask])),
            failures=tuple(f),
            margin=float(g),
        )
        for f, mask, g in zip(failures, resonant, margin)
    ]


def _pathological(plant: ContinuousPlant, A_d, B_d, B_i, mode: str) -> np.ndarray:
    """``is_pathological`` of the given mode at each period of the sampled stacks."""
    channels = input_channels(mode, plant.m)
    return ~_full_rank(A_d, np.concatenate([B_d, B_i], axis=-1)[..., channels])


def reduced_hautus_mri(plant: ContinuousPlant, T: float) -> ControllabilityReport:
    """Controllability of (A_d, [B_d B_i]) via kernel tests at resonant mu only.

    Requires a controllable continuous pair (raises
    UncontrollablePlantError otherwise). Complex kernels are decided on
    the real doubling [[Re, -Im], [Im, Re]], whose kernel is trivial iff
    the complex kernel is. The A_d' - e^{mu T} I block is divided by
    max(1, ||A_d||, |e^{mu T}|) and the (Atilde B)' block by
    max(1, ||Atilde B||): scaling a row block keeps the kernel, and stops
    entries growing like e^{Re(mu) T} from setting the rank threshold.
    The scales come from the block's terms, so a block that cancels to
    roundoff stays small. Runs as a stack of one through the test behind
    ``period_reports``.
    """
    _require_controllable(plant)
    T, A_d, B_d, _ = _sampled(plant, [T])
    return _hautus_reports(plant, T, A_d, B_d)[0]


def is_pathological(plant: ContinuousPlant, T: float, mode: str) -> bool:
    """True when the sampled pair for the given input mode loses controllability
    (the Kalman rank test of the sampled pair, as a stack of one)."""
    _require_controllable(plant)
    _, A_d, B_d, B_i = _sampled(plant, [T])
    return bool(_pathological(plant, A_d, B_d, B_i, mode)[0])


def period_reports(plant: ContinuousPlant, periods) -> list[PeriodReport]:
    """Controllability of the plant sampled at each period, on one stack.

    The continuous pair is checked once (UncontrollablePlantError), the
    periods are sampled in one ``sample_plants`` call, and each report
    equals the solo ``is_pathological`` and ``reduced_hautus_mri`` calls
    at its period bit for bit. A numerical failure at any period raises
    its NumericalError for the whole stack.
    """
    _require_controllable(plant)
    if len(periods) == 0:
        return []
    T, A_d, B_d, B_i = _sampled(plant, periods)
    mri = _hautus_reports(plant, T, A_d, B_d)
    regular = _pathological(plant, A_d, B_d, B_i, "regular")
    impulsive = _pathological(plant, A_d, B_d, B_i, "impulsive")
    return [PeriodReport(float(t), bool(r), bool(i), report)
            for t, r, i, report in zip(T, regular, impulsive, mri)]


def _ratio_is_rational(x: float) -> bool:
    f = Fraction(float(x)).limit_denominator(1000)
    return bool(abs(x - float(f)) <= _RESONANCE_RTOL * (1.0 + abs(x)))


def candidate_pathological_periods(A, T_max: float) -> list[PathologicalCandidate]:
    """All sampling periods up to T_max at which a resonance can occur.

    Every eigenvalue pair a + i b1, a + i b2 with equal real parts and
    b1 != b2 contributes the base period 2 pi / |b2 - b1| and all its
    integer multiples up to T_max. For a family with a = 0 whose
    imaginary parts have a rational ratio (including a zero member), the
    kernel test outcome can change from multiple to multiple, so each
    emitted period is flagged as requiring its own test; otherwise one
    representative decides the whole family. Eigenvalues match within
    1e-8 relative to the spectrum's scale. Periods arising from several
    pairs are deduplicated, keeping any flag.
    """
    if not (T_max > 0.0):
        raise ValueError(f"T_max must be positive, got {T_max}")
    if T_max == np.inf:
        raise ValueError(f"T_max must be finite, got {T_max}")
    tol = _RESONANCE_RTOL
    eigs = numkernel.eigenvalues(numkernel._square(A))
    scale = 1.0 + float(np.max(np.abs(eigs), initial=0.0))

    # (base period, per-multiple flag) per resonating eigenvalue pair
    families: list[tuple[float, bool]] = []
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            lam, gam = eigs[i], eigs[j]
            if abs(lam.real - gam.real) > tol * scale:
                continue
            gap = abs(lam.imag - gam.imag)
            if gap <= tol * scale:
                continue
            base = 2.0 * np.pi / gap
            flag = False
            if abs(lam.real) <= tol * scale:
                b1, b2 = lam.imag, gam.imag
                if abs(b1) <= tol * scale or abs(b2) <= tol * scale:
                    flag = True
                else:
                    flag = _ratio_is_rational(b2 / b1)
            families.append((base, flag))

    candidates: list[PathologicalCandidate] = []
    for base, flag in families:
        ell = 1
        while ell * base <= T_max * (1.0 + 1e-12):
            candidates.append(
                PathologicalCandidate(
                    period=ell * base,
                    base_period=base,
                    multiple=ell,
                    needs_per_multiple_test=flag,
                )
            )
            ell += 1

    # Deduplicate periods from different pairs (conjugate pairs always
    # produce duplicates); a flagged duplicate wins.
    candidates.sort(key=lambda c: (c.period, not c.needs_per_multiple_test))
    out: list[PathologicalCandidate] = []
    for c in candidates:
        if out and abs(c.period - out[-1].period) <= 1e-9 * (1.0 + c.period):
            continue
        out.append(c)
    return out
