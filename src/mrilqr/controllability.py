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
from .discretize import ContinuousPlant, SampledModel, input_channels, sample_plant
from .errors import NumericalError, UncontrollablePlantError

__all__ = [
    "ControllabilityReport",
    "PathologicalCandidate",
    "kalman_controllable",
    "resonant_eigenvalues",
    "reduced_hautus_mri",
    "is_pathological",
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

    Raises NumericalError when the powers overflow.
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
    if not np.all(np.isfinite(C)):
        raise NumericalError("the controllability matrix [B, AB, ...] overflowed")
    return numkernel.null_space_dim(C.T) == 0


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
    tol = _RESONANCE_RTOL
    eigs = numkernel.eigenvalues(A)
    out = []
    for mu in eigs:
        for gamma in eigs:
            gap = mu.imag - gamma.imag
            if gap == 0.0 or abs(mu.real - gamma.real) > tol * (1.0 + abs(mu)):
                continue
            x = T * gap / (2.0 * np.pi)
            ell = int(np.rint(x))
            if ell != 0 and abs(x - ell) <= tol * (1.0 + T):
                out.append(complex(mu))
                break
    return tuple(out)


def _require_controllable(plant: ContinuousPlant) -> None:
    if not kalman_controllable(plant.A, plant.B):
        raise UncontrollablePlantError(
            "hypothesis violated: the continuous pair (A, B) is not controllable"
        )


def _real_doubling(M: np.ndarray) -> np.ndarray:
    """Real 2x block matrix whose kernel dimension doubles the complex one."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


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
    roundoff stays small.
    """
    _require_controllable(plant)
    return _sampled_hautus_mri(plant, sample_plant(plant, T))


def _sampled_hautus_mri(plant: ContinuousPlant, model: SampledModel) -> ControllabilityReport:
    """``reduced_hautus_mri`` on a model sampled from a plant already checked controllable."""
    T = model.T
    resonant = resonant_eigenvalues(plant.A, T)

    A_d_norm = float(np.linalg.norm(model.A_d, 2))
    AtB_block = model.B_d.T / max(1.0, float(np.linalg.norm(model.B_d, 2)))
    failures = []
    margin = np.inf
    n = plant.n
    for mu in resonant:
        shift = np.exp(mu * T)
        stacked = np.vstack(
            [
                (model.A_d.T - shift * np.eye(n)) / max(1.0, A_d_norm, abs(shift)),
                AtB_block,
                plant.B.T,
            ]
        )
        s, kdim = numkernel._svd_kernel(_real_doubling(stacked))
        margin = min(margin, float(s[-1]))
        if kdim > 0:
            failures.append((mu, kdim // 2))
    return ControllabilityReport(
        controllable=not failures,
        resonant=resonant,
        failures=tuple(failures),
        margin=float(margin),
    )


def is_pathological(plant: ContinuousPlant, T: float, mode: str) -> bool:
    """True when the sampled pair for the given input mode loses controllability."""
    _require_controllable(plant)
    return _sampled_pathological(plant, sample_plant(plant, T), mode)


def _sampled_pathological(plant: ContinuousPlant, model: SampledModel, mode: str) -> bool:
    """``is_pathological`` on a model sampled from a plant already checked controllable."""
    channels = input_channels(mode, plant.m)
    return not kalman_controllable(model.A_d, np.hstack([model.B_d, model.B_i])[:, channels])


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
    tol = _RESONANCE_RTOL
    eigs = numkernel.eigenvalues(A)
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
