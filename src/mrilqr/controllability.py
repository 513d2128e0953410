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
from .errors import UncontrollablePlantError

__all__ = [
    "ResonantSet",
    "ControllabilityReport",
    "PathologicalCandidate",
    "kalman_controllable",
    "resonant_eigenvalues",
    "reduced_hautus_mri",
    "is_pathological",
    "candidate_pathological_periods",
]


@dataclass(frozen=True)
class ResonantSet:
    """Eigenvalues of A whose exponentials collide at the given period.

    entries holds (mu, partners) pairs: each partner gamma satisfies
    Re(gamma) = Re(mu) and T * Im(mu - gamma) = 2 pi l for a nonzero
    integer l, within matching tolerance.
    """

    T: float
    entries: tuple[tuple[complex, tuple[complex, ...]], ...]

    def values(self) -> tuple[complex, ...]:
        return tuple(mu for mu, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of the reduced kernel test for one (plant, T, mode).

    failures lists (mu, complex kernel dimension) for every tested
    eigenvalue whose stacked matrix had a nontrivial kernel; margin is
    the smallest singular value seen across all tests (inf when the
    resonant set was empty and no test was needed).
    """

    mode: str
    controllable: bool
    resonant_set: ResonantSet
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


def kalman_controllable(A, B, tol: float = numkernel.RANK_RTOL) -> bool:
    """Rank test: [B, AB, ..., A^{n-1}B] has full row rank n."""
    A = numkernel.as_matrix(A, "A")
    B = numkernel.as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise ValueError(f"inconsistent shapes A {A.shape}, B {B.shape}")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    return numkernel.null_space_dim(C.T, tol) == 0


def _nearest_integer_distance(x: float) -> tuple[int, float]:
    k = int(np.rint(x))
    return k, abs(x - k)


def resonant_eigenvalues(A, T: float, tol: float = 1e-8) -> ResonantSet:
    """Eigenvalues of A with an exponential collision at period T.

    A pair (mu, gamma) resonates when their real parts agree within
    tol*(1+|mu|) and T*Im(mu-gamma)/(2 pi) is within tol*(1+T) of a
    nonzero integer. Distinct real eigenvalues never resonate: their
    exponentials only coincide through the imaginary part.
    """
    T = float(T)
    if not (T > 0.0):
        raise ValueError(f"period must be positive, got {T}")
    eigs = numkernel.eigenvalues(A)
    entries = []
    for i, mu in enumerate(eigs):
        partners = []
        for j, gamma in enumerate(eigs):
            if i == j:
                continue
            if abs(mu.real - gamma.real) > tol * (1.0 + abs(mu)):
                continue
            gap = mu.imag - gamma.imag
            if gap == 0.0:
                continue
            ell, dist = _nearest_integer_distance(T * gap / (2.0 * np.pi))
            if ell != 0 and dist <= tol * (1.0 + T):
                partners.append(complex(gamma))
        if partners:
            entries.append((complex(mu), tuple(partners)))
    return ResonantSet(T=T, entries=tuple(entries))


def _require_controllable(plant: ContinuousPlant) -> None:
    if not kalman_controllable(plant.A, plant.B):
        raise UncontrollablePlantError(
            "hypothesis violated: the continuous pair (A, B) is not controllable"
        )


def _real_doubling(M: np.ndarray) -> np.ndarray:
    """Real 2x block matrix whose kernel dimension doubles the complex one."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def reduced_hautus_mri(plant: ContinuousPlant, T: float, tol: float = numkernel.RANK_RTOL) -> ControllabilityReport:
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
    return _sampled_hautus_mri(plant, sample_plant(plant, T), tol)


def _sampled_hautus_mri(plant: ContinuousPlant, model: SampledModel,
                        tol: float = numkernel.RANK_RTOL) -> ControllabilityReport:
    """``reduced_hautus_mri`` on a model sampled from a plant already checked controllable."""
    T = model.T
    resonant = resonant_eigenvalues(plant.A, T)

    AtB = model.Atilde @ plant.B
    A_d_norm = float(np.linalg.norm(model.A_d, 2))
    AtB_block = AtB.T / max(1.0, float(np.linalg.norm(AtB, 2)))
    failures = []
    margin = np.inf
    n = plant.n
    for mu in resonant.values():
        shift = np.exp(mu * T)
        stacked = np.vstack(
            [
                (model.A_d.T - shift * np.eye(n)) / max(1.0, A_d_norm, abs(shift)),
                AtB_block,
                plant.B.T,
            ]
        )
        doubled = _real_doubling(stacked)
        margin = min(margin, numkernel.smallest_singular_value(doubled))
        kdim = numkernel.null_space_dim(doubled, tol)
        if kdim > 0:
            failures.append((mu, kdim // 2))
    return ControllabilityReport(
        mode="mri",
        controllable=not failures,
        resonant_set=resonant,
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


def _ratio_is_rational(x: float, tol: float, max_den: int = 1000) -> bool:
    f = Fraction(float(x)).limit_denominator(max_den)
    return bool(abs(x - float(f)) <= tol * (1.0 + abs(x)))


def candidate_pathological_periods(
    A, T_max: float, tol: float = 1e-8
) -> list[PathologicalCandidate]:
    """All sampling periods up to T_max at which a resonance can occur.

    Every eigenvalue pair a + i b1, a + i b2 with equal real parts and
    b1 != b2 contributes the base period 2 pi / |b2 - b1| and all its
    integer multiples up to T_max. For a family with a = 0 whose
    imaginary parts have a rational ratio (including a zero member), the
    kernel test outcome can change from multiple to multiple, so each
    emitted period is flagged as requiring its own test; otherwise one
    representative decides the whole family. Periods arising from
    several pairs are deduplicated, keeping any flag.
    """
    if not (T_max > 0.0):
        raise ValueError(f"T_max must be positive, got {T_max}")
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
                    flag = _ratio_is_rational(b2 / b1, tol)
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
