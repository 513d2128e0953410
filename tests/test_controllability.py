"""Kalman rank, resonance detection, reduced kernel test, candidate periods."""

import numpy as np
import pytest
import scipy.linalg

from mrilqr import (
    ContinuousPlant,
    NumericalError,
    UncontrollablePlantError,
    candidate_pathological_periods,
    is_pathological,
    kalman_controllable,
    period_reports,
    reduced_hautus_mri,
    resonant_eigenvalues,
    sample_plant,
)

from conftest import random_controllable_plant

SOUZA_BASE = 2.0 * np.pi / np.sqrt(23.0)


class TestKalman:
    def test_souza_pair_is_controllable(self, souza_plant):
        assert kalman_controllable(souza_plant.A, souza_plant.B)

    def test_zero_input_matrix(self):
        assert not kalman_controllable(np.eye(2), np.zeros((2, 1)))

    def test_overflowing_powers_are_a_numerical_error(self):
        with pytest.raises(NumericalError):
            kalman_controllable(np.diag([1e200, 1.0]), [[1e200], [1.0]])

    def test_rotation_sampled_pair_at_full_turn(self, rotation_plant):
        m = sample_plant(rotation_plant, 2.0 * np.pi)
        assert not kalman_controllable(m.A_d, np.hstack([m.B_d, m.B_i]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kalman_controllable(np.eye(2), np.zeros((3, 1)))


class TestResonantEigenvalues:
    def test_rotation_full_turn_resonates(self, rotation_plant):
        res = resonant_eigenvalues(rotation_plant.A, 2.0 * np.pi)
        assert type(res) is tuple and all(type(mu) is complex for mu in res)
        assert np.allclose(sorted(res, key=lambda z: z.imag), [-1j, 1j])

    def test_souza_nonresonant_at_unit_period(self, souza_plant):
        assert len(resonant_eigenvalues(souza_plant.A, 1.0)) == 0

    def test_souza_resonant_at_base_period(self, souza_plant):
        res = resonant_eigenvalues(souza_plant.A, SOUZA_BASE)
        vals = sorted(res, key=lambda z: z.imag)
        assert np.allclose(vals, [0.5 - 1j * np.sqrt(23) / 2, 0.5 + 1j * np.sqrt(23) / 2])

    def test_real_spectrum_never_resonates(self):
        A = np.diag([-1.0, -2.0, -2.0])
        for T in (0.1, 1.0, np.pi, 10.0):
            assert len(resonant_eigenvalues(A, T)) == 0

    def test_rejects_nonpositive_period(self, souza_plant):
        with pytest.raises(ValueError):
            resonant_eigenvalues(souza_plant.A, 0.0)

    def test_rejects_an_infinite_period(self, souza_plant):
        # an infinite period is an input fault, not a resonance test on nan
        with pytest.raises(ValueError, match="period must be finite, got inf"):
            resonant_eigenvalues(souza_plant.A, np.inf)


@pytest.mark.parametrize("A, message", [
    (np.zeros((2, 3)), r"must be square, got shape \(2, 3\)"),
    ([[np.nan, 0.0], [0.0, 1.0]], "has non-finite entries"),
    ([[np.inf, 0.0], [0.0, 1.0]], "has non-finite entries"),
], ids=["non-square", "nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda A: candidate_pathological_periods(A, 5.0),
    lambda A: resonant_eigenvalues(A, 1.0),
], ids=["candidates", "resonant"])
def test_entries_check_the_state_matrix(entry, A, message):
    # the spectrum kernel behind these entries trusts its argument
    with pytest.raises(ValueError, match=message):
        entry(A)


class TestReducedHautus:
    def test_souza_mri_controllable_at_pathological_period(self, souza_plant):
        report = reduced_hautus_mri(souza_plant, SOUZA_BASE)
        assert report.controllable
        assert len(report.resonant) == 2
        assert report.failures == ()
        assert np.isfinite(report.margin) and report.margin > 1e-6

    def test_rotation_not_controllable_at_full_turn(self, rotation_plant):
        report = reduced_hautus_mri(rotation_plant, 2.0 * np.pi)
        assert not report.controllable
        assert report.failures
        assert all(kdim >= 1 for _, kdim in report.failures)
        assert report.margin < 1e-9

    def test_empty_resonant_set_short_circuits(self, souza_plant):
        report = reduced_hautus_mri(souza_plant, 1.0)
        assert report.controllable
        assert report.resonant == ()
        assert report.margin == np.inf

    def test_uncontrollable_pair_raises(self):
        plant = ContinuousPlant(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(UncontrollablePlantError):
            reduced_hautus_mri(plant, 1.0)

    def test_souza_controllable_at_long_pathological_periods(self, souza_plant):
        # the stacked blocks grow like e^{T/2} on souza; the rank test
        # must not read that growth as a lost direction
        for k in range(35, 39):
            assert reduced_hautus_mri(souza_plant, k * SOUZA_BASE).controllable

    def test_rotation_flagged_exactly_at_full_turns(self, rotation_plant):
        cands = candidate_pathological_periods(rotation_plant.A, 200.0)
        flagged = [c.multiple for c in cands
                   if not reduced_hautus_mri(rotation_plant, c.period).controllable]
        # candidates are the multiples of pi; the 31 multiples of 2 pi lose controllability
        assert flagged == list(range(2, 63, 2))

    def test_agrees_with_kalman_on_random_plants(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            plant = random_controllable_plant(rng, n)
            T = rng.uniform(0.1, 5.0)
            m = sample_plant(plant, T)
            expected = kalman_controllable(m.A_d, np.hstack([m.B_d, m.B_i]))
            assert reduced_hautus_mri(plant, T).controllable == expected


class TestIsPathological:
    def test_souza_at_base_period(self, souza_plant):
        assert is_pathological(souza_plant, SOUZA_BASE, "regular")
        assert is_pathological(souza_plant, SOUZA_BASE, "impulsive")
        assert not is_pathological(souza_plant, SOUZA_BASE, "mri")

    def test_rotation_at_full_turn_all_modes(self, rotation_plant):
        for mode in ("regular", "impulsive", "mri"):
            assert is_pathological(rotation_plant, 2.0 * np.pi, mode)

    def test_non_pathological_period(self, souza_plant):
        for mode in ("regular", "impulsive", "mri"):
            assert not is_pathological(souza_plant, 1.0, mode)

    def test_mri_pathology_implies_single_channel_pathology(self, souza_plant, rotation_plant):
        rng = np.random.default_rng(34)
        plants = [souza_plant, rotation_plant]
        plants += [random_controllable_plant(rng, int(rng.integers(2, 5))) for _ in range(10)]
        for plant in plants:
            periods = [c.period for c in candidate_pathological_periods(plant.A, 8.0)]
            periods += list(rng.uniform(0.1, 5.0, size=3))
            for T in periods:
                if is_pathological(plant, T, "mri"):
                    assert is_pathological(plant, T, "regular")
                    assert is_pathological(plant, T, "impulsive")

    def test_hypothesis_violation(self):
        plant = ContinuousPlant(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(UncontrollablePlantError):
            is_pathological(plant, 1.0, "regular")


class TestCandidatePeriods:
    def test_souza_candidates_up_to_five(self, souza_plant):
        cands = candidate_pathological_periods(souza_plant.A, 5.0)
        periods = [c.period for c in cands]
        expected = [SOUZA_BASE, 2 * SOUZA_BASE, 3 * SOUZA_BASE]
        assert np.allclose(periods, expected, rtol=1e-9)
        assert {c.base_period for c in cands} == {periods[0]}
        assert [c.multiple for c in cands] == [1, 2, 3]
        # common real part is 1/2, so no per-multiple testing needed
        assert not any(c.needs_per_multiple_test for c in cands)

    def test_real_spectrum_has_no_candidates(self):
        assert candidate_pathological_periods(np.diag([-1.0, -2.0]), 100.0) == []

    @pytest.mark.parametrize("T_max", [0.0, -2.5])
    def test_nonpositive_horizon_rejected(self, souza_plant, T_max):
        with pytest.raises(ValueError, match=f"T_max must be positive, got {T_max}"):
            candidate_pathological_periods(souza_plant.A, T_max)

    def test_infinite_horizon_rejected(self, souza_plant):
        # an infinite T_max would list multiples of the base period without end
        with pytest.raises(ValueError, match="T_max must be finite, got inf"):
            candidate_pathological_periods(souza_plant.A, np.inf)

    def test_rotation_candidates_flagged(self, rotation_plant):
        cands = candidate_pathological_periods(rotation_plant.A, 7.0)
        periods = [c.period for c in cands]
        assert np.allclose(periods, [np.pi, 2 * np.pi], rtol=1e-9)
        assert all(c.needs_per_multiple_test for c in cands)

    def test_imaginary_eigenvalue_guarantees_regular_pathology(self, rotation_plant):
        # with ib in the spectrum, T = 2*pi/|b| is pathological for the
        # hold-only model
        b = 1.0
        T = 2.0 * np.pi / b
        periods = [c.period for c in candidate_pathological_periods(rotation_plant.A, 7.0)]
        assert any(abs(p - T) < 1e-9 for p in periods)
        assert is_pathological(rotation_plant, T, "regular")

    def test_zero_paired_with_imaginary_is_flagged(self):
        # spectrum {0, +2i, -2i}: the (0, 2i) family has a zero member
        A = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 2.0, 0.0]])
        cands = candidate_pathological_periods(A, 4.0)
        base_pi = [c for c in cands if abs(c.base_period - np.pi) < 1e-9]
        assert base_pi and all(c.needs_per_multiple_test for c in base_pi)

    def test_candidates_cover_every_random_resonance(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            T_max = 10.0
            periods = [c.period for c in candidate_pathological_periods(A, T_max)]
            for T in np.linspace(0.2, T_max, 23):
                if len(resonant_eigenvalues(A, T)) > 0:
                    assert any(abs(T - p) <= 1e-6 * (1 + T) for p in periods)


def kalman_sigma_min(A, B, T, mode):
    """sigma_min / sigma_max of the sampled Kalman matrix, from scipy alone.

    One exponential of [[A, B], [0, 0]] T gives e^{AT} and the hold map
    int_0^T e^{As} ds B; the impulse map is e^{AT} B.
    """
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n], M[:n, n:] = A, B
    E = scipy.linalg.expm(M * T)
    A_d, B_d = E[:n, :n], E[:n, n:]
    cols = {"regular": B_d, "impulsive": A_d @ B, "mri": np.hstack([B_d, A_d @ B])}[mode]
    blocks = [cols]
    for _ in range(n - 1):
        blocks.append(A_d @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return s[n - 1] / s[0]


def kalman_zeros(A, B, mode, T_max, h=0.01):
    """Periods in (0, T_max] where the sampled Kalman matrix loses rank.

    Scans a grid of step h, then bisects each local minimum of
    sigma_min on the sign of its slope; a refined minimum below 1e-8
    is a zero (the other minima of souza and rotation sit above 3e-2).
    """
    grid = np.arange(h, T_max + h / 2, h)
    f = [kalman_sigma_min(A, B, T, mode) for T in grid]
    zeros = []
    for i in range(1, len(grid) - 1):
        if not (f[i] <= f[i - 1] and f[i] <= f[i + 1]):
            continue
        lo, hi = grid[i - 1], grid[i + 1]
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if kalman_sigma_min(A, B, mid + 1e-12, mode) > kalman_sigma_min(A, B, mid - 1e-12, mode):
                hi = mid
            else:
                lo = mid
        T = 0.5 * (lo + hi)
        if kalman_sigma_min(A, B, T, mode) < 1e-8:
            zeros.append(T)
    return zeros


class TestPathologicalPeriodOracle:
    """Candidate periods and the rank decisions against an independent sigma_min scan."""

    @pytest.mark.parametrize("name, T_max", [("souza", 5.0), ("rotation", 13.0)])
    @pytest.mark.parametrize("mode", ["regular", "impulsive"])
    def test_single_channel_zeros_are_the_flagged_candidates(self, request, name, T_max, mode):
        plant = request.getfixturevalue(f"{name}_plant")
        zeros = kalman_zeros(plant.A, plant.B, mode, T_max)
        flagged = [c.period for c in candidate_pathological_periods(plant.A, T_max)
                   if is_pathological(plant, c.period, mode)]
        assert zeros and len(zeros) == len(flagged)
        assert np.allclose(zeros, flagged, rtol=0.0, atol=1e-6)

    def test_mri_zeros(self, souza_plant, rotation_plant):
        assert kalman_zeros(souza_plant.A, souza_plant.B, "mri", 5.0) == []
        zeros = kalman_zeros(rotation_plant.A, rotation_plant.B, "mri", 13.0)
        assert len(zeros) == 2
        assert np.allclose(zeros, [2.0 * np.pi, 4.0 * np.pi], rtol=0.0, atol=1e-6)
        # the reduced test at the resonant eigenvalues finds the same periods
        flagged = [c.period for c in candidate_pathological_periods(rotation_plant.A, 13.0)
                   if not reduced_hautus_mri(rotation_plant, c.period).controllable]
        assert len(flagged) == 2
        assert np.allclose(zeros, flagged, rtol=0.0, atol=1e-6)


def documented_resonance(A, T):
    """The resonance rule of ``resonant_eigenvalues``, pair by pair."""
    eigs = np.sort_complex(np.linalg.eigvals(A).astype(complex))
    out = []
    for mu in eigs:
        for gamma in eigs:
            gap = mu.imag - gamma.imag
            if gap == 0.0 or abs(mu.real - gamma.real) > 1e-8 * (1.0 + abs(mu)):
                continue
            x = T * gap / (2.0 * np.pi)
            if round(x) != 0 and abs(x - round(x)) <= 1e-8 * (1.0 + T):
                out.append(mu)
                break
    return out


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def hautus_reference(plant, T):
    """(failures, margin) of the reduced kernel test, one 2-D matrix per resonant mu."""
    m = sample_plant(plant, T)
    A_d_norm = np.linalg.norm(m.A_d, 2)
    AtB_block = m.B_d.T / max(1.0, np.linalg.norm(m.B_d, 2))
    failures, margin = [], np.inf
    for mu in resonant_eigenvalues(plant.A, T):
        shift = np.exp(mu * T)
        M = np.vstack([(m.A_d.T - shift * np.eye(plant.n)) / max(1.0, A_d_norm, abs(shift)),
                       AtB_block, plant.B.T])
        s = np.linalg.svd(np.block([[M.real, -M.imag], [M.imag, M.real]]), compute_uv=False)
        margin = min(margin, s[-1])
        kdim = 2 * plant.n - np.count_nonzero(s > 1e-9 * s[0])
        if kdim:
            failures.append((mu, kdim // 2))
    return tuple(failures), margin


def reports_against_solo(plant, periods):
    """``period_reports`` over the periods, each equal bit for bit to the solo
    calls and to a reduced kernel test on 2-D matrices."""
    reports = period_reports(plant, periods)
    assert [r.period for r in reports] == [float(T) for T in periods]
    for T, r in zip(periods, reports):
        solo = reduced_hautus_mri(plant, T)
        assert (r.mri.controllable, r.mri.resonant, r.mri.failures) == \
            (solo.controllable, solo.resonant, solo.failures)
        assert bits(r.mri.margin) == bits(solo.margin)
        failures, margin = hautus_reference(plant, T)
        assert r.mri.failures == failures and bits(r.mri.margin) == bits(margin)
        assert r.pathological_regular is is_pathological(plant, T, "regular")
        assert r.pathological_impulsive is is_pathological(plant, T, "impulsive")
        assert np.allclose(sorted(r.mri.resonant, key=lambda z: (z.real, z.imag)),
                           documented_resonance(plant.A, T), rtol=1e-9)
    return reports


class TestPeriodReports:
    def test_souza_up_to_fifty(self, souza_plant):
        candidates = [c.period for c in candidate_pathological_periods(souza_plant.A, 50.0)]
        reports = reports_against_solo(souza_plant, [*candidates, 1.0, 2.5, SOUZA_BASE + 1e-7])
        assert len(candidates) == 38
        assert all(r.pathological_regular and r.pathological_impulsive for r in reports[:38])
        # no resonance away from the candidates: no kernel test and an infinite margin
        assert [r.mri.margin for r in reports[38:]] == [np.inf] * 3

    def test_rotation_up_to_two_hundred(self, rotation_plant):
        candidates = candidate_pathological_periods(rotation_plant.A, 200.0)
        reports = reports_against_solo(rotation_plant, [c.period for c in candidates])
        assert [c.multiple for c, r in zip(candidates, reports) if not r.mri.controllable] == \
            list(range(2, 63, 2))

    def test_insulin_is_rejected_like_the_solo_calls(self, insulin_plant):
        # the insulin pair is not controllable: every entry point raises the same error
        for call in (lambda: period_reports(insulin_plant, [5.0, 20.0]),
                     lambda: reduced_hautus_mri(insulin_plant, 20.0),
                     lambda: is_pathological(insulin_plant, 20.0, "regular")):
            with pytest.raises(UncontrollablePlantError, match="not controllable"):
                call()

    def test_random_plant_with_equal_real_part_pairs(self):
        # n = 4, m = 2: two rotation blocks a I + w J share the real part a
        rng = np.random.default_rng(36)
        D = np.zeros((4, 4))
        for k, w in enumerate((1.3, 2.9)):
            D[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[-0.2, -w], [w, -0.2]]
        S = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        plant = ContinuousPlant(S @ D @ np.linalg.inv(S), rng.normal(size=(4, 2)))
        candidates = [c.period for c in candidate_pathological_periods(plant.A, 30.0)]
        reports = reports_against_solo(plant, [*candidates, *rng.uniform(0.2, 10.0, size=5)])
        assert len(candidates) > 10
        assert all(r.mri.resonant for r in reports[:len(candidates)])

    def test_an_overflowing_period_fails_the_stack(self, souza_plant):
        with pytest.raises(NumericalError, match="overflowed at T = 1500.0"):
            period_reports(souza_plant, [1.0, 1500.0, 2.0])
        with pytest.raises(NumericalError, match="overflowed at T = 1500.0"):
            reduced_hautus_mri(souza_plant, 1500.0)

    def test_no_periods(self, souza_plant):
        assert period_reports(souza_plant, []) == []
