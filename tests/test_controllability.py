"""Kalman rank, resonance detection, reduced kernel test, candidate periods."""

import numpy as np
import pytest

from mrilqr import (
    ContinuousPlant,
    NumericalError,
    UncontrollablePlantError,
    candidate_pathological_periods,
    kalman_controllable,
    numkernel,
    period_reports,
    sample_plant,
)

from mrilqr.controllability import PeriodReport, _resonance
from mrilqr.discretize import MODES

from conftest import kalman_zeros, random_controllable_plant

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
        res = period_reports(rotation_plant, [2.0 * np.pi])[0].resonant
        assert type(res) is tuple and all(type(mu) is complex for mu in res)
        assert np.allclose(sorted(res, key=lambda z: z.imag), [-1j, 1j])

    def test_souza_nonresonant_at_unit_period(self, souza_plant):
        assert len(period_reports(souza_plant, [1.0])[0].resonant) == 0

    def test_souza_resonant_at_base_period(self, souza_plant):
        res = period_reports(souza_plant, [SOUZA_BASE])[0].resonant
        vals = sorted(res, key=lambda z: z.imag)
        assert np.allclose(vals, [0.5 - 1j * np.sqrt(23) / 2, 0.5 + 1j * np.sqrt(23) / 2])

    def test_real_spectrum_never_resonates(self):
        plant = ContinuousPlant(np.diag([-1.0, -2.0, -2.0]), np.eye(3))
        for r in period_reports(plant, [0.1, 1.0, np.pi, 10.0]):
            assert len(r.resonant) == 0

    def test_rejects_nonpositive_period(self, souza_plant):
        with pytest.raises(ValueError):
            period_reports(souza_plant, [0.0])

    def test_rejects_a_period_no_sampler_takes(self, souza_plant):
        with pytest.raises(ValueError, match="sampling period must exceed 1e-12, got 1e-13"):
            period_reports(souza_plant, [1e-13])

    def test_rejects_an_infinite_period(self, souza_plant):
        # an infinite period is an input fault, not a resonance test on nan
        with pytest.raises(ValueError, match="period must be finite, got inf"):
            period_reports(souza_plant, [np.inf])


@pytest.mark.parametrize("A, message", [
    (np.zeros((2, 3)), r"must be square, got shape \(2, 3\)"),
    ([[np.nan, 0.0], [0.0, 1.0]], "has non-finite entries"),
    ([[np.inf, 0.0], [0.0, 1.0]], "has non-finite entries"),
], ids=["non-square", "nan", "inf"])
def test_candidates_check_the_state_matrix(A, message):
    # the spectrum kernel behind the candidates trusts its argument
    with pytest.raises(ValueError, match=message):
        candidate_pathological_periods(A, 5.0)


class TestReducedHautus:
    def test_souza_mri_controllable_at_pathological_period(self, souza_plant):
        report = period_reports(souza_plant, [SOUZA_BASE])[0]
        assert not report.pathological_mri
        assert len(report.resonant) == 2
        assert report.mri_failures == ()
        assert np.isfinite(report.mri_margin) and report.mri_margin > 1e-6

    def test_rotation_not_controllable_at_full_turn(self, rotation_plant):
        report = period_reports(rotation_plant, [2.0 * np.pi])[0]
        assert report.pathological_mri
        assert report.mri_failures
        assert all(kdim >= 1 for _, kdim in report.mri_failures)
        assert report.mri_margin < 1e-9

    def test_empty_resonant_set_short_circuits(self, souza_plant):
        report = period_reports(souza_plant, [1.0])[0]
        assert not report.pathological_mri
        assert report.resonant == ()
        assert report.mri_margin == np.inf

    def test_uncontrollable_pair_raises(self):
        plant = ContinuousPlant(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(UncontrollablePlantError):
            period_reports(plant, [1.0])

    def test_souza_controllable_at_long_pathological_periods(self, souza_plant):
        # the stacked blocks grow like e^{T/2} on souza; the rank test
        # must not read that growth as a lost direction
        for k in range(35, 39):
            assert not period_reports(souza_plant, [k * SOUZA_BASE])[0].pathological_mri

    def test_rotation_flagged_exactly_at_full_turns(self, rotation_plant):
        cands = candidate_pathological_periods(rotation_plant.A, 200.0)
        reports = period_reports(rotation_plant, [c.period for c in cands])
        flagged = [c.multiple for c, r in zip(cands, reports) if r.pathological_mri]
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
            assert period_reports(plant, [T])[0].pathological_mri == (not expected)


class TestIsPathological:
    def test_souza_at_base_period(self, souza_plant):
        report = period_reports(souza_plant, [SOUZA_BASE])[0]
        assert report.pathological_regular
        assert report.pathological_impulsive
        assert not report.pathological_mri

    def test_rotation_at_full_turn_all_modes(self, rotation_plant):
        report = period_reports(rotation_plant, [2.0 * np.pi])[0]
        for mode in MODES:
            assert getattr(report, f"pathological_{mode}"), mode

    def test_non_pathological_period(self, souza_plant):
        report = period_reports(souza_plant, [1.0])[0]
        for mode in MODES:
            assert not getattr(report, f"pathological_{mode}"), mode

    def test_mri_pathology_implies_single_channel_pathology(self, souza_plant, rotation_plant):
        rng = np.random.default_rng(34)
        plants = [souza_plant, rotation_plant]
        plants += [random_controllable_plant(rng, int(rng.integers(2, 5))) for _ in range(10)]
        for plant in plants:
            periods = [c.period for c in candidate_pathological_periods(plant.A, 8.0)]
            periods += list(rng.uniform(0.1, 5.0, size=3))
            for r in period_reports(plant, periods):
                if r.pathological_mri:
                    assert r.pathological_regular
                    assert r.pathological_impulsive

    def test_hypothesis_violation(self):
        plant = ContinuousPlant(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(UncontrollablePlantError):
            period_reports(plant, [1.0])

    @pytest.mark.parametrize("T", [0.2, 0.3, 0.5, 1.0, 2.5])
    def test_a_decayed_fast_mode_loses_no_channel(self, near_resonant_plant, T):
        # e^{-100 T} shrinks the impulse map's fast direction towards roundoff,
        # but no eigenvalue pair collides at these periods, so no mode loses
        # controllability (a Kalman rank of [B_i, A_d B_i, ...] reads it as lost)
        report = period_reports(near_resonant_plant, [T])[0]
        for mode in MODES:
            assert not getattr(report, f"pathological_{mode}"), mode


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

    def test_a_horizon_with_more_multiples_than_numpy_can_index_is_rejected(self, souza_plant):
        # the multiples are counted before any is listed, so this returns at once
        with pytest.raises(ValueError, match=r"^T_max = 1e\+300 spans 7\.6328e\+299 multiples of its base periods, "
                                             r"more than numpy can index$"):
            candidate_pathological_periods(souza_plant.A, 1e300)

    @pytest.mark.parametrize("T_max", [
        SOUZA_BASE, 3.0 * SOUZA_BASE, 3.0 * SOUZA_BASE * (1 + 2e-12), 7.5 * SOUZA_BASE, 1e4,
        # the bound T_max (1 + 1e-12) is 1 * base exactly; its quotient by
        # base rounds to 48, below the 49 multiples within it
        1.3101347027372625, 64.19660043412586])
    def test_multiples_are_those_a_one_by_one_listing_gives(self, souza_plant, T_max):
        # ell * base for ell = 1, 2, ... while it stays within T_max (1 + 1e-12),
        # bit for bit, where the bound meets a multiple or the quotient rounds
        cands = candidate_pathological_periods(souza_plant.A, T_max)
        base = cands[0].base_period
        expected, ell = [], 1
        while ell * base <= T_max * (1.0 + 1e-12):
            expected.append((ell * base, base, ell, False))
            ell += 1
        got = [(c.period, c.base_period, c.multiple, c.needs_per_multiple_test) for c in cands]
        assert np.array(got).tobytes() == np.array(expected).tobytes()

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
        assert period_reports(rotation_plant, [T])[0].pathological_regular

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
            grid = np.linspace(0.2, T_max, 23)
            for T in grid[_resonance(numkernel.eigenvalues(A), grid).any(axis=-1)]:
                assert any(abs(T - p) <= 1e-6 * (1 + T) for p in periods)


class TestPathologicalPeriodOracle:
    """Candidate periods and the rank decisions against an independent sigma_min scan."""

    @pytest.mark.parametrize("name, T_max", [("souza", 5.0), ("rotation", 13.0)])
    @pytest.mark.parametrize("mode", ["regular", "impulsive"])
    def test_single_channel_zeros_are_the_flagged_candidates(self, request, name, T_max, mode):
        plant = request.getfixturevalue(f"{name}_plant")
        zeros = kalman_zeros(plant.A, plant.B, mode, T_max)
        periods = [c.period for c in candidate_pathological_periods(plant.A, T_max)]
        flagged = [r.period for r in period_reports(plant, periods) if getattr(r, f"pathological_{mode}")]
        assert zeros and len(zeros) == len(flagged)
        assert np.allclose(zeros, flagged, rtol=0.0, atol=1e-6)

    def test_mri_zeros(self, souza_plant, rotation_plant):
        assert kalman_zeros(souza_plant.A, souza_plant.B, "mri", 5.0) == []
        zeros = kalman_zeros(rotation_plant.A, rotation_plant.B, "mri", 13.0)
        assert len(zeros) == 2
        assert np.allclose(zeros, [2.0 * np.pi, 4.0 * np.pi], rtol=0.0, atol=1e-6)
        # the reduced test at the resonant eigenvalues finds the same periods
        periods = [c.period for c in candidate_pathological_periods(rotation_plant.A, 13.0)]
        flagged = [r.period for r in period_reports(rotation_plant, periods) if r.pathological_mri]
        assert len(flagged) == 2
        assert np.allclose(zeros, flagged, rtol=0.0, atol=1e-6)


def documented_resonance(A, T):
    """The resonance rule of ``PeriodReport.resonant``, pair by pair."""
    eigs = np.sort_complex(np.linalg.eigvals(A).astype(complex))
    tol = 1e-8 * (1.0 + np.abs(eigs).max())
    out = []
    for mu in eigs:
        for gamma in eigs:
            gap = mu.imag - gamma.imag
            if abs(gap) <= tol or abs(mu.real - gamma.real) > tol:
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
    eigs = numkernel.eigenvalues(plant.A)
    for mu in eigs[_resonance(eigs, [T])[0]]:
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
    """``period_reports`` over the periods, each equal bit for bit to the report
    of its period alone and to a reduced kernel test on 2-D matrices."""
    reports = period_reports(plant, periods)
    assert [r.period for r in reports] == [float(T) for T in periods]
    for T, r in zip(periods, reports):
        solo = period_reports(plant, [T])[0]
        assert r == solo and bits(r.mri_margin) == bits(solo.mri_margin)
        failures, margin = hautus_reference(plant, T)
        assert r.mri_failures == failures and bits(r.mri_margin) == bits(margin)
        assert np.allclose(sorted(r.resonant, key=lambda z: (z.real, z.imag)),
                           documented_resonance(plant.A, T), rtol=1e-9)
    return reports


class TestPeriodReports:
    def test_souza_up_to_fifty(self, souza_plant):
        candidates = [c.period for c in candidate_pathological_periods(souza_plant.A, 50.0)]
        reports = reports_against_solo(souza_plant, [*candidates, 1.0, 2.5, SOUZA_BASE + 1e-7])
        assert len(candidates) == 38
        assert all(r.pathological_regular and r.pathological_impulsive for r in reports[:38])
        # no resonance away from the candidates: no kernel test and an infinite margin
        assert [r.mri_margin for r in reports[38:]] == [np.inf] * 3

    def test_rotation_up_to_two_hundred(self, rotation_plant):
        candidates = candidate_pathological_periods(rotation_plant.A, 200.0)
        reports = reports_against_solo(rotation_plant, [c.period for c in candidates])
        assert [c.multiple for c, r in zip(candidates, reports) if r.pathological_mri] == \
            list(range(2, 63, 2))
        # A_d = +-I at every multiple of pi: one channel cannot reach both directions.
        # At 2 pi k the hold block cancels to roundoff too, and only a rank rule
        # with a unit floor reads that as lost
        assert all(r.pathological_regular and r.pathological_impulsive for r in reports)

    def test_insulin_is_rejected_like_the_solo_calls(self, insulin_plant):
        # the insulin pair is not controllable: a stack and a single period raise the same error
        for periods in ([5.0, 20.0], [20.0]):
            with pytest.raises(UncontrollablePlantError, match="not controllable"):
                period_reports(insulin_plant, periods)

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
        assert all(r.resonant for r in reports[:len(candidates)])

    def test_pairs_near_equal_on_the_spectrum_scale_are_tested(self, near_resonant_plant):
        # every candidate period gets a kernel test, the pair 5e-8 + i, -2i included
        candidates = candidate_pathological_periods(near_resonant_plant.A, 7.0)
        reports = reports_against_solo(near_resonant_plant, [c.period for c in candidates])
        assert all(r.resonant and np.isfinite(r.mri_margin) for r in reports)
        colliding = [r for c, r in zip(candidates, reports) if np.isclose(c.base_period, 2.0 * np.pi / 3.0)]
        assert [r.period for r in colliding] == pytest.approx([2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        for r in colliding:
            assert np.allclose(sorted(r.resonant, key=lambda z: z.imag), [-2j, 5e-8 - 1j, 5e-8 + 1j, 2j])
            assert not r.pathological_mri and r.mri_margin == pytest.approx(0.647, abs=1e-3)
            # the collision costs neither single channel its controllability
            assert not r.pathological_regular and not r.pathological_impulsive

    def test_an_overflowing_period_fails_the_stack(self, souza_plant):
        # e^{AT} of souza overflows near T = 1420; a resonant period there
        # needs its sample for the kernel test
        T = float(1145 * SOUZA_BASE)
        with pytest.raises(NumericalError, match=f"overflowed at T = {T!r}$"):
            period_reports(souza_plant, [1.0, T, 2.0])
        with pytest.raises(NumericalError, match=f"overflowed at T = {T!r}$"):
            period_reports(souza_plant, [T])

    def test_a_period_without_resonance_needs_no_sample(self, souza_plant):
        # T = 1500 overflows e^{AT} too, but no eigenvalue resonates there:
        # controllable in every mode, with no kernel test (margin inf)
        reports = period_reports(souza_plant, [1.0, 1500.0, 2.0])
        assert reports[1] == PeriodReport(1500.0, (), False, False, False, (), np.inf)
        assert reports == [period_reports(souza_plant, [T])[0] for T in (1.0, 1500.0, 2.0)]

    def test_no_periods(self, souza_plant):
        assert period_reports(souza_plant, []) == []
