"""Property tests: the reduced Hautus test of every input mode agrees with the
Kalman rank of that mode's sampled pair, the candidate periods are where
the sampled Kalman matrix can lose rank, and the continuous gate keeps the
relative rank rule's verdicts and rejects planted uncontrollable pairs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrilqr import (
    ContinuousPlant,
    UncontrollablePlantError,
    candidate_pathological_periods,
    kalman_controllable,
    period_reports,
    sample_plant,
)
from mrilqr.discretize import MODES, input_channels

from conftest import kalman_relative, kalman_zeros, planted_uncontrollable_pair, wide_scale_pair


@st.composite
def resonant_plants(draw):
    """Controllable plant whose eigenvalues share one real part, with test periods.

    A is similar to a block diagonal of rotation blocks a I + w J with
    distinct frequencies w, plus sometimes the real eigenvalue a, so
    every eigenvalue pair resonates at some period. B has 1..3 columns
    and is sometimes rank one. The periods are the first candidate
    pathological periods of A and one random period.
    """
    blocks = draw(st.integers(1, 3))
    with_real = draw(st.booleans())
    m = draw(st.sampled_from([1, 2, 3]))
    rank_one = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    a = rng.uniform(-0.3, 0.3)
    freqs = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], size=blocks, replace=False) * rng.uniform(0.5, 2.0)
    n = 2 * blocks + int(with_real)
    D = a * np.eye(n)
    for k, w in enumerate(freqs):
        D[2 * k, 2 * k + 1] = -w
        D[2 * k + 1, 2 * k] = w
    S = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    assume(np.linalg.cond(S) < 1e2)
    A = S @ D @ np.linalg.inv(S)
    B = np.outer(rng.normal(size=n), rng.normal(size=m)) if rank_one else rng.normal(size=(n, m))
    assume(kalman_controllable(A, B))

    periods = [c.period for c in candidate_pathological_periods(A, 12.0)[:4]]
    periods.append(rng.uniform(0.2, 6.0))
    return ContinuousPlant(A, B), periods


@settings(max_examples=60)
@given(resonant_plants())
def test_reduced_hautus_agrees_with_kalman(case):
    # each mode's verdict against the Kalman rank of its own sampled pair (A_d, B_sel)
    plant, periods = case
    for T, report in zip(periods, period_reports(plant, periods)):
        model = sample_plant(plant, T)
        B_mixed = np.hstack([model.B_d, model.B_i])
        kalman = {mode: kalman_controllable(model.A_d, B_mixed[:, input_channels(mode, plant.m)]) for mode in MODES}
        for mode, controllable in kalman.items():
            assert getattr(report, f"pathological_{mode}") is (not controllable), (mode, T)
        assert (report.mri_failures == ()) is kalman["mri"]


@st.composite
def near_colliding_plants(draw):
    """Controllable plant, n = 3..6 and m = 1..2, with a fast real eigenvalue.

    A is similar (random basis of condition below 1e2) to rotation blocks
    a_k I + w_k J with distinct frequencies, a real eigenvalue a_k when n
    is even, and a real eigenvalue -L with L above 1.05 (1 + the largest
    slow modulus): the spectrum's scale 1 + L then exceeds every 1 + |mu|
    of the slow part. The slow real parts are equal, near-equal (one of
    them moved by d with 1 + |mu| < d / 1e-8 < 1 + L, so only the
    spectrum-scale rule pairs it) or distinct (0.25 apart). Returns the
    plant, the horizon T_max = 8 / L and a generator for test periods.

    Calibrated so that the sampled Kalman matrices stay far from roundoff
    away from collisions: it excludes decays e^{-L T} below e^{-8}
    (beyond them the impulse map e^{AT} B loses the fast mode to
    roundoff at every period), slow real parts closer than 0.25 but
    not near-equal, and badly conditioned bases.
    """
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["equal", "near", "distinct"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    blocks, with_real = divmod(n - 1, 2)
    freqs = rng.choice([1.5, 2.0, 2.5, 3.0], size=blocks, replace=False) * rng.uniform(0.9, 1.1)
    reals = np.full(blocks + with_real, rng.uniform(-0.2, 0.2))
    moduli = np.abs(reals + 1j * np.append(freqs, [0.0] * with_real))
    L = rng.uniform(1.05, 1.3) * (1.0 + moduli.max())
    if kind == "near":
        k = rng.integers(len(reals))
        reals[k] += rng.choice([-1.0, 1.0]) * 1e-8 * rng.uniform(1.05 * (1.0 + moduli[k]), 0.95 * (1.0 + L))
    elif kind == "distinct":
        reals += 0.25 * (rng.permutation(len(reals)) - (len(reals) - 1) / 2)
    D = np.diag([*reals[:blocks].repeat(2), *reals[blocks:], -L])
    for k, w in enumerate(freqs):
        D[2 * k, 2 * k + 1], D[2 * k + 1, 2 * k] = -w, w
    S = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    assume(np.linalg.cond(S) < 1e2)
    A = S @ D @ np.linalg.inv(S)
    B = rng.normal(size=(n, m))
    assume(kalman_controllable(A, B))
    return ContinuousPlant(A, B), 8.0 / L, rng


@settings(max_examples=30)
@given(near_colliding_plants())
def test_candidates_are_the_only_collisions(case):
    plant, T_max, rng = case
    periods = np.array([c.period for c in candidate_pathological_periods(plant.A, 1.1 * T_max)])
    # the resonance test finds a colliding pair at every candidate
    for report in period_reports(plant, periods[periods <= T_max]):
        assert report.resonant
    # and none away from them, where both single-channel pairs stay controllable
    away = [T for T in rng.uniform(0.25 * T_max, T_max, size=4) if np.abs(periods - T).min(initial=np.inf) > 1e-3]
    for report in period_reports(plant, away):
        assert report.resonant == ()
        assert not report.pathological_regular
        assert not report.pathological_impulsive
    # the sampled Kalman matrix loses rank only next to a candidate
    for mode in ("regular", "impulsive"):
        for T in kalman_zeros(plant.A, plant.B, mode, T_max, h=T_max / 200):
            assert np.abs(periods - T).min(initial=np.inf) <= 1e-6, (mode, T)


def test_kalman_keeps_the_relative_rule_verdicts():
    # the power-of-two scale changes no verdict of the relative rule, at any scale
    rng = np.random.default_rng(2026)
    verdicts = []
    for _ in range(3000):
        A, B = wide_scale_pair(rng)
        verdicts.append(kalman_controllable(A, B))
        assert verdicts[-1] is kalman_relative(A, B), (A, B)
    assert 0 < sum(verdicts) < len(verdicts)


def test_planted_uncontrollable_pairs_are_rejected():
    rng = np.random.default_rng(26)
    for _ in range(300):
        A, B = planted_uncontrollable_pair(rng)
        assert not kalman_controllable(A, B)
        with pytest.raises(UncontrollablePlantError):
            period_reports(ContinuousPlant(A, B), [1.0])
