"""Property test: the reduced Hautus test agrees with Kalman on the sampled pair."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrilqr import (
    ContinuousPlant,
    candidate_pathological_periods,
    is_pathological,
    kalman_controllable,
    reduced_hautus_mri,
)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(resonant_plants())
def test_reduced_hautus_agrees_with_kalman(case):
    plant, periods = case
    for T in periods:
        assert reduced_hautus_mri(plant, T).controllable == (not is_pathological(plant, T, "mri"))
