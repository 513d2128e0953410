"""Correctness oracles that do not share code with the solver under test.

- The Riccati solution is compared with scipy's Schur-based
  ``solve_discrete_are`` on the same (A_d, B, Q_d, S, R) to 1e-8
  relative. On badly conditioned plants (||P|| up to 1e8) double
  precision cannot decide agreement at that level: scipy's answer and
  the package's differ by up to ~1e-7 with residuals of the same size,
  and one Newton step from scipy's answer moves it by as much. There a P
  that differs is still accepted when it is stabilizing and its relative
  residual is within RESIDUAL_FACTOR of scipy's.
- The preview cost is recomputed by backward dynamic programming on the
  affine terminal cost (x + b)' P (x + b), not by the Gamma series the
  package uses.
- Exact-mode simulations must satisfy J_cont == J_disc to the test
  suite's own bound.
- Controllability reports are checked against the closed-form
  pathological periods of the souza and rotation plants.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

DARE_RTOL = 1e-8
COST_IDENTITY_RTOL = 1e-6
PERIOD_RTOL = 1e-9
ORDER_RTOL = 1e-9
RESIDUAL_FACTOR = 10.0
#: A solution reported as converged must at least be stabilizing with a
#: relative residual within 10x of the package's convergence test (1e-9).
CLAIM_RESIDUAL_RTOL = 1e-8


def reference_dare(A_d, B, Q_d, S, R) -> np.ndarray:
    """Stabilizing solution from scipy's generalized Schur method."""
    return scipy.linalg.solve_discrete_are(A_d, B, Q_d, R, s=S)


def _gain(P, A_d, B, S, R) -> np.ndarray:
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A_d + S.T)


def dare_relative_residual(P, A_d, B, Q_d, S, R) -> float:
    W = A_d.T @ P @ B + S
    E = A_d.T @ P @ A_d + Q_d - W @ np.linalg.solve(R + B.T @ P @ B, W.T) - P
    return float(np.linalg.norm(E)) / max(float(np.linalg.norm(P)), 1e-300)


def stabilizing(P, A_d, B, S, R) -> bool:
    A_cl = A_d + B @ _gain(P, A_d, B, S, R)
    return float(np.max(np.abs(np.linalg.eigvals(A_cl)))) < 1.0


def dare_accepts(P, P_ref, A_d, B, Q_d, S, R) -> bool:
    """P is the stabilizing DARE solution, as far as double precision tells."""
    if float(np.linalg.norm(P - P_ref)) <= DARE_RTOL * max(float(np.linalg.norm(P_ref)), 1e-300):
        return True
    ref_residual = max(dare_relative_residual(P_ref, A_d, B, Q_d, S, R), np.finfo(float).eps)
    return (stabilizing(P, A_d, B, S, R)
            and dare_relative_residual(P, A_d, B, Q_d, S, R) <= RESIDUAL_FACTOR * ref_residual)


def dare_claim_holds(P, A_d, B, Q_d, S, R) -> bool:
    """What ``converged=True`` promises: a stabilizing P that solves the equation."""
    return (stabilizing(P, A_d, B, S, R)
            and dare_relative_residual(P, A_d, B, Q_d, S, R) <= CLAIM_RESIDUAL_RTOL)


def preview_cost(P, A_d, B, S, R, b, N: int) -> float:
    """Optimal cost of an impulse b known N steps ahead, starting from x_0 = 0.

    With V_k(x) = x'Px + 2 q_k'x + c_k and V_N(x) = (x + b)'P(x + b), one
    backward step keeps P, maps q -> G'q and lowers c by q'B M^{-1} B'q,
    where M = R + B'PB and G is the optimal closed loop.
    """
    M = R + B.T @ P @ B
    G = A_d + B @ _gain(P, A_d, B, S, R)
    J = float(b @ P @ b)
    q = P @ b
    for _ in range(N):
        J -= float(q @ B @ np.linalg.solve(M, B.T @ q))
        q = G.T @ q
    return J


def cost_agrees(J, J_ref, scale, rtol: float = DARE_RTOL) -> bool:
    """|J - J_ref| within rtol of the magnitude of the terms that formed J."""
    return abs(J - J_ref) <= rtol * max(abs(scale), 1e-300)


def preview_rtol(P, B, R) -> float:
    """Tolerance for two routes to Jstar on the same P.

    The package's Gamma series goes through (I + B R^{-1} B' P)^{-1}, so it
    cannot beat eps * cond of that matrix; the factor 1e4 is the same
    allowance the package's own closed-loop check uses.
    """
    X = B @ np.linalg.solve(R, B.T)
    cond = float(np.linalg.cond(np.eye(P.shape[0]) + X @ P))
    return max(DARE_RTOL, 1e4 * np.finfo(float).eps * cond)


def parse_cli_csv(text: str) -> tuple[dict[str, str], tuple[list[str], list[list[str]]] | None]:
    """Scalars and the (single) table of a CSV written by ``mrilqr ... --out x.csv``."""
    scalars: dict[str, str] = {}
    table = None
    for block in text.strip("\n").split("\n\n"):
        lines = block.splitlines()
        if not lines:
            continue
        if lines[0] == "section,name,row,col,value":
            for line in lines[1:]:
                section, name, _, _, value = line.split(",", 4)
                if section == "scalar":
                    scalars[name] = value
        else:
            table = (lines[0].split(","), [line.split(",") for line in lines[1:]])
    return scalars, table


def cost_identity_holds(J_cont: float, J_disc: float) -> bool:
    return abs(J_cont - J_disc) <= COST_IDENTITY_RTOL * max(abs(J_disc), 1e-12)


def periods_match(got: list[float], expected: list[float]) -> bool:
    return len(got) == len(expected) and all(
        abs(g - e) <= PERIOD_RTOL * (1.0 + e) for g, e in zip(got, expected)
    )


def multiples(base: float, T_max: float) -> list[float]:
    """base, 2 base, ... up to T_max."""
    return [k * base for k in range(1, int(math.floor(T_max / base * (1.0 + 1e-12))) + 1)]
