"""Seeded inputs, operations and output checks of the three workloads.

Every workload hands out *units*, the thing a caller waits on (one CLI
command, or one plant design), and says how many operations each unit
stands for. Units are kept short (at most ~0.15 s), so that some of their
repeats run while other tenants leave the host alone and the fastest
repeat is steady. ``nominal_pass_s`` is the operation time of one pass on
the reference machine (a 2-vCPU Intel Xeon KVM guest); run.py sizes a run
from it, so that the work of a run depends only on the seed and
``--seconds``. ``run(unit)`` is the only part that is timed; ``check`` reads
and verifies the output afterwards and returns an ``Outcome``. A unit that
repeats must give byte-identical output; the oracles run once per distinct
output.

The program only sees the generated inputs: CLI argument lists or plant
data. Package functions are always called through their module
(``riccati.design``, ``cli.main``) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mrilqr
from mrilqr import cli, discretize, preview, riccati
from mrilqr.errors import NumericalError

import oracles

# Errors an operation may end with. Anything else is a defect of the
# benchmark and stops the run.
OP_ERRORS = (NumericalError, ValueError, ArithmeticError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Outcome:
    """What one unit amounted to.

    failed counts operations that raised, reported ``converged=false`` or
    failed an oracle; wrong counts the failed ones whose output claimed
    success, which makes the run incorrect.
    """

    ops: int
    failed: int = 0
    wrong: int = 0
    output_bytes: int = 0
    reasons: tuple[str, ...] = ()


class _CliWorkload:
    """Units are CLI argument lists run in-process through ``cli.main``."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self._seen: dict[object, tuple[str, Outcome]] = {}

    def key(self, unit):
        """A hashable name of the unit."""
        return unit

    def ops_of(self, unit) -> int:
        return self.unit_ops

    def out_path(self, unit) -> Path:
        return self.outdir / f"{self.name}-{unit}.csv"

    def argv(self, unit) -> list[str]:
        raise NotImplementedError

    def verify(self, unit, text: str) -> Outcome:
        raise NotImplementedError

    def run(self, unit) -> int:
        return cli.main(self.argv(unit) + ["--out", str(self.out_path(unit))])

    def check(self, unit, rc: int) -> Outcome:
        data = self.out_path(unit).read_bytes() if rc == 0 else b""
        digest = hashlib.sha256(data + bytes([rc & 0xFF])).hexdigest()
        if unit in self._seen:
            first, outcome = self._seen[unit]
            if digest != first:
                return Outcome(outcome.ops, outcome.ops, outcome.ops, len(data),
                               ("output differs from the first run of the same command",))
            return outcome
        if rc != 0:
            ops = self.ops_of(unit)
            outcome = Outcome(ops, ops, 0, reasons=(f"exit code {rc}",))
        else:
            outcome = self.verify(unit, data.decode())
        outcome = Outcome(outcome.ops, outcome.failed, outcome.wrong, len(data), outcome.reasons)
        self._seen[unit] = (digest, outcome)
        return outcome


class SweepSouza(_CliWorkload):
    """The grid of ``sweep --scenario souza --T-grid <start>:0.05:5 --mode
    all --N 0,3``, run as consecutive sweep commands of 8 periods each.

    The cost-vs-period study: many cheap solves crossing the periods
    k 2 pi / sqrt(23) at which the hold-only design degrades. start is 0.2
    plus a seeded offset in [0, 0.05). An operation is one (T, mode, N)
    cell; the N = 0 and N = 3 cells of a (T, mode) solve the same DARE.
    A pass is the whole grid, 96 or 97 periods in 12 or 13 commands.
    """

    name = "sweep_souza"
    unit_name = "command"
    nominal_pass_s = 1.45
    # Commands of ~0.1 s often run while other tenants leave the host
    # alone. The one ~1 s command over the whole grid rarely did: between
    # seeds its fastest repeat spread by 0.16-0.26 (IQR/median) and its
    # median by 0.11-0.40.
    PERIODS_PER_COMMAND = 8
    STEP = 0.05
    STOP = 5.0
    MODES = ("regular", "impulsive", "mri")
    HORIZONS = (0, 3)

    def __init__(self, seed: int, outdir: Path):
        super().__init__(outdir)
        self.start = 0.2 + float(np.random.default_rng(seed).uniform(0.0, self.STEP))
        count = int(np.floor((self.STOP - self.start) / self.STEP + 1e-9)) + 1
        # Periods as the CLI computes them from each command's grid.
        self.commands = []
        for first in range(0, count, self.PERIODS_PER_COMMAND):
            start = self.start + first * self.STEP
            n = min(self.PERIODS_PER_COMMAND, count - first)
            self.commands.append([start + self.STEP * k for k in range(n)])
        self.pass_units = len(self.commands)

    def ops_of(self, unit) -> int:
        return len(self.commands[unit]) * len(self.MODES) * len(self.HORIZONS)

    def argv(self, unit) -> list[str]:
        periods = [self.start] if unit == "warmup" else self.commands[unit]
        first, last = periods[0], periods[-1]
        return ["sweep", "--scenario", "souza", "--T-grid", f"{first!r}:{self.STEP!r}:{last!r}",
                "--mode", "all", "--N", ",".join(map(str, self.HORIZONS))]

    def units(self):
        while True:
            yield from range(len(self.commands))

    def block(self) -> list:
        return list(range(len(self.commands)))

    def warmup(self) -> None:
        if self.run("warmup") != 0:
            raise RuntimeError("warm-up sweep failed")

    def verify(self, unit, text):
        periods, ops = self.commands[unit], self.ops_of(unit)
        _, table = oracles.parse_cli_csv(text)
        header = ["T", "mode", "N", "cost", "converged", "iterations"]
        if table is None or table[0] != header or len(table[1]) != ops:
            return Outcome(ops, ops, ops, reasons=("sweep table has the wrong shape",))
        scenario = cli.load_scenario("souza")
        plant, weights = scenario.plant(), scenario.weights()
        b = plant.Btilde[:, 0]
        cost: dict[tuple[int, str, int], float] = {}
        converged: dict[tuple[int, str, int], bool] = {}
        bad: dict[tuple[int, str, int], str] = {}
        rows = iter(table[1])
        for ti, T in enumerate(periods):
            model = discretize.sample_plant(plant, T)
            sampled = discretize.cost_matrices(plant, weights, T)
            for mode in self.MODES:
                B, S, R = discretize.restrict_input_mode(model, sampled, mode)
                try:
                    P_ref = oracles.reference_dare(model.A_d, B, sampled.Q_d, S, R)
                except (np.linalg.LinAlgError, ValueError):
                    P_ref = None
                for N in self.HORIZONS:
                    row = next(rows)
                    key = (ti, mode, N)
                    if abs(float(row[0]) - T) > 1e-12 * T or row[1] != mode or int(row[2]) != N:
                        return Outcome(ops, ops, ops, reasons=("sweep rows out of order",))
                    cost[key] = float(row[3])
                    converged[key] = row[4] == "true"
                    if not converged[key]:
                        bad[key] = "not converged"
                    if P_ref is None:
                        bad.setdefault(key, "scipy DARE found no stabilizing solution")
                        continue
                    J_ref = oracles.preview_cost(P_ref, model.A_d, B, S, R, b, N)
                    if not oracles.cost_agrees(cost[key], J_ref, float(b @ P_ref @ b)):
                        bad.setdefault(key, "cost differs from the scipy DARE")
        for ti in range(len(periods)):
            for N in self.HORIZONS:
                c = {mode: cost[(ti, mode, N)] for mode in self.MODES}
                if c["mri"] > min(c["regular"], c["impulsive"]) * (1.0 + oracles.ORDER_RTOL):
                    bad.setdefault((ti, "mri", N), "mri cost above a single-channel cost")
            for mode in self.MODES:
                if cost[(ti, mode, 3)] > cost[(ti, mode, 0)] * (1.0 + oracles.ORDER_RTOL):
                    bad.setdefault((ti, mode, 3), "preview cost above the N = 0 cost")
        wrong = sum(1 for key in bad if converged[key])
        return Outcome(ops, len(bad), wrong, reasons=tuple(bad.values()))


@dataclass(frozen=True)
class DesignCase:
    index: int
    plant: mrilqr.ContinuousPlant
    weights: mrilqr.CostWeights
    T: float
    N: int


def hautus_controllable(A: np.ndarray, B: np.ndarray, rtol: float = 1e-9) -> bool:
    """rank [A - lambda I, B] = n at every eigenvalue lambda of A."""
    n = A.shape[0]
    scale = float(np.linalg.norm(np.hstack([A, B]), 2))
    for lam in np.linalg.eigvals(A):
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)
        if s[-1] <= rtol * scale:
            return False
    return True


class DesignMixed:
    """Library designs of a seeded batch of random plants.

    Plant i has shape SHAPES[i % 12], n in {3, 6, 12, 24} and m in {1, 2, 3},
    with r = 2 disturbance columns; A is scaled to spectral norm 0.6,
    Q = C'C + 1e-3 I, Rc and Ri are diagonals in 10^[-1, 1], T ~ U(0.2, 3)
    and N in {0..5}. Only pairs (A, B) that fail the PBH controllability
    test are redrawn. One operation is design(mode="mri") + closed_loop_G
    + feedforward_sequence and gamma_and_cost for each disturbance column.
    A pass designs the 288 plants of the batch, 24 of each shape; within a
    pass every DARE is solved once. The batch is large enough to hold the
    latency tail steady between seeds (the tail is a scatter of plants that
    take thousands of iterations: a 48-plant batch varies by ~24% in work,
    and the p90 of 144-plant batches falls into two groups ~25% apart) and
    small enough that a run repeats each plant ~7 times, so that its
    fastest repeat is near the time of an unloaded machine. The traced
    block is the first 48 plants.
    """

    name = "design_mixed"
    unit_name = "plant"
    pass_units = 288
    block_units = 48
    nominal_pass_s = 4.2
    SHAPES = tuple((n, m) for n in (3, 6, 12, 24) for m in (1, 2, 3))

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self._seen: dict[int, tuple[str, Outcome]] = {}

    def case(self, i: int) -> DesignCase:
        rng = np.random.default_rng([self.seed, i])
        n, m = self.SHAPES[i % len(self.SHAPES)]
        while True:
            A = rng.standard_normal((n, n))
            A *= 0.6 / np.linalg.norm(A, 2)
            B = rng.standard_normal((n, m))
            if hautus_controllable(A, B):
                break
        Btilde = rng.standard_normal((n, 2))
        C = rng.standard_normal((1, n))
        Q = C.T @ C + 1e-3 * np.eye(n)
        Rc = np.diag(10.0 ** rng.uniform(-1.0, 1.0, m))
        Ri = np.diag(10.0 ** rng.uniform(-1.0, 1.0, m))
        T = float(rng.uniform(0.2, 3.0))
        N = int(rng.integers(0, 6))
        return DesignCase(i, mrilqr.ContinuousPlant(A, B, Btilde), mrilqr.CostWeights(Q, Rc, Ri), T, N)

    def units(self):
        batch = [self.case(i) for i in range(self.pass_units)]
        while True:
            yield from batch

    def block(self) -> list:
        return [self.case(i) for i in range(self.block_units)]

    def key(self, case: DesignCase) -> int:
        return case.index

    def warmup(self) -> None:
        self.run(self.case(0))

    def run(self, case: DesignCase):
        try:
            des = riccati.design(case.plant, case.weights, case.T, mode="mri")
            P = des.solution.P
            G = preview.closed_loop_G(des.model.A_d, des.B_sel, des.S_sel, des.R_sel, P)
            feedforward, costs = [], []
            for j in range(case.plant.r):
                b = case.plant.Btilde[:, j]
                feedforward.append(preview.feedforward_sequence(P, G, des.B_sel, des.R_sel, b, case.N))
                costs.append(preview.gamma_and_cost(P, G, des.B_sel, des.R_sel, b, case.N)[1])
        except OP_ERRORS as exc:
            return exc
        return des, feedforward, costs

    @staticmethod
    def _fingerprint(raw) -> str:
        h = hashlib.sha256()
        if isinstance(raw, Exception):
            h.update(f"{type(raw).__name__}: {raw}".encode())
        else:
            des, feedforward, costs = raw
            for arr in (des.solution.P, des.solution.K, *[f for ff in feedforward for f in ff]):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((costs, des.solution.converged, des.solution.iterations)).encode())
        return h.hexdigest()

    def check(self, case: DesignCase, raw) -> Outcome:
        digest = self._fingerprint(raw)
        if case.index in self._seen:
            first, outcome = self._seen[case.index]
            if digest != first:
                return Outcome(1, 1, 1, reasons=("output differs from the first run of the same plant",))
            return outcome
        outcome = self._verify(case, raw)
        self._seen[case.index] = (digest, outcome)
        return outcome

    def _verify(self, case: DesignCase, raw) -> Outcome:
        """Failed: raised, not converged, or P / Jstar off (oracles.py).

        Wrong: reported converged although P is not a stabilizing solution
        of the equation, or Jstar disagrees with P. Converged solves whose P
        solves the equation but misses scipy's by more than 1e-8 (the early
        stop of the known defect) fail without being wrong.
        """
        if isinstance(raw, Exception):
            return Outcome(1, 1, 0, reasons=(type(raw).__name__,))
        des, _, costs = raw
        sol = des.solution
        reasons = [] if sol.converged else ["not converged"]
        try:
            problems, claim_holds = self._oracle_problems(case, des, costs)
        except np.linalg.LinAlgError:
            problems, claim_holds = ["oracle could not evaluate the solution"], False
        reasons += problems
        if not reasons:
            return Outcome(1)
        wrong = sol.converged and not claim_holds
        if wrong:
            reasons = [f"claimed converged: {r}" for r in reasons]
        return Outcome(1, 1, int(wrong), reasons=tuple(reasons))

    @staticmethod
    def _oracle_problems(case: DesignCase, des, costs) -> tuple[list[str], bool]:
        """(oracle failures, whether what converged=True promises holds)."""
        P = des.solution.P
        args = (des.model.A_d, des.B_sel, des.cost.Q_d, des.S_sel, des.R_sel)
        problems = []
        rtol = oracles.preview_rtol(P, des.B_sel, des.R_sel)
        for j, J in enumerate(costs):
            # Jstar is checked on the package's own P, so that it tests the
            # preview formula and not scipy's accuracy a second time.
            b = case.plant.Btilde[:, j]
            J_ref = oracles.preview_cost(P, des.model.A_d, des.B_sel, des.S_sel, des.R_sel, b, case.N)
            if not oracles.cost_agrees(J, J_ref, float(b @ P @ b), rtol):
                problems.append("Jstar disagrees with the dynamic-programming cost")
                break
        claim_holds = not problems and oracles.dare_claim_holds(P, *args)
        try:
            P_ref = oracles.reference_dare(*args)
        except (np.linalg.LinAlgError, ValueError):
            problems.append("scipy DARE found no stabilizing solution")
        else:
            if not oracles.dare_accepts(P, P_ref, *args):
                problems.append("P differs from the scipy DARE")
        return problems, claim_holds


class Verify(_CliWorkload):
    """Verification simulations and controllability reports.

    The only workload that reaches simulate._run, the dense trajectory
    CSV and the controllability module. The --eps of the second command
    is seeded in [0.02, 0.2]. An operation is one command.
    """

    name = "verify"
    unit_name = "command"
    pass_units = 5
    nominal_pass_s = 0.5
    unit_ops = 1
    SOUZA_BASE = 2.0 * math.pi / math.sqrt(23.0)

    def __init__(self, seed: int, outdir: Path):
        super().__init__(outdir)
        self.eps = float(np.random.default_rng(seed).uniform(0.02, 0.2))
        self.commands = [
            ["simulate", "--scenario", "insulin", "--N", "2"],
            ["simulate", "--scenario", "insulin", "--N", "2", "--eps", repr(self.eps)],
            ["simulate", "--scenario", "insulin", "--mode", "open_loop"],
            ["controllability", "--scenario", "souza", "--T-max", "50"],
            ["controllability", "--scenario", "rotation", "--T-max", "200"],
        ]

    def argv(self, unit) -> list[str]:
        return list(self.commands[unit])

    def units(self):
        while True:
            yield from range(len(self.commands))

    def block(self) -> list:
        return list(range(len(self.commands)))

    def warmup(self) -> None:
        if self.run(0) != 0:
            raise RuntimeError("warm-up simulate failed")

    def verify(self, unit, text):
        if unit < 3:
            problem, known = self._simulate_problem(unit, text), None
        else:
            problem, known = self._controllability_problems(unit, text)
        if problem:
            return Outcome(1, 1, 1, reasons=(problem,))
        if known:
            return Outcome(1, 1, 0, reasons=(known,))
        return Outcome(1)

    def _simulate_problem(self, unit, text) -> str | None:
        scalars, table = oracles.parse_cli_csv(text)
        J_cont, J_disc = float(scalars["J_cont"]), float(scalars["J_disc"])
        if not (math.isfinite(J_cont) and math.isfinite(J_disc) and J_disc > 0.0):
            return "non-finite or non-positive cost"
        if unit != 1 and not oracles.cost_identity_holds(J_cont, J_disc):
            return f"J_cont {J_cont!r} != J_disc {J_disc!r}"
        header, rows = table
        times = [float(r[0]) for r in rows]
        flags = [int(r[header.index("impulse")]) for r in rows]
        T, steps = float(scalars["T"]), int(scalars["steps"])
        substeps = cli.load_scenario("insulin").substeps
        segments = substeps
        if unit == 1:
            alpha = self.eps * T
            if all(abs(alpha - j * T / substeps) > 1e-15 * T for j in range(substeps + 1)):
                segments += 1
        if times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
            return "trajectory times not ordered from 0"
        if abs(times[-1] - steps * T) > 1e-9 * steps * T:
            return "trajectory does not end at steps * T"
        if flags.count(0) != 1 + steps * segments:
            return "wrong number of sub-step rows"
        return None

    def _controllability_problems(self, unit, text) -> tuple[str | None, str | None]:
        """(wrong output, known defect) of a controllability report.

        The candidate periods and the regular-mode flags are exact facts
        of these plants. So is the mri flag (souza: never pathological;
        rotation: exactly at 2 pi k), but the package's rank tolerance is
        relative to e^{0.5 T} on souza and flags mri at T > ~45. That
        known defect counts the command as failed without making the run
        incorrect.
        """
        _, table = oracles.parse_cli_csv(text)
        header, rows = table
        col = {name: header.index(name) for name in header}
        periods = [float(r[col["period"]]) for r in rows]
        regular = [r[col["pathological_regular"]] == "true" for r in rows]
        mri = [r[col["pathological_mri"]] == "true" for r in rows]
        if unit == 3:
            if not oracles.periods_match(periods, oracles.multiples(self.SOUZA_BASE, 50.0)):
                return "souza candidates are not the multiples of 2 pi / sqrt(23)", None
            if not all(regular):
                return "souza: regular mode not pathological at a multiple of 2 pi / sqrt(23)", None
            if any(mri):
                return None, "known defect: souza mri flagged pathological at large T"
            return None, None
        if not oracles.periods_match(periods, oracles.multiples(math.pi, 200.0)):
            return "rotation candidates are not the multiples of pi", None
        full_turn = [k % 2 == 0 for k in range(1, len(periods) + 1)]
        if not all(r for r, f in zip(regular, full_turn) if f):
            return "rotation: regular mode not pathological at a multiple of 2 pi", None
        if mri != full_turn:
            return None, "rotation: mri flags differ from the multiples of 2 pi"
        return None, None


WORKLOADS = {cls.name: cls for cls in (SweepSouza, DesignMixed, Verify)}


def make(name: str, seed: int, outdir: Path):
    return WORKLOADS[name](seed, outdir)
