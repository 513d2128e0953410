"""Scenario-driven command line front end.

A scenario is a single JSON document holding the plant and cost data
plus simulation defaults; three are bundled (souza, rotation, insulin)
and can be referenced by bare name. Subcommands cover discretization,
controllability reports, LQR and preview synthesis, cost sweeps over
the sampling period, and closed-loop simulation. Results go to the
console (12 significant digits) or, with --out, to CSV or JSON files
written with 17 significant digits so every float round-trips exactly.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import preview as preview_mod
from . import riccati, simulate
from .controllability import candidate_pathological_periods, period_reports
from .discretize import MODES, ContinuousPlant, CostWeights, cost_matrices, input_channels, sample_plant
from .errors import NumericalError, DareDivergenceError
from .numkernel import as_matrix, spectral_radius

__all__ = ["ScenarioConfig", "load_scenario", "bundled_scenario_names", "main"]

CONSOLE_DIGITS = 12
FILE_DIGITS = 17

SIMULATE_MODES = (*MODES, "open_loop")


@dataclass
class ScenarioConfig:
    """Parsed scenario: plant and cost data plus run defaults."""

    name: str
    A: np.ndarray
    B: np.ndarray
    Btilde: np.ndarray
    Q: np.ndarray
    Rc: np.ndarray
    Ri: np.ndarray
    T: float
    N: int
    mode: str
    epsilon: float | None
    saturate_nonnegative: bool
    horizon_steps: int | None
    substeps: int
    disturbance_scale: float
    output_row: np.ndarray | None

    def plant(self) -> ContinuousPlant:
        return ContinuousPlant(self.A, self.B, self.Btilde)

    def weights(self) -> CostWeights:
        return CostWeights(self.Q, self.Rc, self.Ri)

    def disturbance_column(self) -> np.ndarray:
        """Btilde as the single disturbance vector the lqr, preview, sweep
        and simulate commands act on; more columns are an input error."""
        if self.Btilde.shape[1] != 1:
            raise ValueError(f"{self.name}: Btilde has {self.Btilde.shape[1]} columns; this command "
                             "takes a single disturbance column")
        return self.Btilde[:, 0]


# the value when absent of a field the scenario must give
_REQUIRED = object()

# scalar scenario field -> (JSON type, value when absent, flag that overrides it,
# (test of a given value, what the test asks for) or None)
_SCENARIO_SCALARS = {
    "T": (float, _REQUIRED, "T", (lambda T: 0.0 < T < np.inf, "a positive sampling period")),
    "N": (int, 0, "N", (lambda N: N >= 0, ">= 0")),
    "mode": (str, "mri", "mode", (SIMULATE_MODES.__contains__, f"one of {SIMULATE_MODES}")),
    "epsilon": (float, None, "eps", None),
    "saturate_nonnegative": (bool, False, "saturate", None),
    "horizon_steps": (int, None, "steps", (lambda k: k >= 1, ">= 1")),
    "substeps": (int, 32, "substeps", (lambda k: k >= 1, ">= 1")),
    "disturbance_scale": (float, 1.0, None, None),
}

_JSON_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _scalar(label: str, key: str, value, tp: type, absent):
    """Field ``key`` as ``tp``: a number accepts integers, an integer takes 2.0
    but not 1.5, a bool is never a number, and null only stands for None."""
    if value is _REQUIRED:
        raise ValueError(f"{label}: missing required field {key!r}")
    if value is None and absent is None:
        return None
    kind = type(value)
    if kind is tp or (tp is float and kind is int) or (tp is int and kind is float and value.is_integer()):
        try:
            return tp(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{label}: field {key!r} must be {_JSON_TYPE_NAMES[tp]}, got {json.dumps(value)}")


def bundled_scenario_names() -> list[str]:
    root = resources.files("mrilqr").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _scenario_text(spec: str) -> tuple[str, str]:
    """Resolve a path (ending in .json, or naming a file) or bundled name to (label, raw JSON text)."""
    p = Path(spec)
    if p.suffix == ".json" or p.is_file():
        return str(p), p.read_text()
    names = bundled_scenario_names()
    if spec in names:
        return spec, resources.files("mrilqr").joinpath(f"scenarios/{spec}.json").read_text()
    raise ValueError(f"scenario {spec!r} is neither a file nor one of the bundled names {names}")


def load_scenario(spec: str) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a bundled scenario name."""
    label, text = _scenario_text(spec)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{label}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{label}: top-level JSON value must be an object")

    def matrix(key, required=True):
        if key not in raw:
            if required:
                raise ValueError(f"{label}: missing required field {key!r}")
            return None
        try:
            return as_matrix(raw[key], key)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{label}: field {key!r}: {exc}") from exc

    A = matrix("A")
    B = matrix("B")

    def row(key):
        """An optional field that must be one row of n entries."""
        M = matrix(key, required=False)
        if M is not None and M.shape != (1, A.shape[0]):
            raise ValueError(f"{label}: field {key!r} must be one row of {A.shape[0]} entries, got shape {M.shape}")
        return M

    Btilde = matrix("Btilde", required=False)
    C = row("Ctilde")
    if "Q" in raw:
        Q = matrix("Q")
    elif C is not None:
        Q = C.T @ C
    else:
        raise ValueError(f"{label}: provide either 'Q' or a 'Ctilde' row to form Q")
    Rc = matrix("Rc")
    Ri = matrix("Ri")

    scalars = {key: _scalar(label, key, raw.get(key, absent), tp, absent)
               for key, (tp, absent, _, _) in _SCENARIO_SCALARS.items()}
    for key, (_, _, _, rule) in _SCENARIO_SCALARS.items():
        if rule is not None and scalars[key] is not None and not rule[0](scalars[key]):
            raise ValueError(f"{label}: field {key!r} must be {rule[1]}, got {scalars[key]!r}")
    out_row = row("output_row")

    return ScenarioConfig(_scalar(label, "name", raw.get("name", label), str, label), A, B,
                          np.zeros((A.shape[0], 1)) if Btilde is None else Btilde, Q, Rc, Ri,
                          output_row=C if out_row is None else out_row, **scalars)


# ---------------------------------------------------------------------------
# output helpers


def _kind(tp: type) -> str:
    """The type rule of every writer: a cell's type is bool, int, float, none or str."""
    if issubclass(tp, (bool, np.bool_)):
        return "bool"
    if issubclass(tp, (int, np.integer)):
        return "int"
    if issubclass(tp, (float, np.floating)):
        return "float"
    return "none" if tp is type(None) else "str"


_BOOL_TEXT = {True: "true", False: "false"}


def _spec(kind: str, digits: int) -> str:
    """The %-format of a kind; a bool is formatted as its ``_BOOL_TEXT``, and "%.0s" writes no None."""
    return {"int": "%d", "float": f"%.{digits}g", "none": "%.0s"}.get(kind, "%s")


def _cell(v, digits: int) -> str:
    """A cell as console or CSV text."""
    kind = _kind(type(v))
    return _spec(kind, digits) % (_BOOL_TEXT[v] if kind == "bool" else v,)


_JSON_VALUE = {"bool": bool, "int": int, "float": lambda v: float(v) if math.isfinite(v) else None,
               "none": lambda v: None, "str": str}


def _plain(v):
    """A cell as the JSON value it stands for; a non-finite float, which JSON
    cannot hold, as null."""
    return _JSON_VALUE[_kind(type(v))](v)


def _column(column) -> tuple[list, str | None]:
    """A table column's cells as Python values and their one kind, None when
    they mix kinds: an array's kind is its dtype's, a list's its cells' (``_kind``)."""
    if isinstance(column, np.ndarray):
        return column.tolist(), _kind(column.dtype.type)
    kinds = {_kind(tp) for tp in set(map(type, column))}
    return column, kinds.pop() if len(kinds) == 1 else None


@functools.cache
def _g_tables(digits: int):
    """The tables of ``_g_texts``, built once per process and digit count: hi and lo,
    the correctly rounded quotients of 10**k (k = -300..300) and of the rest; 8-byte
    text pieces (0-9999 the 4-digit chunks, a digit per '<u2' slot whose second byte
    is left for a point; 10000 + 5 * negative + zeros before the first digit the
    prefixes "", "0.", "0.0", ...; 10010 a newline; 10311 + e "e%+03d" and a newline);
    at 10000 k + c, 4 k + the place after chunk c's last nonzero digit, or 0; and
    marks, whose row kept * (digits + 1) + point blanks the padding and the digits
    from kept on in a cell's 28 slots and puts a point after digit point."""
    ratios = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in range(-300, 301)]
    hi = [num / den for num, den in ratios]
    lo = [(num * h_den - h_num * den) / (den * h_den)
          for (num, den), (h_num, h_den) in zip(ratios, map(float.as_integer_ratio, hi))]
    c = np.arange(10000)
    chunks = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    frames = [sign + (b"0." + b"0" * (lead - 1) if lead else b"") for sign in (b"", b"-") for lead in range(5)]
    frames += [b"\n"] + [b"e%+03d\n" % e for e in range(-300, 301)]
    pieces = np.concatenate([(chunks + 48).astype("<u2").view("<u8")[:, 0],
                             np.frombuffer(b"".join(f.ljust(8, b"\0") for f in frames), "<u8")])
    ends = ((chunks != 0) * np.arange(1, 5)).max(axis=1)
    ends = np.where(ends > 0, ends + 4 * np.arange(5)[:, None], 0).astype(np.uint8).ravel()
    j = np.arange(-4, 24) - (20 - digits)  # the digit in each slot
    slot = (j >= digits - 20) & (j < digits)
    kept, point = np.divmod(np.arange((digits + 1) ** 2), digits + 1)
    marks = -48 * (slot & ((j < 0) | (j >= kept[:, None]))) + (ord(".") << 8) * (slot & (j == point[:, None]))
    return np.array([hi, lo]), pieces, ends, marks.astype("<u2")


def _scaled(a: np.ndarray, k: np.ndarray, powers: np.ndarray):
    """a * 10**k as a double-double (s, t): Dekker's exact product of a and
    the power's hi, with Veltkamp's splits into 26-bit halves, plus a * lo."""
    hi, lo = powers.take(k + 300, axis=1)
    ca, ch = 134217729.0 * a, 134217729.0 * hi  # 2**27 + 1
    a1, h1 = ca - (ca - a), ch - (ch - hi)
    a2, h2 = a - a1, hi - h1
    p = a * hi
    t = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    s = p + t
    return s, t - (s - p)


def _g_texts(values, digits: int) -> list[str]:
    """``"%.{digits}g" % v`` for every cell of a float array, 1 <= digits <= 17.

    |v| * 10**(digits - 1 - e) as a double-double (``_scaled``, within 2**-104 relative,
    so its fraction is off by under 1e-14) is rounded to ``digits`` digits and laid out
    in %g's form in a NUL-padded byte grid, which one translate, decode and split turn
    into texts. The bound needs 1e-280 <= |v| <= 1e280, where no partial product or lo
    used is subnormal. % formats every other cell (zero, non-finite, out of range) and
    each whose scaled fraction is within 1e-6 of 1/2: a possible tie, broken to even."""
    powers, pieces, ends, marks = _g_tables(digits)
    v = np.asarray(values, dtype=float)
    n, d = v.size, digits
    a = np.abs(v)
    exact = (a >= 1e-280) & (a <= 1e280)
    a[~exact] = 2.0  # a stand-in in range for the cells % formats
    e = np.floor(np.log10(a)).astype(np.intp)  # may be one off next to a power of ten
    s, t = _scaled(a, d - 1 - e, powers)
    low, top = float(10 ** (d - 1)), float(10 ** d)
    off = np.flatnonzero((s <= low) | (s >= top))
    if off.size:  # make low <= s + t < top; each difference with s is exact or far from 0
        s_off, t_off = s[off], t[off]
        e[off] += ((s_off - top) + t_off >= 0).astype(np.intp) - ((s_off - low) + t_off < 0)
        s[off], t[off] = _scaled(a[off], d - 1 - e[off], powers)
    whole = np.floor(s)
    frac = (s - whole) + t
    carry = np.floor(frac)
    frac -= carry
    exact &= np.abs(frac - 0.5) >= 1e-6
    N = whole.astype(np.int64) + (carry + (frac > 0.5)).astype(np.int64)
    up = N == 10 ** d  # rounded up to the next power of ten
    N, e = np.where(up, 10 ** (d - 1), N), e + up
    rows = np.empty((7, n), np.intp)  # pieces: prefix, N's 4-digit chunks (most significant first), suffix
    for k in range(5, 0, -1):
        high = N // 10000  # // by a scalar is several times faster than divmod
        np.subtract(N, 10000 * high, out=rows[k])
        N = high
    sci = (e < -4) | (e >= d)
    point = np.where(sci | (e < 0), 0, e)  # the digit the point follows
    lead = np.where(sci | (e >= 0), 0, -e)  # zeros before the first digit
    significant = ends.take(rows[1:6] + np.arange(0, 50000, 10000)[:, None]).max(axis=0) - (20 - d)
    kept = np.maximum(point + 1, significant)  # trailing zeros go, but not before the point
    rows[0] = 10000 + 5 * np.signbit(v) + lead
    rows[6] = np.where(sci, 10311 + e, 10010)
    grid = pieces.take(rows.T).view("<u2")
    grid += marks.take(kept * (d + 1) + np.where((lead == 0) & (kept > point + 1), point, d), axis=0)
    texts = grid.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = f"%.{d}g" % v[i]
    return texts


def _run_starts(column: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive cells of a numeric array starts.
    Cells join a run when their values and sign bits are equal, so -0.0
    never joins 0.0 and a NaN never joins anything."""
    change = np.ones(column.size, dtype=bool)
    change[1:] = (column[1:] != column[:-1]) | (np.signbit(column[1:]) != np.signbit(column[:-1]))
    return np.flatnonzero(change)


def _table_lines(header, columns, digits: int) -> list[str]:
    """A table as its header line and one text line per row. A numeric array
    column with at most half as many runs of equal consecutive cells
    (``_run_starts``) as cells has each run formatted once, any other float
    array column goes through ``_g_texts`` and a column of mixed kinds is
    written cell by cell; rows of texts only are joined by ",".join, others
    go through one %-format string of the column kinds."""
    specs, cells = [], []  # a spec of None: a column of texts
    for column in columns:
        kind = _kind(column.dtype.type) if isinstance(column, np.ndarray) else None
        if kind in ("int", "float") and 2 * (starts := _run_starts(column)).size <= column.size:
            texts = [_spec(kind, digits) % v for v in column[starts].tolist()]
            spec, cell = None, chain.from_iterable(map(repeat, texts, np.diff(starts, append=column.size).tolist()))
        elif kind == "float":
            spec, cell = None, _g_texts(column, digits)
        else:
            values, kind = _column(column)
            spec = None if kind in (None, "bool") else _spec(kind, digits)
            cell = [_cell(v, digits) for v in values] if kind is None else \
                map(_BOOL_TEXT.__getitem__, values) if kind == "bool" else values
        specs.append(spec)
        cells.append(cell)
    join = ",".join if all(spec is None for spec in specs) else ",".join(spec or "%s" for spec in specs).__mod__
    return [",".join(header), *map(join, zip(*cells))]


class _Sink:
    """Accumulates scalars, matrices and tables and renders them to console, CSV or JSON.

    One type rule (``_kind``) decides how every cell reads: bools as
    true/false, integers in full, floats to ``CONSOLE_DIGITS`` or
    ``FILE_DIGITS`` significant digits, None as an empty field (null in
    JSON, as is a non-finite float). A table is a list of equally long
    columns, one per header entry: a numpy array, whose kind is read from
    its dtype, or a list, whose kind is read from its cells. The bytes are
    those of % on every cell, but ``_table_lines`` formats a numeric
    array's runs once each and other float arrays in numpy (``_g_texts``).
    A file is written over any old one in place and cut to length (``emit``).
    """

    def __init__(self):
        self.scalars: dict[str, object] = {}
        self.matrices: dict[str, np.ndarray] = {}
        self.tables: dict[str, tuple[list[str], list]] = {}

    def scalar(self, name, value):
        self.scalars[name] = value

    def matrix(self, name, M):
        self.matrices[name] = np.atleast_2d(np.asarray(M, dtype=float))

    def table(self, name, header, columns):
        if len(columns) != len(header) or len(set(map(len, columns))) > 1:
            raise ValueError(f"table {name!r} needs {len(header)} columns of one length, got lengths "
                             f"{list(map(len, columns))}")
        self.tables[name] = (header, columns)

    def to_console(self):
        for name, value in self.scalars.items():
            sys.stdout.write(f"{name} = {_cell(value, CONSOLE_DIGITS)}\n")
        for name, M in self.matrices.items():
            sys.stdout.write(f"{name} ({M.shape[0]}x{M.shape[1]}):\n")
            for row in M:
                sys.stdout.write("  " + "  ".join(_cell(v, CONSOLE_DIGITS) for v in row) + "\n")
        for name, (header, columns) in self.tables.items():
            sys.stdout.write(f"[{name}]\n")
            sys.stdout.write("".join(line + "\n" for line in _table_lines(header, columns, CONSOLE_DIGITS)))

    def to_csv(self) -> str:
        lines = []
        if self.scalars or self.matrices:
            lines.append("section,name,row,col,value")
        for name, value in self.scalars.items():
            lines.append(f"scalar,{name},,,{_cell(value, FILE_DIGITS)}")
        for name, M in self.matrices.items():
            lines.extend(f"matrix,{name},{i},{j},{_cell(v, FILE_DIGITS)}" for (i, j), v in np.ndenumerate(M))
        for name, (header, columns) in self.tables.items():
            if lines:
                lines.append("")
            lines.extend(_table_lines(header, columns, FILE_DIGITS))
        return "\n".join(lines) + "\n"

    def json_doc(self) -> dict:
        doc: dict[str, object] = {k: _plain(v) for k, v in self.scalars.items()}
        for name, M in self.matrices.items():
            doc[name] = [list(map(_plain, row)) for row in M.tolist()]
        for name, (header, columns) in self.tables.items():
            rows = zip(*(map(_plain, _column(c)[0]) for c in columns))
            doc[name] = [dict(zip(header, row)) for row in rows]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.json_doc(), indent=2, sort_keys=True) + "\n"

    def emit(self, out_path: str | None, fmt: str | None):
        """Render to the console, or to the file ``out_path`` in ``fmt``.

        An existing file is overwritten in place and then cut to the new
        length, not opened with O_TRUNC: on ext4, a rewrite through O_TRUNC
        of a file that holds data was measured to stall for tens of
        milliseconds. Only a regular file is cut; a device or FIFO cannot be
        truncated. Nothing is fsynced.
        """
        if out_path is None:
            self.to_console()
            return
        data = (self.to_json() if fmt == "json" else self.to_csv()).encode()
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            f.flush()
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                f.truncate()


# ---------------------------------------------------------------------------
# subcommands


def cmd_discretize(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    T = args.T
    plant, weights = scenario.plant(), scenario.weights()
    model = sample_plant(plant, T)
    cost = cost_matrices(plant, weights, T)
    sink.scalar("scenario", scenario.name)
    sink.scalar("T", T)
    for name, M in [("A", plant.A), ("B", plant.B), ("Btilde", plant.Btilde),
                    ("A_d", model.A_d), ("Atilde", model.Atilde),
                    ("B_d", model.B_d), ("B_i", model.B_i),
                    ("Q_d", cost.Q_d), ("S_d", cost.S_d), ("R_d", cost.R_d)]:
        sink.matrix(name, M)


def cmd_controllability(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    plant = scenario.plant()
    sink.scalar("scenario", scenario.name)
    sink.scalar("T_max", args.T_max)
    candidates = candidate_pathological_periods(plant.A, args.T_max)
    *reports, at_T = period_reports(plant, [c.period for c in candidates] + [scenario.T])
    sink.table("candidates", ["period", "base_period", "multiple", "needs_per_multiple_test", "pathological_regular",
                              "pathological_impulsive", "pathological_mri", "mri_margin"],
               [[c.period for c in candidates], [c.base_period for c in candidates],
                [c.multiple for c in candidates], [c.needs_per_multiple_test for c in candidates],
                [r.pathological_regular for r in reports], [r.pathological_impulsive for r in reports],
                [r.pathological_mri for r in reports], [r.mri_margin for r in reports]])
    sink.scalar("scenario_T", scenario.T)
    sink.scalar("scenario_T_mri_controllable", not at_T.pathological_mri)


def _emit_gain(sink: _Sink, K: np.ndarray, mode: str, m: int) -> None:
    """A single-channel gain as K; an mri gain as its hold rows K_c and impulse rows K_i."""
    if mode != "mri":
        sink.matrix("K", K)
        return
    sink.matrix("K_c", K[input_channels("regular", m)])
    sink.matrix("K_i", K[input_channels("impulsive", m)])


def cmd_lqr(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    T, mode = args.T, args.mode
    if mode == "open_loop":
        raise ValueError("the lqr command needs a feedback mode (regular, impulsive, mri)")
    plant = scenario.plant()
    bt = scenario.disturbance_column()
    des = riccati.design(plant, scenario.weights(), T, mode)
    sol = des.solution
    sink.scalar("scenario", scenario.name)
    sink.scalar("T", T)
    sink.scalar("mode", mode)
    sink.scalar("converged", sol.converged)
    sink.scalar("iterations", sol.iterations)
    sink.scalar("residual", sol.residual)
    sink.scalar("closed_loop_spectral_radius", spectral_radius(des.model.A_d + des.B_sel @ sol.K))
    sink.scalar("cost_at_Btilde", float(bt @ sol.P @ bt))
    sink.matrix("P", sol.P)
    _emit_gain(sink, sol.K, mode, plant.m)


def cmd_preview(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    T, N = args.T, args.N
    plant = scenario.plant()
    bt = scenario.disturbance_column()
    des = riccati.design(plant, scenario.weights(), T, "mri")
    plan = preview_mod.preview_plan(des, bt, N)
    sink.scalar("scenario", scenario.name)
    sink.scalar("T", T)
    sink.scalar("N", N)
    sink.scalar("Jstar", plan.Jstar)
    _emit_gain(sink, plan.K, "mri", plant.m)
    sink.matrix("G", plan.G)
    sink.matrix("Gamma", plan.Gamma)
    if plan.feedforward:
        sink.matrix("feedforward", np.vstack(plan.feedforward))


def cmd_sweep(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    """Each (period, mode, horizon) row of the grid, from the stacks of its
    solve; the converged cells of one input width preview in one call. A
    diverged solve reports its last iterate's cost for every horizon, any
    other numerical failure a nan cost with 0 iterations, and an unconverged
    design (whose preview cost can fall far below zero), a failed closed-loop
    check or a failed preview solve the feedback-only cost for every N > 0,
    all with converged=False."""
    grid = _parse_grid(args.T_grid)
    modes = MODES if args.mode == "all" else (args.mode,)
    N_list = [p for p in args.N.split(",") if p != ""]
    for p in N_list or [args.N]:  # a list without entries is one bad entry
        if not p.strip().lstrip("+").isdecimal():
            raise ValueError(f"--N takes comma-separated integers >= 0, got the entry {p!r}")
    N_list = [int(p) for p in N_list]
    ahead = [k for k, N in enumerate(N_list) if N > 0]
    plant, weights, bt = scenario.plant(), scenario.weights(), scenario.disturbance_column()
    _, widths = riccati._solve_grid(plant, weights, grid.tolist(), modes)
    # (period, mode, horizon) grids of the rows' cost, converged and iterations
    cost, converged, iterations = (np.empty((len(grid), len(modes), len(N_list)), dtype=t) for t in (float, bool, int))
    for qs, (A_d, B, _, S, R), (P, K, _, its, ok, _, errors) in widths:
        # a diverged cell keeps the P and doublings of its last iterate
        lost = {j for j, exc in errors.items() if not isinstance(exc, DareDivergenceError)}
        J = np.array([np.nan if j in lost else bt @ P_j @ bt for j, P_j in enumerate(P)])
        its[list(lost)] = 0
        cost[:, qs], converged[:, qs], iterations[:, qs] = (X.reshape(len(qs), -1).T[..., None] for X in (J, ok, its))
        cells = np.flatnonzero(ok)
        if cells.size and ahead:
            _, previewed, failed = preview_mod._preview_costs(
                A_d[cells], B[cells], S[cells], R[cells], P[cells], K[cells], bt, N_list)
            kept = np.array([[j not in failed] for j in range(cells.size)])
            rows = cells[:, None] % len(grid), np.asarray(qs)[cells // len(grid), None], ahead
            cost[rows] = np.where(kept, previewed[:, ahead], cost[rows])
            converged[rows] = kept
    # every grid holds a period and every --N a horizon, so there is a row
    sink.table("sweep", ["T", "mode", "N", "cost", "converged", "iterations"],
               [np.repeat(grid, len(modes) * len(N_list)).tolist(), [m for m in modes for _ in N_list] * len(grid),
                N_list * (len(grid) * len(modes)), *(X.ravel().tolist() for X in (cost, converged, iterations))])


def cmd_simulate(scenario: ScenarioConfig, args, sink: _Sink) -> None:
    plant, weights = scenario.plant(), scenario.weights()
    direction = scenario.disturbance_column() * scenario.disturbance_scale
    T, N, mode = args.T, args.N, args.mode

    m = plant.m
    A_cl = None
    if mode == "open_loop":
        policy = simulate.InputPolicy(K=np.zeros((2 * m, plant.n)), mode="mri")
    else:
        if N > 0 and mode != "mri":
            raise ValueError("preview (N > 0) is only available in mri mode")
        des = riccati.design(plant, weights, T, mode)
        feedforward = preview_mod.preview_plan(des, direction, N).feedforward if N > 0 else ()
        policy = simulate.InputPolicy(K=des.solution.K, mode=mode, feedforward=feedforward,
                                      saturate_nonnegative=args.saturate)
        A_cl = des.model.A_d + des.B_sel @ des.solution.K

    disturbance = simulate.DisturbanceSpec(impulse_step=N, direction=direction)
    steps = args.steps
    if steps is None:
        steps = 50 if A_cl is None else max(simulate.certified_horizon(
            A_cl, float(direction @ direction), cap=2000), N + 10)

    traj = simulate.simulate_closed_loop(
        plant, weights, T, policy,
        disturbance=disturbance, steps=steps, substeps=args.substeps, epsilon=args.eps,
    )

    out_row = scenario.output_row[0] if scenario.output_row is not None else None
    header = (["t"] + [f"x{i+1}" for i in range(plant.n)] + ["y"]
              + [f"uc{i+1}" for i in range(m)] + [f"ui{i+1}" for i in range(m)]
              + ["J_running", "impulse"])
    # a row at a duplicated time stamp carries the input of the interval starting there
    ks = np.minimum(np.floor(traj.dense_times / T + 1e-9).astype(int), steps - 1)
    # y row by row, as out_row @ x: one gemv over all rows sums in another order
    y = None if out_row is None else (traj.dense_states[:, None, :] @ out_row)[:, 0]
    columns = [traj.dense_times, *traj.dense_states.T, [None] * len(ks) if y is None else y,
               *traj.u_c[ks].T, *traj.u_i[ks].T, traj.dense_running_cost, traj.dense_impulse_flags]
    sink.scalar("scenario", scenario.name)
    sink.scalar("T", T)
    sink.scalar("mode", mode)
    sink.scalar("N", N)
    sink.scalar("steps", steps)
    sink.scalar("J_cont", traj.J_cont)
    sink.scalar("J_disc", traj.J_disc)
    if out_row is not None:
        sink.scalar("peak_y", float(y.max()))
    sink.table("trajectory", header, columns)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--T-grid expects start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if not np.isfinite([start, step, stop]).all():
        raise ValueError(f"--T-grid takes finite numbers, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"--T-grid needs step > 0 and stop >= start, got {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not count < np.iinfo(np.intp).max:  # inf when (stop - start) / step overflows
        raise ValueError(f"--T-grid gives {count:g} periods, more than numpy can index, got {text!r}")
    try:
        return start + step * np.arange(int(count))
    except (ValueError, MemoryError):  # numpy cannot allocate the grid
        raise ValueError(f"--T-grid gives {count:g} periods, more than fit in memory, got {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; ``main`` runs ``cmd_<command>``."""
    p = _Parser(prog="mrilqr", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, with_T=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
        if with_T:
            sp.add_argument("--T", type=float, default=None, help="sampling period override")
        sp.add_argument("--out", default=None, help="output file (default: console)")
        sp.add_argument("--format", choices=("csv", "json"), default=None, help="file format of --out (default: csv)")
        return sp

    command("discretize", "sampled model and equivalent cost matrices")

    sp = command("controllability", "pathological-period report", with_T=False)
    sp.add_argument("--T-max", type=float, default=10.0, dest="T_max")

    sp = command("lqr", "infinite-horizon gain synthesis")
    sp.add_argument("--mode", choices=MODES, default=None)

    sp = command("preview", "preview feedforward synthesis")
    sp.add_argument("--N", type=int, default=None, help="preview horizon override")

    sp = command("sweep", "cost sweep over sampling periods", with_T=False)
    sp.add_argument("--T-grid", required=True, dest="T_grid", help="start:step:stop")
    sp.add_argument("--mode", choices=(*MODES, "all"), default="mri")
    sp.add_argument("--N", default="0", help="comma-separated preview horizons")

    sp = command("simulate", "closed-loop trajectory CSV")
    sp.add_argument("--mode", choices=SIMULATE_MODES, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None, help="impulse hold fraction (approx mode)")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--substeps", type=int, default=None)
    sp.add_argument("--saturate", action="store_true", default=None, help="clip inputs at zero")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.format is not None and args.out is None:
            raise ValueError("--format applies to --out files; the console has one format")
        scenario = load_scenario(args.scenario)
        for field, (_, _, flag, _) in _SCENARIO_SCALARS.items():
            if flag is not None and getattr(args, flag, False) is None:
                setattr(args, flag, getattr(scenario, field))
        sink = _Sink()
        # looked up per call, so a replaced module attribute is the one that runs
        globals()[f"cmd_{args.command}"](scenario, args, sink)
        sink.emit(args.out, args.format)
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
