"""Byte fingerprints of a fixed list of CLI runs, to check that a change keeps every output byte.

    python3 tools/cli_fingerprints.py > parent.txt             # in the parent's checkout
    python3 tools/cli_fingerprints.py --against parent.txt     # in the change's checkout

The tool imports ``mrilqr`` from the ``src/`` of the checkout it sits in and
runs every command of ``COMMANDS`` in this one process through ``cli.main``,
three times each: to the console, to an ``--out`` CSV file and to an
``--out`` JSON file. The runs take place in a temporary directory that also
holds ``two-input.json``, a hand-made scenario with n = 3 states and m = 2
inputs, so every argv is the same from run to run. Each run prints one line:
the sha256 of everything it wrote (its ``--out`` file, then its stdout, then
its stderr, which holds the message of a failing run), its exit code and its
argv. With ``--against FILE`` the listing is also compared with FILE's, each
run whose line differs or is missing is named on stderr, and the exit status
is 1 when there is one. Standard library and mrilqr only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mrilqr import cli  # noqa: E402

#: The hand-made scenario of ``two-input.json``: n = 3 states, m = 2 inputs.
TWO_INPUT_SCENARIO = {
    "name": "two-input", "A": [[0.1, 1.0, 0.0], [0.0, -0.2, 1.0], [0.3, 0.0, -0.5]],
    "B": [[1.0, 0.0], [0.0, 0.5], [0.2, 1.0]], "Btilde": [[1.0], [0.0], [0.5]],
    "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "Rc": [[1.0, 0.0], [0.0, 2.0]],
    "Ri": [[0.5, 0.0], [0.0, 1.0]], "T": 1.0,
}
SCENARIOS = ("souza", "insulin", "rotation", "two-input.json")

COMMANDS: list[list[str]] = [
    *(["simulate", "--scenario", "insulin", *extra] for extra in (
        [], ["--N", "2"], ["--eps", "0.1"], ["--mode", "open_loop"], ["--mode", "regular"],
        ["--mode", "impulsive"], ["--saturate"], ["--N", "2", "--eps", "0.05"])),
    *(["simulate", "--scenario", s, *extra] for s in ("souza", "rotation", "two-input.json")
      for extra in ([], ["--N", "2"], ["--mode", "open_loop"])),
    ["sweep", "--scenario", "souza", "--T-grid", "0.2:0.05:5", "--mode", "all", "--N", "0,3"],
    ["sweep", "--scenario", "souza", "--T-grid", "5:0.25:120", "--mode", "all", "--N", "0"],
    ["sweep", "--scenario", "souza", "--T-grid", "20:5:60", "--mode", "all", "--N", "0,3"],
    ["sweep", "--scenario", "rotation", "--T-grid", "0.2:0.05:5", "--mode", "all"],
    ["sweep", "--scenario", "insulin", "--T-grid", "1:0.5:60", "--mode", "all", "--N", "0,2"],
    *([command, "--scenario", s] for command in ("lqr", "preview", "controllability", "discretize")
      for s in SCENARIOS),
    # every bundled scenario has N = 0; these reach Gamma and the feedforward
    *(["preview", "--scenario", s, "--N", N] for s, N in (
        ("souza", "3"), ("insulin", "2"), ("rotation", "5"), ("two-input.json", "3"))),
    ["controllability", "--scenario", "souza", "--T-max", "50"],
    ["controllability", "--scenario", "rotation", "--T-max", "200"],
    # the Riccati solver claims convergence with P = 0 here (its output is pinned, not endorsed)
    ["lqr", "--scenario", "souza", "--T", "76.25", "--mode", "mri"],
    # the Riccati solver claims convergence with P 2e-3 off the solution of its
    # equation here (its output is pinned, not endorsed)
    *(["lqr", "--scenario", "insulin", "--T", "1e-06", "--mode", mode] for mode in ("impulsive", "mri")),
]


def fingerprint(argv: list[str], out: str | None) -> tuple[str, int]:
    """The sha256 of what ``cli.main(argv)`` writes (the ``out`` file, stdout,
    stderr) and its exit code; run in the directory that holds ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    if out is not None:
        Path(out).unlink(missing_ok=True)  # a failing run leaves no file of an earlier run behind
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    h = hashlib.sha256()
    if out is not None and Path(out).exists():
        h.update(Path(out).read_bytes())
    h.update(b"\0stdout\0" + stdout.getvalue().encode())
    h.update(b"\0stderr\0" + stderr.getvalue().encode())
    return h.hexdigest(), code


def listing(commands) -> list[str]:
    """One line per run of each command (console, CSV, JSON): sha256, exit code, argv."""
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("two-input.json").write_text(json.dumps(TWO_INPUT_SCENARIO))
            for command in commands:
                for out, extra in ((None, []), ("out.csv", ["--out", "out.csv"]),
                                   ("out.json", ["--out", "out.json", "--format", "json"])):
                    argv = [*command, *extra]
                    digest, code = fingerprint(argv, out)
                    lines.append(f"{digest} {code} {' '.join(argv)}")
        finally:
            os.chdir(here)
    return lines


def differences(lines: list[str], reference: list[str]) -> list[str]:
    """The argv of each run whose line is not in ``reference``, or that ``reference`` lacks."""
    ref = {line.split(" ", 2)[2]: line for line in reference if line.strip()}
    return [line.split(" ", 2)[2] for line in lines if ref.get(line.split(" ", 2)[2]) != line]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None, help="a listing to compare with")
    args = parser.parse_args(argv)
    lines = listing(COMMANDS)
    print("\n".join(lines))
    if args.against is None:
        return 0
    changed = differences(lines, args.against.read_text().splitlines())
    for run in changed:
        print(f"differs: {run}", file=sys.stderr)
    print(f"{len(changed)} of {len(lines)} runs differ from {args.against}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
