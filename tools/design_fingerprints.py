"""Fingerprints and outcomes of the ``design_mixed`` benchmark plants, to check that a change keeps every bit.

    python3 tools/design_fingerprints.py --seeds 1,2,3 > parent.txt            # in the parent's checkout
    python3 tools/design_fingerprints.py --seeds 1,2,3 --against parent.txt    # in the change's checkout

Run as a script, the tool pins every BLAS pool to one thread before numpy
loads, as ``perfbench/common.py`` does. It imports ``mrilqr`` from the
``src/`` of the checkout it sits in and reads the workload from that
checkout's ``perfbench/workloads.py``, without writing bytecode there and
without leaving ``perfbench/`` on ``sys.path`` or its modules in
``sys.modules``. For each seed it runs every plant of ``DesignMixed`` once
and prints one line per plant: seed, plant index, ``DesignMixed._fingerprint``
of the output (P, K, feedforward, preview costs, converged, doublings),
failed and wrong as ``DesignMixed.check`` counts them. A last line per seed
gives its failed count. With ``--against FILE`` the listing is also compared
with FILE's: each plant whose line differs or is missing and each seed whose
failed count rose is named on stderr, and the exit status is 1 when there is
one. Standard library, mrilqr and the workload module only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@functools.cache
def load_workloads():
    """``perfbench/workloads.py`` of this checkout, with ``mrilqr`` from its
    ``src/`` unless one is loaded already. ``sys.path``,
    ``sys.dont_write_bytecode`` and ``sys.modules`` are as before the call,
    apart from the modules of ``mrilqr`` and of its dependencies."""
    path, dont_write_bytecode = sys.path[:], sys.dont_write_bytecode
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write_bytecode
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]
    return workloads


def listing(seeds, plants: int | None = None) -> list[str]:
    """One line per plant (seed, index, fingerprint, failed, wrong) of the
    first ``plants`` (all by default), then one ``failed`` line per seed with
    its count over them."""
    workloads = load_workloads()
    plants = workloads.DesignMixed.pass_units if plants is None else plants
    lines = []
    for seed in seeds:
        workload = workloads.DesignMixed(seed, ROOT)
        failed = 0
        for i in range(plants):
            case = workload.case(i)
            raw = workload.run(case)
            outcome = workload.check(case, raw)
            failed += outcome.failed
            lines.append(f"{seed} {i} {workload._fingerprint(raw)} {outcome.failed} {outcome.wrong}")
        lines.append(f"{seed} failed {failed} of {plants}")
    return lines


def differences(lines: list[str], reference: list[str]) -> list[str]:
    """Each plant whose line is not in ``reference`` or that ``reference``
    lacks, and each seed whose failed count is above ``reference``'s."""
    def keyed(listing):
        return {tuple(line.split()[:2]): line for line in listing if line.strip()}

    ref = keyed(reference)
    found = []
    for key, line in keyed(lines).items():
        seed, what = key
        if what == "failed":
            before = ref.get(key)
            if before is None or int(line.split()[2]) > int(before.split()[2]):
                found.append(f"seed {seed}: {line.split(' ', 1)[1]} (reference: "
                             f"{'none' if before is None else before.split(' ', 1)[1]})")
        elif ref.get(key) != line:
            found.append(f"seed {seed} plant {what}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--against", type=Path, default=None, help="a listing to compare with")
    args = parser.parse_args(argv)
    lines = listing([int(s) for s in args.seeds.split(",")])
    print("\n".join(lines))
    if args.against is None:
        return 0
    found = differences(lines, args.against.read_text().splitlines())
    for item in found:
        print(f"differs: {item}", file=sys.stderr)
    print(f"{len(found)} differences from {args.against}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.exit(main())
